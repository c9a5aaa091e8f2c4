//! Typed views onto the simulated shared address space.
//!
//! A [`SharedVec`] is a handle (base address + length) to an array of
//! plain-old-data elements in shared memory. Handles are created before
//! a run with [`Dsm::alloc`](crate::Dsm::alloc) and captured by the
//! application closures; all access goes through a [`Proc`] so the
//! coherence protocol sees every load and store.
//!
//! # Span guards
//!
//! Every access — scalar [`get`](SharedVec::get)/[`set`](SharedVec::set)
//! included — runs on one machinery: a **span guard** faults the pages
//! covering a byte span in (exactly as the per-call paths would), pins
//! their rights by holding the processor's memory lock, and charges one
//! access tick when it ends. [`SharedVec::view`] and
//! [`SharedVec::view_mut`] hand that window to the application as a
//! typed, zero-copy view over the page frames: element loads and stores
//! inside the view touch the frames directly — no per-call temporary
//! buffer, no per-element rights check, no per-element turn point.
//! Every store inside a view, scalar or bulk, goes through the one
//! unchecked store, `PagedMemory::span_unchecked_mut`, over exactly the
//! bytes it writes, so the page's dirty watermark stays exact.
//! [`SharedMatrix`] layers 2-D row views on top.

use std::marker::PhantomData;
use std::ops::{Bound, RangeBounds};

use adsm_mempage::{FaultKind, Pod};

use crate::proc::SpanGuard;
use crate::Proc;

/// Resolves a `RangeBounds` over `len` elements into `[start, end)`.
///
/// # Panics
///
/// Panics if the range is decreasing or exceeds `len`.
fn resolve_range(range: impl RangeBounds<usize>, len: usize) -> (usize, usize) {
    let start = match range.start_bound() {
        Bound::Included(&s) => s,
        Bound::Excluded(&s) => s + 1,
        Bound::Unbounded => 0,
    };
    let end = match range.end_bound() {
        Bound::Included(&e) => e + 1,
        Bound::Excluded(&e) => e,
        Bound::Unbounded => len,
    };
    assert!(
        start <= end && end <= len,
        "bad span range [{start}, {end}) over {len} elements"
    );
    (start, end)
}

/// A typed array in simulated shared memory.
///
/// `SharedVec` is `Copy`: it is only an address range, so closures can
/// capture it cheaply. Element accesses are little-endian loads/stores
/// through the owning [`Proc`]'s software MMU.
///
/// # Examples
///
/// ```
/// use adsm_core::{Dsm, ProtocolKind};
///
/// let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(2).build();
/// let data = dsm.alloc::<u64>(1024);
/// let outcome = dsm
///     .run(move |p| {
///         if p.id().index() == 0 {
///             data.set(p, 0, 42);
///         }
///         p.barrier();
///         if p.id().index() == 1 {
///             assert_eq!(data.get(p, 0), 42);
///         }
///     })
///     .unwrap();
/// assert_eq!(outcome.read_vec(&data)[0], 42);
/// ```
pub struct SharedVec<T> {
    base: usize,
    len: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedVec<T> {}

impl<T> std::fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedVec")
            .field("base", &self.base)
            .field("len", &self.len)
            .finish()
    }
}

impl<T: Pod> SharedVec<T> {
    pub(crate) fn from_raw(base: usize, len: usize) -> Self {
        SharedVec {
            base,
            len,
            _elem: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of element `i` in the shared space.
    ///
    /// # Panics
    ///
    /// Panics if `i > len` (one-past-the-end is allowed for range
    /// computations).
    pub fn addr(&self, i: usize) -> usize {
        assert!(i <= self.len, "index {i} out of bounds (len {})", self.len);
        self.base + i * T::SIZE
    }

    /// Opens a read-only span view over `range`: faults the covered
    /// pages in once, pins read rights for the span's lifetime, and
    /// returns a typed zero-copy window over the page frames. One
    /// rights check, one memory-lock acquisition and one access
    /// tick/turn point (at drop) cover the whole span, however many
    /// elements are read through it.
    ///
    /// While the view is alive the owning [`Proc`] is mutably borrowed:
    /// no other shared access or synchronisation operation can
    /// interleave, which is exactly what makes the pinned rights sound.
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_core::{Dsm, ProtocolKind};
    ///
    /// let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(1).build();
    /// let data = dsm.alloc::<u32>(8);
    /// dsm.run(move |p| {
    ///     data.view_mut(p, ..).fill(3);
    ///     let v = data.view(p, 2..6);
    ///     assert_eq!(v.len(), 4);
    ///     assert_eq!(v.iter().sum::<u32>(), 12);
    /// })
    /// .unwrap();
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the array.
    pub fn view<'a>(&self, p: &'a mut Proc, range: impl RangeBounds<usize>) -> SharedView<'a, T> {
        let (start, end) = resolve_range(range, self.len);
        let len = end - start;
        let guard = p.span_guard(self.addr(start), len * T::SIZE, FaultKind::Read);
        SharedView {
            guard,
            base: self.addr(start),
            len,
            _elem: PhantomData,
        }
    }

    /// Opens a writable span view over `range`: faults the covered
    /// pages in for writing once (twinning each page exactly as a
    /// per-call store would), pins write rights for the span's
    /// lifetime, and returns a typed window writing straight into the
    /// page frames. The bytes actually stored through the view are
    /// recorded in the pages' dirty watermarks, so interval-close
    /// diffing scans only the written range.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the array.
    pub fn view_mut<'a>(
        &self,
        p: &'a mut Proc,
        range: impl RangeBounds<usize>,
    ) -> SharedViewMut<'a, T> {
        let (start, end) = resolve_range(range, self.len);
        let len = end - start;
        let guard = p.span_guard(self.addr(start), len * T::SIZE, FaultKind::Write);
        SharedViewMut {
            guard,
            base: self.addr(start),
            len,
            _elem: PhantomData,
        }
    }

    /// Loads element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, p: &mut Proc, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.view(p, i..i + 1).at(0)
    }

    /// Stores `v` into element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&self, p: &mut Proc, i: usize, v: T) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.view_mut(p, i..i + 1).set(0, v);
    }

    /// Bulk load of `out.len()` elements starting at `start`: one span
    /// guard for the whole range — one rights check, no temporary byte
    /// buffer, elements decoded straight out of the page frames.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_into(&self, p: &mut Proc, start: usize, out: &mut [T]) {
        assert!(
            start + out.len() <= self.len,
            "range [{start}, +{}) out of bounds (len {})",
            out.len(),
            self.len
        );
        if out.is_empty() {
            return;
        }
        self.view(p, start..start + out.len()).copy_to_slice(out);
    }

    /// Bulk store of `vals` starting at `start`: one span guard, bytes
    /// encoded straight into the page frames.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_from(&self, p: &mut Proc, start: usize, vals: &[T]) {
        assert!(
            start + vals.len() <= self.len,
            "range [{start}, +{}) out of bounds (len {})",
            vals.len(),
            self.len
        );
        if vals.is_empty() {
            return;
        }
        self.view_mut(p, start..start + vals.len())
            .copy_from_slice(vals);
    }

    /// Reads the whole range `[start, end)` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_range(&self, p: &mut Proc, start: usize, end: usize) -> Vec<T> {
        assert!(
            start <= end && end <= self.len,
            "bad range [{start}, {end})"
        );
        if start == end {
            return Vec::new();
        }
        self.view(p, start..end).to_vec()
    }

    /// Read-modify-write of one element (two accesses, like a load
    /// followed by a store).
    pub fn update(&self, p: &mut Proc, i: usize, f: impl FnOnce(T) -> T) {
        let v = self.get(p, i);
        self.set(p, i, f(v));
    }
}

/// A read-only, typed, zero-copy window over shared memory, returned by
/// [`SharedVec::view`] — the RAII span guard of the access layer.
///
/// The view holds the covered pages' read rights (and the processor's
/// memory lock) for its whole lifetime; dropping it charges the span's
/// single access tick and offers the span's single turn point.
pub struct SharedView<'a, T: Pod> {
    guard: SpanGuard<'a>,
    /// Byte address of element 0 of the view.
    base: usize,
    /// Elements covered.
    len: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Pod> SharedView<'_, T> {
    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The view's window of the page frames, as raw little-endian
    /// bytes — the zero-copy surface everything else decodes from.
    pub fn as_bytes(&self) -> &[u8] {
        self.guard.mem().raw(self.base, self.len * T::SIZE)
    }

    /// Loads element `i` of the view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn at(&self, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        T::load_le(self.guard.mem().raw(self.base + i * T::SIZE, T::SIZE))
    }

    /// Iterates over the view's elements. The exact-chunk walk costs no
    /// per-element bounds check, so whole-span decodes vectorise.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.as_bytes().chunks_exact(T::SIZE).map(T::load_le)
    }

    /// Decodes the whole view into `out`.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len()` equals the view length.
    pub fn copy_to_slice(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.len, "output length must match the view");
        for (slot, chunk) in out.iter_mut().zip(self.as_bytes().chunks_exact(T::SIZE)) {
            *slot = T::load_le(chunk);
        }
    }

    /// Decodes the whole view into a fresh vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }
}

impl<T: Pod> Drop for SharedView<'_, T> {
    fn drop(&mut self) {
        // Zero-length spans perform no access: release the lock without
        // charging a tick (matching the bulk paths' empty-range
        // early-outs).
        if self.len > 0 {
            self.guard.finish(self.len * T::SIZE);
        }
    }
}

impl<T: Pod> std::fmt::Debug for SharedView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedView")
            .field("base", &self.base)
            .field("len", &self.len)
            .finish()
    }
}

/// A writable, typed, zero-copy window over shared memory, returned by
/// [`SharedVec::view_mut`].
///
/// Stores go straight into the page frames (the covered pages were
/// write-faulted — and twinned where the protocol requires — when the
/// view was created); the written byte range is recorded in the pages'
/// dirty watermarks so interval-close diffing scans only dirty bytes.
/// Reads through the view observe earlier writes made through it.
pub struct SharedViewMut<'a, T: Pod> {
    guard: SpanGuard<'a>,
    base: usize,
    len: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Pod> SharedViewMut<'_, T> {
    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Loads element `i` — reads-after-writes within the view observe
    /// the written values.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn at(&self, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        T::load_le(self.guard.mem().raw(self.base + i * T::SIZE, T::SIZE))
    }

    /// Iterates over the view's current contents (same exact-chunk
    /// walk as [`SharedView::iter`]).
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.guard
            .mem()
            .raw(self.base, self.len * T::SIZE)
            .chunks_exact(T::SIZE)
            .map(T::load_le)
    }

    /// Stores `v` into element `i` of the view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, v: T) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        v.store_le(
            self.guard
                .mem_mut()
                .span_unchecked_mut(self.base + i * T::SIZE, T::SIZE),
        );
    }

    /// Read-modify-write of element `i` within the span.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn update(&mut self, i: usize, f: impl FnOnce(T) -> T) {
        let v = self.at(i);
        self.set(i, f(v));
    }

    /// Stores `v` into every element of the view.
    pub fn fill(&mut self, v: T) {
        if self.len == 0 {
            return;
        }
        let frames = self
            .guard
            .mem_mut()
            .span_unchecked_mut(self.base, self.len * T::SIZE);
        for chunk in frames.chunks_exact_mut(T::SIZE) {
            v.store_le(chunk);
        }
    }

    /// Encodes `vals` straight into the view's frames (one exact-chunk
    /// pass, no intermediate buffer).
    ///
    /// # Panics
    ///
    /// Panics unless `vals.len()` equals the view length.
    pub fn copy_from_slice(&mut self, vals: &[T]) {
        assert_eq!(vals.len(), self.len, "input length must match the view");
        if self.len == 0 {
            return;
        }
        let frames = self
            .guard
            .mem_mut()
            .span_unchecked_mut(self.base, self.len * T::SIZE);
        for (chunk, v) in frames.chunks_exact_mut(T::SIZE).zip(vals) {
            v.store_le(chunk);
        }
    }
}

impl<T: Pod> Drop for SharedViewMut<'_, T> {
    fn drop(&mut self) {
        if self.len > 0 {
            self.guard.finish(self.len * T::SIZE);
        }
    }
}

impl<T: Pod> std::fmt::Debug for SharedViewMut<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedViewMut")
            .field("base", &self.base)
            .field("len", &self.len)
            .finish()
    }
}

/// A 2-D (row-major) array in shared memory: [`SharedVec`] plus shape,
/// with per-row span views — the layout every banded application in the
/// suite hand-rolled over flat index arithmetic.
///
/// # Examples
///
/// ```
/// use adsm_core::{Dsm, ProtocolKind};
///
/// let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(1).build();
/// let m = dsm.alloc_matrix_page_aligned::<f64>(4, 512);
/// dsm.run(move |p| {
///     m.row_mut(p, 2).fill(1.5);
///     assert_eq!(m.at(p, 2, 100), 1.5);
///     assert_eq!(m.row(p, 2).iter().sum::<f64>(), 1.5 * 512.0);
/// })
/// .unwrap();
/// ```
pub struct SharedMatrix<T> {
    data: SharedVec<T>,
    rows: usize,
    cols: usize,
}

impl<T> Clone for SharedMatrix<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedMatrix<T> {}

impl<T> std::fmt::Debug for SharedMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish()
    }
}

impl<T: Pod> SharedMatrix<T> {
    /// Wraps a flat shared array as a `rows x cols` row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len() == rows * cols`.
    pub fn new(data: SharedVec<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix shape {rows}x{cols} does not cover the array"
        );
        SharedMatrix { data, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying flat array (e.g. for
    /// [`RunOutcome::read_vec`](crate::RunOutcome::read_vec)).
    pub fn shared_vec(&self) -> SharedVec<T> {
        self.data
    }

    /// Flat index of `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    fn idx(&self, r: usize, c: usize) -> usize {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        r * self.cols + c
    }

    /// Loads element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, p: &mut Proc, r: usize, c: usize) -> T {
        self.data.get(p, self.idx(r, c))
    }

    /// Stores `v` into element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&self, p: &mut Proc, r: usize, c: usize, v: T) {
        self.data.set(p, self.idx(r, c), v)
    }

    /// Read-only span view over row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row<'a>(&self, p: &'a mut Proc, r: usize) -> SharedView<'a, T> {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        self.data.view(p, r * self.cols..(r + 1) * self.cols)
    }

    /// Writable span view over row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut<'a>(&self, p: &'a mut Proc, r: usize) -> SharedViewMut<'a, T> {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        self.data.view_mut(p, r * self.cols..(r + 1) * self.cols)
    }

    /// Decodes row `r` into `out` through one span guard.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds or `out.len() != cols`.
    pub fn read_row_into(&self, p: &mut Proc, r: usize, out: &mut [T]) {
        self.row(p, r).copy_to_slice(out);
    }

    /// Encodes `vals` as row `r` through one span guard.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds or `vals.len() != cols`.
    pub fn write_row_from(&self, p: &mut Proc, r: usize, vals: &[T]) {
        self.row_mut(p, r).copy_from_slice(vals);
    }
}
