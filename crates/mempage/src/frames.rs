//! The byte store behind a [`PagedMemory`](crate::PagedMemory): a
//! zero-filled range from the operating system, not from the process
//! heap, which a run's memories take from and give back to a
//! process-wide pool.
//!
//! A processor's memory is the one large block of a run (4 MB a
//! processor for SOR at `Paper`, one per processor per run), and a
//! typical processor touches a band of it. From the heap, what that
//! costs depends on the heap's history: `calloc` hands out untouched
//! zero pages only while it can extend the heap or map afresh, and once
//! a few small blocks freed into the allocator's per-thread caches sit
//! above the previous run's memories the heap neither shrinks nor
//! extends — every later memory is a recycled block, zeroed by hand and
//! so resident in full (+32 MB on an 8-processor SOR run), from
//! whichever run first left its blocks that way. A private anonymous
//! mapping is the same every time: pages become resident as they are
//! touched.
//!
//! Mapping afresh for every run has its own price, though: each page
//! the run touches is a page fault (≈ 2.2 µs on a 2-core x86-64 host,
//! against ≈ 0.4 µs to re-zero a page that is already resident). So a
//! run's frames outlive it: [`Frames::recycled`] hands processor *k* of
//! a run the frame processor *k* of an earlier run gave back, whatever
//! length that run asked for, with only the pages it wrote zeroed again
//! ([`Frames::recycle`]). A frame keeps its mapping when a run asks for
//! less and grows it in place (`mremap`) when a run asks for more, so
//! the pages a slot's processors touched stay resident from one
//! application to the next: a process's resident frames are, slot by
//! slot, the union of the bands its runs touched — the trade for not
//! faulting them in again. Keying by processor keeps each frame's
//! resident pages the ones its own processor touches anyway; a pool
//! that handed any frame to any processor let every frame grow to the
//! union of all bands (+20 % peak resident set on an 8-processor
//! threads matrix). The pool holds at most one frame per slot.

use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::slice;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `len` bytes, zero until written, at the front of a mapping of `cap`
/// bytes whose tail past `len` is zero too.
pub(crate) struct Frames {
    base: NonNull<u8>,
    len: usize,
    /// Bytes mapped at `base`; nothing is mapped while it is 0.
    cap: usize,
}

// SAFETY: `Frames` owns its mapping exclusively, like a `Box<[u8]>`.
unsafe impl Send for Frames {}
// SAFETY: shared access only reads; writing takes `&mut`.
unsafe impl Sync for Frames {}

/// `slots[k]`: the frame processor *k* of an earlier run gave back, all
/// zero.
static POOL: Mutex<Vec<Option<Frames>>> = Mutex::new(Vec::new());

/// Every byte of `bytes` is zero (page-wise `memcmp`s: quick in debug
/// builds too, where the check runs).
fn is_zero(bytes: &[u8]) -> bool {
    const ZERO: [u8; crate::PAGE_SIZE] = [0; crate::PAGE_SIZE];
    bytes
        .chunks(crate::PAGE_SIZE)
        .all(|c| c == &ZERO[..c.len()])
}

/// The pool; a panic elsewhere while it was held leaves it consistent
/// (every operation on it is a `take` or a `replace`).
fn pool() -> MutexGuard<'static, Vec<Option<Frames>>> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Frames {
    /// `len` zero bytes for processor `slot` of a run: the frame
    /// processor `slot` last gave back, if the pool still holds it —
    /// grown in place if it is shorter than `len` — else a new one.
    pub(crate) fn recycled(len: usize, slot: usize) -> Frames {
        let reused = pool().get_mut(slot).and_then(Option::take);
        match reused {
            Some(mut frames) => {
                frames.fit(len);
                debug_assert!(
                    is_zero(frames.mapping()),
                    "a pooled frame was handed out with stale bytes"
                );
                frames
            }
            None => Frames::zeroed(len),
        }
    }

    /// Gives back processor `slot`'s frame, which the caller has made
    /// all zero again. Kept unless the pool already holds one for
    /// `slot` (a concurrent run may have returned one first); otherwise
    /// unmapped, after the lock is released.
    pub(crate) fn recycle(self, slot: usize) {
        let mut pool = pool();
        if pool.len() <= slot {
            pool.resize_with(slot + 1, || None);
        }
        if pool[slot].is_none() {
            pool[slot] = Some(self);
        }
    }

    pub(crate) fn zeroed(len: usize) -> Frames {
        let mut frames = Frames {
            base: NonNull::dangling(),
            len: 0,
            cap: 0,
        };
        frames.fit(len);
        frames
    }

    /// Makes the frame `len` bytes long: the mapping is kept if it is
    /// long enough, else grown in place — the pages already resident
    /// stay so, the new ones are zero.
    fn fit(&mut self, len: usize) {
        if len > self.cap {
            self.base = if self.cap == 0 {
                sys::map(len)
            } else {
                sys::remap(self.base, self.cap, len)
            };
            self.cap = len;
        }
        self.len = len;
    }

    /// The whole mapping, `len` and beyond.
    fn mapping(&self) -> &[u8] {
        if self.cap == 0 {
            return &[];
        }
        // SAFETY: `base` is valid for `cap` initialised bytes for as
        // long as `self` lives.
        unsafe { slice::from_raw_parts(self.base.as_ptr(), self.cap) }
    }
}

impl Drop for Frames {
    fn drop(&mut self) {
        if self.cap != 0 {
            sys::unmap(self.base, self.cap);
        }
    }
}

#[cfg(not(target_os = "linux"))]
use heap as sys;
#[cfg(target_os = "linux")]
use mapped as sys;

/// Private anonymous mappings.
#[cfg(target_os = "linux")]
mod mapped {
    use std::ffi::{c_int, c_void};
    use std::ptr::{self, NonNull};

    // <sys/mman.h>, Linux.
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MREMAP_MAYMOVE: c_int = 1;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn mremap(
            old: *mut c_void,
            old_len: usize,
            new_len: usize,
            flags: c_int,
            ...
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    fn checked(base: *mut c_void, what: &str, len: usize) -> NonNull<u8> {
        assert!(
            base != MAP_FAILED,
            "{what} of {len} bytes of page frames failed"
        );
        NonNull::new(base.cast()).expect("the kernel mapped the null page")
    }

    /// A new zero-filled mapping of `len` (non-zero) bytes.
    pub(super) fn map(len: usize) -> NonNull<u8> {
        // SAFETY: a new anonymous private mapping at an address the
        // kernel chooses aliases no existing memory.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        checked(base, "mmap", len)
    }

    /// The mapping of `old` bytes at `base` grown to `new`, moved if it
    /// must be; the added bytes are zero.
    pub(super) fn remap(base: NonNull<u8>, old: usize, new: usize) -> NonNull<u8> {
        // SAFETY: `base` and `old` are a mapping `map` or `remap` made,
        // owned by the caller, with no borrow of it left.
        let moved = unsafe { mremap(base.as_ptr().cast(), old, new, MREMAP_MAYMOVE) };
        checked(moved, "mremap", new)
    }

    pub(super) fn unmap(base: NonNull<u8>, len: usize) {
        // SAFETY: as in `remap`; nothing uses the range afterwards.
        unsafe { munmap(base.as_ptr().cast(), len) };
    }
}

/// Elsewhere, page-aligned zeroed blocks of the global allocator. Unit
/// tests build it on Linux too (`heap_blocks_grow_with_a_zero_tail`),
/// so CI compiles and runs it although no job runs elsewhere.
#[cfg(any(not(target_os = "linux"), test))]
mod heap {
    use std::alloc::{self, Layout};
    use std::ptr::NonNull;

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, crate::PAGE_SIZE).expect("a frame's layout")
    }

    pub(super) fn map(len: usize) -> NonNull<u8> {
        // SAFETY: `len` is non-zero.
        let base = unsafe { alloc::alloc_zeroed(layout(len)) };
        NonNull::new(base).unwrap_or_else(|| alloc::handle_alloc_error(layout(len)))
    }

    pub(super) fn remap(base: NonNull<u8>, old: usize, new: usize) -> NonNull<u8> {
        // SAFETY: `base` is a block of `layout(old)` from `map` or
        // `remap`; the bytes past `old` are zeroed before any use.
        unsafe {
            let grown = alloc::realloc(base.as_ptr(), layout(old), new);
            let grown =
                NonNull::new(grown).unwrap_or_else(|| alloc::handle_alloc_error(layout(new)));
            grown.as_ptr().add(old).write_bytes(0, new - old);
            grown
        }
    }

    pub(super) fn unmap(base: NonNull<u8>, len: usize) {
        // SAFETY: `base` is a block of `layout(len)` with no borrow left.
        unsafe { alloc::dealloc(base.as_ptr(), layout(len)) };
    }
}

impl Deref for Frames {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `base` is valid for `len <= cap` initialised bytes
        // (zeroed by the kernel) for as long as `self` lives; a
        // dangling `base` has `len` 0.
        unsafe { slice::from_raw_parts(self.base.as_ptr(), self.len) }
    }
}

impl DerefMut for Frames {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        unsafe { slice::from_raw_parts_mut(self.base.as_ptr(), self.len) }
    }
}

impl Clone for Frames {
    fn clone(&self) -> Frames {
        let mut copy = Frames::zeroed(self.len());
        copy.copy_from_slice(self);
        copy
    }
}

impl std::fmt::Debug for Frames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Frames[{} B of {} B]", self.len, self.cap)
    }
}

/// Serialises the unit tests that use the process-wide pool.
#[cfg(test)]
pub(crate) static TEST_SERIAL: Mutex<()> = Mutex::new(());

/// How many frames the pool holds, and the whole mapping of slot
/// `slot`'s (`None` while it holds none for `slot`) — copied, since the
/// frame stays in the pool.
#[cfg(test)]
pub(crate) fn pool_contents(slot: usize) -> (usize, Option<Vec<u8>>) {
    let pool = pool();
    let held = pool.get(slot).and_then(Option::as_ref);
    (
        pool.iter().flatten().count(),
        held.map(|f| f.mapping().to_vec()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> MutexGuard<'static, ()> {
        TEST_SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Debug builds refuse to hand out a pooled frame that is not all
    /// zero — its tail past the length last asked for included: a frame
    /// given back dirty is caught at its next use.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "handed out with stale bytes")]
    fn a_stale_frame_is_caught_when_handed_out() {
        let _serial = serial();
        let len = 3 * crate::PAGE_SIZE;
        let mut f = Frames::recycled(len, 0);
        f[len - 1] = 1;
        f.recycle(0);
        let _ = Frames::recycled(crate::PAGE_SIZE, 0);
    }

    /// A frame keeps its mapping for a shorter request and grows it in
    /// place for a longer one; either way what it shows is `len` bytes
    /// and the whole mapping reads zero.
    #[test]
    fn a_frame_keeps_its_mapping_down_and_grows_it_up() {
        let _serial = serial();
        let page = crate::PAGE_SIZE;
        Frames::recycled(8 * page, 5).recycle(5);
        let small = Frames::recycled(2 * page, 5);
        assert_eq!((small.len(), small.cap), (2 * page, 8 * page));
        small.recycle(5);
        let big = Frames::recycled(32 * page, 5);
        assert_eq!((big.len(), big.cap), (32 * page, 32 * page));
        assert!(is_zero(big.mapping()));
        big.recycle(5);
    }

    #[test]
    fn frames_start_zeroed_and_hold_what_is_written() {
        for len in [0, crate::PAGE_SIZE, 32 * crate::PAGE_SIZE] {
            let mut f = Frames::zeroed(len);
            assert_eq!((f.len(), f.cap), (len, len));
            assert!(f.iter().all(|&b| b == 0));
            let Some(last) = len.checked_sub(1) else {
                continue;
            };
            f[last] = 9;
            let g = f.clone();
            f[0] = 1;
            assert_eq!(g[last], 9);
            assert_eq!(g[0], 0, "a clone is a copy, not a view");
        }
    }

    /// The heap arm (frames elsewhere than Linux): a block starts zero,
    /// and growing it keeps what was written and zeroes the added bytes.
    #[test]
    fn heap_blocks_grow_with_a_zero_tail() {
        let page = crate::PAGE_SIZE;
        let base = heap::map(2 * page);
        assert_eq!(base.as_ptr() as usize % page, 0, "page-aligned");
        // SAFETY: `base` is a block of `2 * page` bytes, then of
        // `8 * page` after `remap`; no borrow outlives either.
        unsafe {
            let block = slice::from_raw_parts_mut(base.as_ptr(), 2 * page);
            assert!(is_zero(block));
            block.fill(7);
            let grown = heap::remap(base, 2 * page, 8 * page);
            assert_eq!(grown.as_ptr() as usize % page, 0, "page-aligned");
            let block = slice::from_raw_parts(grown.as_ptr(), 8 * page);
            assert!(block[..2 * page].iter().all(|&b| b == 7));
            assert!(is_zero(&block[2 * page..]));
            heap::unmap(grown, 8 * page);
        }
    }
}
