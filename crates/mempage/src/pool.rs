//! Recycling pool for page-sized byte buffers.
//!
//! The protocol layer's hot paths — twin creation at the first write of
//! an interval, whole-page fetches, lazy-diff materialisation, merge —
//! all need a scratch or retained buffer of exactly [`PAGE_SIZE`] bytes.
//! Allocating those from the global heap puts one `malloc`/`free` pair
//! on every fault and every interval close, which dominates the
//! simulator's per-event constants at scale. A [`PagePool`] keeps the
//! freed buffers and hands them back out: after a short warm-up the
//! steady state performs **zero** heap allocations for page buffers (the
//! `pages_created` counter stops moving; see the `allocation_free`
//! integration test in `adsm-core`).
//!
//! The free list is one mutex-guarded `Vec`. Every draw site in
//! `adsm-core` already runs under the world mutex (and the simulator
//! serves all of them from one carrier thread), so the list's own lock
//! is never contended; it is there because [`PageBuf`]s are dropped
//! wherever their owner dies, and it is the innermost lock of the
//! order world → memory → pool. The simulator's carrier thread holds it
//! for a whole run ([`PagePool::hold`]), which makes each draw and
//! return a flag.
//!
//! [`PageBuf`] is the RAII handle: it derefs to `[u8]`, and dropping it
//! returns the buffer to the pool it came from. Clones draw a fresh
//! buffer from the same pool, so `Clone`-able protocol state (twins,
//! pending diffs) keeps working unchanged. A handle keeps its pool's
//! free list alive, so it may outlive every [`PagePool`] handle.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Hold, Mutex};

use crate::PAGE_SIZE;

type PageBox = Box<[u8; PAGE_SIZE]>;

#[derive(Default)]
struct PoolInner {
    /// Returned buffers, handed back out last in, first out.
    free: Mutex<Vec<PageBox>>,
    /// Buffers ever allocated from the heap (pool misses).
    created: AtomicU64,
    /// Buffers handed out from the free list (pool hits).
    reused: AtomicU64,
}

/// A shared pool of recycled [`PAGE_SIZE`] buffers.
///
/// Cloning the pool is cheap and yields a handle to the same free list.
///
/// # Examples
///
/// ```
/// use adsm_mempage::{PagePool, PAGE_SIZE};
///
/// let pool = PagePool::new();
/// let a = pool.get_zeroed();
/// assert_eq!(a.len(), PAGE_SIZE);
/// assert_eq!(pool.pages_created(), 1);
/// drop(a);
/// let b = pool.get_zeroed(); // recycled, not reallocated
/// assert_eq!(pool.pages_created(), 1);
/// assert_eq!(pool.pages_reused(), 1);
/// drop(b);
/// ```
#[derive(Clone, Default)]
pub struct PagePool {
    inner: Arc<PoolInner>,
}

impl PagePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws a buffer with unspecified contents (recycled bytes or
    /// zeros). Use when the caller overwrites the whole page anyway.
    pub fn get(&self) -> PageBuf {
        // A statement of its own, so the lock is released before a
        // miss goes to the heap.
        let recycled = self.inner.free.lock().pop();
        let buf = match recycled {
            Some(b) => {
                self.inner.reused.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.inner.created.fetch_add(1, Ordering::Relaxed);
                Box::new([0u8; PAGE_SIZE])
            }
        };
        PageBuf {
            buf: Some(buf),
            pool: self.clone(),
        }
    }

    /// Draws a zero-filled buffer.
    pub fn get_zeroed(&self) -> PageBuf {
        let mut b = self.get();
        b.fill(0);
        b
    }

    /// Draws a buffer holding a copy of `src`.
    ///
    /// # Panics
    ///
    /// Panics unless `src` is exactly one page long.
    pub fn get_copy(&self, src: &[u8]) -> PageBuf {
        assert_eq!(src.len(), PAGE_SIZE, "source must be one page");
        let mut b = self.get();
        b.copy_from_slice(src);
        b
    }

    /// Holds the free list for the calling thread ([`Mutex::hold`])
    /// until the returned value drops: its draws and returns are then a
    /// flag each, and every other thread's wait for the drop. For the
    /// simulator's carrier thread, the only one that touches the pool
    /// during a run.
    pub fn hold(&self) -> PoolHold<'_> {
        PoolHold {
            _free: self.inner.free.hold(),
        }
    }

    /// Buffers ever allocated from the heap (pool misses). Flat in
    /// steady state: the working set is served entirely by recycling.
    pub fn pages_created(&self) -> u64 {
        self.inner.created.load(Ordering::Relaxed)
    }

    /// Buffers served from the free list (pool hits).
    pub fn pages_reused(&self) -> u64 {
        self.inner.reused.load(Ordering::Relaxed)
    }

    /// Buffers currently parked on the free list.
    pub fn free_buffers(&self) -> usize {
        self.inner.free.lock().len()
    }
}

/// A thread's hold of a pool's free list ([`PagePool::hold`]).
#[must_use = "the hold ends when this is dropped"]
pub struct PoolHold<'a> {
    _free: Hold<'a, Vec<PageBox>>,
}

impl fmt::Debug for PagePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagePool")
            .field("created", &self.pages_created())
            .field("reused", &self.pages_reused())
            .field("free", &self.free_buffers())
            .finish()
    }
}

/// An owned page buffer on loan from a [`PagePool`].
///
/// Dereferences to a `[u8]` of exactly [`PAGE_SIZE`] bytes; dropping the
/// handle returns the buffer to its pool's free list. Cloning draws a
/// new buffer from the same pool and copies the contents.
pub struct PageBuf {
    /// `Some` for the handle's whole life; taken only in `Drop`.
    buf: Option<PageBox>,
    /// The pool the buffer returns to.
    pool: PagePool,
}

impl PageBuf {
    #[inline]
    fn bytes(&self) -> &[u8; PAGE_SIZE] {
        self.buf.as_ref().expect("buffer present until drop")
    }

    #[inline]
    fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Deref for PageBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.bytes()[..]
    }
}

impl DerefMut for PageBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.bytes_mut()[..]
    }
}

impl AsRef<[u8]> for PageBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Clone for PageBuf {
    fn clone(&self) -> Self {
        self.pool.get_copy(self)
    }
}

impl Drop for PageBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.inner.free.lock().push(buf);
        }
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageBuf[{} B]", PAGE_SIZE)
    }
}

impl PartialEq for PageBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for PageBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_through_the_pool() {
        let pool = PagePool::new();
        let a = pool.get_copy(&[7u8; PAGE_SIZE]);
        let b = pool.get();
        assert_eq!(pool.pages_created(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.free_buffers(), 2);
        let c = pool.get();
        assert_eq!(pool.pages_created(), 2, "no fresh allocation");
        assert_eq!(pool.pages_reused(), 1);
        drop(c);
    }

    #[test]
    fn clone_copies_contents_via_the_same_pool() {
        let pool = PagePool::new();
        let mut a = pool.get_zeroed();
        a[10] = 42;
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b[10], 42);
        assert_eq!(pool.pages_created(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn get_copy_rejects_short_sources() {
        let pool = PagePool::new();
        let r = std::panic::catch_unwind(|| pool.get_copy(&[0u8; 8]));
        assert!(r.is_err());
    }

    #[test]
    fn works_with_diff_encode() {
        let pool = PagePool::new();
        let twin = pool.get_zeroed();
        let mut cur = twin.clone();
        cur[0] = 9;
        let d = crate::Diff::encode(&twin, &cur);
        assert_eq!(d.modified_bytes(), crate::WORD_SIZE);
        let mut merged = pool.get_copy(&twin);
        d.apply(&mut merged);
        assert_eq!(merged, cur);
    }

    #[test]
    fn buffers_dropped_on_another_thread_come_back_without_allocation() {
        let pool = PagePool::new();
        let bufs: Vec<_> = (0..8).map(|_| pool.get()).collect();
        let created = pool.pages_created();
        std::thread::spawn(move || drop(bufs))
            .join()
            .expect("worker thread");
        assert_eq!(pool.free_buffers(), 8);
        let again: Vec<_> = (0..8).map(|_| pool.get()).collect();
        assert_eq!(pool.pages_created(), created, "recycled, not reallocated");
        assert_eq!(pool.pages_reused(), 8);
        drop(again);
    }

    #[test]
    fn a_buffer_outlives_every_pool_handle() {
        let pool = PagePool::new();
        let mut a = pool.get_zeroed();
        drop(pool);
        a[3] = 5;
        let b = a.clone();
        assert_eq!(b[3], 5);
        // The free list is still there to take the first buffer, and
        // goes away with the last.
        drop(a);
        let c = b.clone();
        assert_eq!(c, b);
    }
}
