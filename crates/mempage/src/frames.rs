//! The byte store behind a [`PagedMemory`](crate::PagedMemory): a
//! zero-filled range which, from [`MAP_MIN`] bytes up, comes from the
//! operating system directly and not from the process heap, and which a
//! run's memories take from and give back to a process-wide pool.
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
//! the run touches is a page fault (2.56 µs on a 2-core x86-64 host,
//! against 0.22 µs to re-zero a page that is already resident), and an
//! 8-processor `Small` matrix takes ≈ 7 000 of them a pass in these
//! frames alone. So a run's frames outlive it: [`Frames::recycled`]
//! hands processor *k* of a run the frame processor *k* of the last run
//! of the same size gave back, with only the pages that run wrote
//! zeroed again ([`Frames::recycle`]). Keying by processor keeps each
//! frame's resident pages the ones its own processor touches anyway; a
//! pool that handed any frame to any processor let every frame grow to
//! the union of all bands (+20 % peak resident set on an 8-processor
//! threads matrix). A request of another size unmaps the whole pool
//! first, so the pool never holds more than one cluster's frames, all
//! of one size.

use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};
use std::slice;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Spaces at least this large are mapped; smaller ones come from the
/// heap. It is the size from which the C allocator maps a block itself
/// until the first such block is freed and its threshold starts to
/// adapt: below it nothing changes, at and above it the adapting stops.
const MAP_MIN: usize = 128 << 10;

/// `len` bytes, zero until written.
pub(crate) struct Frames {
    base: NonNull<u8>,
    len: usize,
    /// `base` is a mapping of `len` bytes to unmap, not a `Box<[u8]>`.
    mapped: bool,
}

// SAFETY: `Frames` owns its bytes exclusively, like the `Box<[u8]>` it
// is when not mapped.
unsafe impl Send for Frames {}
// SAFETY: shared access only reads; writing takes `&mut`.
unsafe impl Sync for Frames {}

/// The frames the last run of one size gave back, by processor slot.
struct FramePool {
    /// Length of every frame held (0 while empty).
    len: usize,
    /// `slots[k]`: processor *k*'s frame, all zero.
    slots: Vec<Option<Frames>>,
}

static POOL: Mutex<FramePool> = Mutex::new(FramePool {
    len: 0,
    slots: Vec::new(),
});

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
fn pool() -> MutexGuard<'static, FramePool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Frames {
    /// `len` zero bytes for processor `slot` of a run: the frame
    /// processor `slot` gave back at the end of the last run of this
    /// size, if the pool still holds it, else a new one. A request of
    /// another size first empties the pool (the frames are unmapped, not
    /// kept), so every frame the pool holds has one length.
    pub(crate) fn recycled(len: usize, slot: usize) -> Frames {
        let (reused, stale) = {
            let mut pool = pool();
            let stale = if pool.len == len {
                Vec::new()
            } else {
                pool.len = len;
                std::mem::take(&mut pool.slots)
            };
            (pool.slots.get_mut(slot).and_then(Option::take), stale)
        };
        // Unmapped outside the lock.
        drop(stale);
        match reused {
            Some(frames) => {
                debug_assert!(
                    is_zero(&frames),
                    "a pooled frame was handed out with stale bytes"
                );
                frames
            }
            None => Frames::zeroed(len),
        }
    }

    /// Gives back processor `slot`'s frame, which the caller has made
    /// all zero again. Kept if the pool holds frames of this length and
    /// none for `slot` yet (a concurrent run of the same size may have
    /// returned one first); otherwise unmapped, after the lock is
    /// released.
    pub(crate) fn recycle(self, slot: usize) {
        let mut pool = pool();
        if pool.len == self.len {
            if pool.slots.len() <= slot {
                pool.slots.resize_with(slot + 1, || None);
            }
            if pool.slots[slot].is_none() {
                pool.slots[slot] = Some(self);
            }
        }
    }

    pub(crate) fn zeroed(len: usize) -> Frames {
        if len >= MAP_MIN {
            if let Some(base) = map_zeroed(len) {
                return Frames {
                    base,
                    len,
                    mapped: true,
                };
            }
        }
        let heap = Box::into_raw(vec![0u8; len].into_boxed_slice());
        Frames {
            base: NonNull::new(heap.cast()).expect("a box is never null"),
            len,
            mapped: false,
        }
    }
}

impl Drop for Frames {
    fn drop(&mut self) {
        if self.mapped {
            unmap(self.base, self.len);
        } else {
            // SAFETY: `zeroed` made `base` from exactly this box, and
            // no borrow of it outlives `self`.
            drop(unsafe {
                Box::from_raw(ptr::slice_from_raw_parts_mut(self.base.as_ptr(), self.len))
            });
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_void};

    // <sys/mman.h>, Linux.
    pub(super) const PROT_READ: c_int = 1;
    pub(super) const PROT_WRITE: c_int = 2;
    pub(super) const MAP_PRIVATE: c_int = 0x02;
    pub(super) const MAP_ANONYMOUS: c_int = 0x20;
    pub(super) const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A new zero-filled mapping of `len` (non-zero) bytes.
#[cfg(target_os = "linux")]
fn map_zeroed(len: usize) -> Option<NonNull<u8>> {
    // SAFETY: a new anonymous private mapping at an address the kernel
    // chooses aliases no existing memory.
    let base = unsafe {
        sys::mmap(
            ptr::null_mut(),
            len,
            sys::PROT_READ | sys::PROT_WRITE,
            sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    assert!(
        base != sys::MAP_FAILED,
        "mmap of {len} bytes of page frames failed"
    );
    Some(NonNull::new(base.cast()).expect("mmap chose the null page"))
}

#[cfg(target_os = "linux")]
fn unmap(base: NonNull<u8>, len: usize) {
    // SAFETY: only `Frames::drop` calls this, with exactly a range
    // `map_zeroed` returned and no borrow of it left.
    unsafe { sys::munmap(base.as_ptr().cast(), len) };
}

/// Elsewhere every space comes from the heap, whatever its size.
#[cfg(not(target_os = "linux"))]
fn map_zeroed(_len: usize) -> Option<NonNull<u8>> {
    None
}

#[cfg(not(target_os = "linux"))]
fn unmap(_base: NonNull<u8>, _len: usize) {
    unreachable!("nothing is mapped on this platform");
}

impl Deref for Frames {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `base` is valid for `len` initialised bytes (zeroed by
        // the kernel or by `vec!`) for as long as `self` lives.
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
        write!(f, "Frames[{} B]", self.len())
    }
}

/// Serialises the unit tests that use the process-wide pool.
#[cfg(test)]
pub(crate) static TEST_SERIAL: Mutex<()> = Mutex::new(());

/// The pool's frame length and how many frames it holds.
#[cfg(test)]
pub(crate) fn pool_contents() -> (usize, usize) {
    let pool = pool();
    (pool.len, pool.slots.iter().flatten().count())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds refuse to hand out a pooled frame that is not all
    /// zero: a frame given back dirty is caught at its next use.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "handed out with stale bytes")]
    fn a_stale_frame_is_caught_when_handed_out() {
        let _serial = TEST_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let len = 3 * crate::PAGE_SIZE;
        let mut f = Frames::recycled(len, 0);
        f[len - 1] = 1;
        f.recycle(0);
        let _ = Frames::recycled(len, 0);
    }

    #[test]
    fn frames_start_zeroed_and_hold_what_is_written_on_either_side_of_the_threshold() {
        for len in [
            0,
            crate::PAGE_SIZE,
            MAP_MIN - crate::PAGE_SIZE,
            MAP_MIN,
            4 * MAP_MIN,
        ] {
            let mut f = Frames::zeroed(len);
            assert_eq!(f.len(), len);
            assert_eq!(f.mapped, cfg!(target_os = "linux") && len >= MAP_MIN);
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
}
