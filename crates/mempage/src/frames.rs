//! The byte store behind a [`PagedMemory`](crate::PagedMemory): a
//! zero-filled range which, from [`MAP_MIN`] bytes up, comes from the
//! operating system directly and not from the process heap.
//!
//! A processor's memory is the one large, short-lived block of a run
//! (4 MB a processor for SOR at `Paper`, one per processor per run), and
//! a typical processor touches a band of it. From the heap, what that
//! costs depends on the heap's history: `calloc` hands out untouched
//! zero pages only while it can extend the heap or map afresh, and once
//! a few small blocks freed into the allocator's per-thread caches sit
//! above the previous run's memories the heap neither shrinks nor
//! extends — every later memory is a recycled block, zeroed by hand and
//! so resident in full (+32 MB on an 8-processor SOR run), from
//! whichever run first left its blocks that way. A private anonymous
//! mapping is the same every time: pages become resident as they are
//! touched and all of them go back when the memory is dropped.

use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};
use std::slice;

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

impl Frames {
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

#[cfg(test)]
mod tests {
    use super::*;

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
