//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to a crates.io registry, so this
//! workspace-local shim provides the slice of the parking_lot API the
//! workspace still uses — `Mutex` and `MutexGuard` — with a
//! parking-lot-style implementation: a one-byte atomic lock word with
//! an inlinable compare-and-swap fast path, and a global table of
//! address-hashed **parker buckets** that contended lockers sleep in.
//! The threads execution backend leans on this: a proc that finds the
//! world mutex held parks its OS thread here instead of spinning.
//! (Waiting for a *condition* — a turn, a wake permit — is not this
//! crate's business: the engine parks task threads itself, one
//! `std::thread` handle per task, see `adsm-engine`'s `park` module.)
//!
//! Semantics match parking_lot where they differ from std: locks are not
//! poisoned by panics (a panicking simulated processor must not wedge
//! the others; the engine has its own poison protocol) and the `Mutex`
//! is a single byte.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU8, Ordering};

mod park {
    //! The parker: a static table of buckets, each a `std::sync`
    //! mutex/condvar pair, indexed by the address of the primitive a
    //! thread sleeps on. Hash collisions are benign — wakeups are
    //! broadcast per bucket and every sleeper rechecks its own predicate
    //! under the bucket lock, so a collision costs a spurious recheck,
    //! never a lost wakeup.

    use std::sync::{Condvar, Mutex};

    struct Bucket {
        lock: Mutex<()>,
        cv: Condvar,
    }

    const NBUCKETS: usize = 64;

    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY_BUCKET: Bucket = Bucket {
        lock: Mutex::new(()),
        cv: Condvar::new(),
    };
    static BUCKETS: [Bucket; NBUCKETS] = [EMPTY_BUCKET; NBUCKETS];

    fn bucket(addr: usize) -> &'static Bucket {
        // Fibonacci hashing on the address; primitives are word-aligned
        // so the low bits carry no entropy.
        &BUCKETS[(addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) % NBUCKETS]
    }

    /// Parks the calling thread on `addr` while `keep_parked` holds.
    /// The predicate is evaluated under the bucket lock, which every
    /// unparker also takes before notifying: a wakeup published before
    /// the final predicate check is therefore always observed.
    pub(crate) fn park(addr: usize, mut keep_parked: impl FnMut() -> bool) {
        let b = bucket(addr);
        let mut guard = b.lock.lock().unwrap_or_else(|e| e.into_inner());
        while keep_parked() {
            guard = b.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every thread parked on `addr`'s bucket. Broadcast (rather
    /// than single-wakeup) on purpose: the bucket is shared by hashing,
    /// so waking one thread could pick a collision victim and strand
    /// the intended target.
    pub(crate) fn unpark_all(addr: usize) {
        let b = bucket(addr);
        // Taking the bucket lock orders this notify after any in-flight
        // predicate check, closing the check-then-sleep window.
        let _guard = b.lock.lock().unwrap_or_else(|e| e.into_inner());
        b.cv.notify_all();
    }
}

/// Lock word states of [`Mutex`].
const FREE: u8 = 0;
const LOCKED: u8 = 1;
/// Locked with (possible) sleepers: the unlocker must visit the parker.
const CONTENDED: u8 = 2;

/// A mutual-exclusion primitive (no poisoning, like `parking_lot`).
///
/// One byte of state next to the data: an uncontended lock/unlock is a
/// single compare-and-swap each way; contended paths spin briefly and
/// then park the thread in the global bucket table.
pub struct Mutex<T: ?Sized> {
    state: AtomicU8,
    data: UnsafeCell<T>,
}

// Same bounds as std's Mutex: the data moves between threads under the
// lock word's acquire/release pair.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

// Like std's Mutex (and the real parking_lot): a panic while holding the
// lock cannot leave the lock *word* in a broken state, so observing the
// data after a caught unwind is no less safe than for any &mut-reachable
// value. There is no poisoning; logical tearing is the caller's concern.
impl<T: ?Sized> std::panic::UnwindSafe for Mutex<T> {}
impl<T: ?Sized> std::panic::RefUnwindSafe for Mutex<T> {}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            state: AtomicU8::new(FREE),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking (parking the thread) until it is
    /// available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if self
            .state
            .compare_exchange_weak(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_slow();
        }
        MutexGuard { lock: self }
    }

    #[cold]
    fn lock_slow(&self) {
        // A short spin rides out the frequent case of a holder already
        // on its way out, avoiding the parker round-trip.
        for _ in 0..40 {
            if self.state.load(Ordering::Relaxed) == FREE
                && self
                    .state
                    .compare_exchange_weak(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
        let addr = self as *const _ as *const () as usize;
        loop {
            // Take the lock in one swap, claiming it CONTENDED: if other
            // sleepers exist we cannot tell, so the eventual unlock must
            // visit the parker (a spurious visit is cheap, a skipped one
            // strands a sleeper).
            let prev = self.state.swap(CONTENDED, Ordering::Acquire);
            if prev == FREE {
                return;
            }
            // Lock is held and flagged CONTENDED: sleep until an
            // unlocker broadcasts. The predicate recheck under the
            // bucket lock makes an unlock between the swap above and
            // the park below impossible to miss.
            park::park(addr, || self.state.load(Ordering::Relaxed) == CONTENDED);
        }
    }

    #[inline]
    fn raw_unlock(&self) {
        if self.state.swap(FREE, Ordering::Release) == CONTENDED {
            let addr = self as *const _ as *const () as usize;
            park::unpark_all(addr);
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self
            .state
            .compare_exchange(FREE, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(MutexGuard { lock: self })
        } else {
            None
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw_unlock();
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_respects_holders() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn contended_increments_are_not_lost() {
        // The real contention path: many threads, each forced through
        // lock_slow often enough to park and be unparked.
        let m = Arc::new(Mutex::new(0u64));
        let threads = 8;
        let iters = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    for _ in 0..iters {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), threads * iters);
    }

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poisoning attempt");
        })
        .join();
        // parking_lot semantics: no poisoning, the value is still there.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn many_mutexes_share_buckets_without_crosstalk() {
        // More mutexes than parker buckets: collisions guaranteed. Each
        // pair of threads contends on its own mutex; totals must hold.
        let locks: Arc<Vec<Mutex<u64>>> = Arc::new((0..128).map(|_| Mutex::new(0)).collect());
        let handles: Vec<_> = (0..16)
            .map(|t| {
                let locks = locks.clone();
                thread::spawn(move || {
                    for i in 0..2_000 {
                        *locks[(t * 8 + i) % 128].lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = locks.iter().map(|m| *m.lock()).sum();
        assert_eq!(total, 16 * 2_000);
    }
}
