//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to a crates.io registry, so this
//! workspace-local shim provides the slice of the parking_lot API the
//! workspace uses — `Mutex` and `MutexGuard` — as a newtype over
//! [`std::sync::Mutex`], which on Linux already is what parking_lot
//! sells: a futex word with an inlinable compare-and-swap fast path
//! that parks contended lockers in the kernel.
//!
//! What the newtype adds is parking_lot's semantics where they differ
//! from std's: locks are **not poisoned** by panics (a panicking
//! simulated processor must not wedge the others; the engine has its
//! own poison protocol), so `lock` returns the guard, not a `Result`.
//! Every lock in `adsm-core`, `adsm-engine` and `adsm-mempage` goes
//! through this one type, which makes it the place to hook a
//! lock-granular schedule explorer.

#![forbid(unsafe_code)]

use std::sync::{PoisonError, TryLockError};

pub use std::sync::MutexGuard;

/// A mutual-exclusion primitive (no poisoning, like `parking_lot`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the data.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking (parking the thread) until it is
    /// available. A holder that panicked left the data as it was at
    /// the panic; logical tearing is the caller's concern.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_round_trip() {
        let mut m = Mutex::new(1);
        *m.lock() += 1;
        *m.get_mut() += 1;
        assert_eq!(*m.lock(), 3);
        assert_eq!(m.into_inner(), 3);
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
        // parking_lot semantics: no poisoning, the value is still there
        // through every way in.
        assert_eq!(*m.lock(), 7);
        assert_eq!(m.try_lock().as_deref(), Some(&7));
        let mut m = Arc::into_inner(m).expect("the holder thread is gone");
        assert_eq!(*m.get_mut(), 7);
        assert_eq!(m.into_inner(), 7);
    }
}
