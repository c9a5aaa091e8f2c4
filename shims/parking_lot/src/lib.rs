//! Offline stand-in for the `parking_lot` crate (no registry access):
//! `Mutex` and `MutexGuard` over [`std::sync::Mutex`] — on Linux already
//! a futex word with an inlinable fast path — with parking_lot's
//! semantics: locks are **not poisoned** by panics (the engine has its
//! own poison protocol). Every lock in `adsm-core`, `adsm-engine` and
//! `adsm-mempage` is this type: the hook for a lock-granular explorer.
//!
//! Plus one thing parking_lot lacks, [`Mutex::hold`]: a thread that is
//! known to be the only one locking — the simulator's carrier — takes
//! std's mutex once, for real, and while its [`Hold`] lives its own
//! `lock()`s are *leases*: compare the holder token, set a flag, clear
//! it on drop (≈ 1 ns a pair against ≈ 17 ns); a lease that meets the
//! flag set is a self-deadlock and panics saying so. Other threads'
//! `lock()`s are std's plus one relaxed load, and block behind the hold.
//! This is `std::sync::ReentrantLock<RefCell<T>>` (unstable,
//! rust-lang/rust#121440) until that stabilises; the `unsafe` it costs
//! is in `mutex.rs` (DESIGN.md §Offline dependency shims).

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod mutex;

pub use mutex::{Hold, Mutex, MutexGuard};

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc, Barrier};
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

    /// What a test's caught panic said.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| "?".into(), |s| s.to_string()),
        }
    }

    #[test]
    fn a_hold_leases_to_its_thread_and_blocks_every_other() {
        let m = Mutex::new(0u32);
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            let hold = m.hold();
            for _ in 0..3 {
                *m.lock() += 1;
            }
            assert_eq!(m.try_lock().as_deref(), Some(&3));
            s.spawn(|| assert!(m.try_lock().is_none())).join().unwrap();
            let waiter = {
                let tx = tx.clone();
                let m = &m;
                s.spawn(move || {
                    tx.send("locking").unwrap();
                    let seen = *m.lock();
                    tx.send("locked").unwrap();
                    seen
                })
            };
            assert_eq!(rx.recv(), Ok("locking"));
            // The waiter is in, or on its way into, std's `lock()`, which
            // this thread owns: it comes back only once the hold is gone,
            // and then sees this write too.
            *m.lock() += 1;
            tx.send("dropping").unwrap();
            drop(hold);
            assert_eq!(waiter.join().unwrap(), 4);
            assert_eq!(rx.try_iter().collect::<Vec<_>>(), ["dropping", "locked"]);
        });
        // Unheld again: this thread is back on the OS path.
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }

    #[test]
    fn a_second_lock_under_a_hold_is_a_reported_reentry() {
        let m = Mutex::new(());
        let _hold = m.hold();
        let g = m.lock();
        assert!(m.try_lock().is_none());
        let again = catch_unwind(AssertUnwindSafe(|| drop(m.lock()))).unwrap_err();
        assert!(message(again).contains("re-entry"));
        let rehold = catch_unwind(AssertUnwindSafe(|| drop(m.hold()))).unwrap_err();
        assert!(message(rehold).contains("re-entry"));
        // Neither attempt disturbed the lease that is out.
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn leased_and_os_increments_add_up() {
        const OTHERS: u64 = 7;
        const HOLDS: u64 = 4;
        const PER_HOLD: u64 = 1_000;
        for _round in 0..50 {
            let m = Mutex::new(0u64);
            let start = Barrier::new(OTHERS as usize + 1);
            thread::scope(|s| {
                for _ in 0..OTHERS {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..PER_HOLD {
                            *m.lock() += 1;
                        }
                    });
                }
                s.spawn(|| {
                    start.wait();
                    for _ in 0..HOLDS {
                        let _hold = m.hold();
                        for _ in 0..PER_HOLD {
                            *m.lock() += 1;
                        }
                    }
                });
            });
            assert_eq!(m.into_inner(), (OTHERS + HOLDS) * PER_HOLD);
        }
    }

    #[test]
    fn a_hold_dropped_under_its_lease_never_unlocks() {
        let m = Mutex::new(5);
        let hold = m.hold();
        let mut lease = m.lock();
        let dropped = catch_unwind(AssertUnwindSafe(move || drop(hold))).unwrap_err();
        assert!(message(dropped).contains("Hold dropped"));
        *lease += 1;
        assert_eq!(*lease, 6);
        let locked_out = || thread::scope(|s| s.spawn(|| m.try_lock().is_none()).join().unwrap());
        assert!(locked_out());
        drop(lease);
        assert!(locked_out());
    }

    /// Implemented once for a type that lacks the auto trait and twice
    /// for one that has it, so `<T as NotSend<_>>::check` compiles only
    /// for the former (the `static_assertions` trick).
    trait NotSend<A> {
        fn check() {}
    }
    impl<T: ?Sized> NotSend<()> for T {}
    impl<T: ?Sized + Send> NotSend<u8> for T {}
    trait NotSync<A> {
        fn check() {}
    }
    impl<T: ?Sized> NotSync<()> for T {}
    impl<T: ?Sized + Sync> NotSync<u8> for T {}

    #[test]
    fn guards_and_holds_stay_on_their_thread() {
        <Hold<'static, u8> as NotSend<_>>::check();
        <MutexGuard<'static, u8> as NotSend<_>>::check();
        // A guard derefs to `&T`: sharing one shares the `T`.
        <MutexGuard<'static, Cell<u8>> as NotSync<_>>::check();
        fn sync<T: Sync>() {}
        sync::<Mutex<Cell<u8>>>();
        sync::<MutexGuard<'static, u8>>();
    }
}
