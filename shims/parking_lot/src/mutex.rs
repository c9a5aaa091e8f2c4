//! The shim's one file with `unsafe`: two `unsafe impl`, two guard derefs.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::panic::{RefUnwindSafe, UnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{self, PoisonError, TryLockError};

const REENTRY: &str = "parking_lot shim: re-entry — this thread holds the mutex (`hold`) \
and a guard of it is still alive (a coroutine reached a turn point with the guard held?)";

/// The calling thread's token: the address of a thread-local byte —
/// never 0, distinct among live threads, one address computation to read.
#[inline]
fn me() -> usize {
    thread_local!(static ME: u8 = const { 0 });
    ME.with(|me| me as *const u8 as usize)
}

/// A mutex without poisoning that a thread can [`hold`](Mutex::hold).
pub struct Mutex<T: ?Sized> {
    /// Contention, parking and fairness are all std's.
    os: sync::Mutex<()>,
    /// The token of the thread whose [`Hold`] is alive, else 0. A thread
    /// stores its token after locking `os` and 0 before unlocking it, so
    /// a thread that reads its own token here owns `os`; no other
    /// thread's view of the field matters, hence `Relaxed`.
    holder: AtomicUsize,
    /// Under a hold: a leased guard is alive. Only the holder touches it.
    leased: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: as for std's mutex — moving the mutex moves the `T` in `data`
// (`T: Send`); `os` and the two atomics are `Send`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: `data` is reached through `get_mut`/`into_inner` (exclusive by
// type) or through a guard, and at most one guard is alive (see the
// guard's `deref`): a shared mutex passes the `T` from thread to thread,
// never to two at once (`T: Send`, as for std's). `os`, `holder` and
// `leased` are `Sync`.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

// As std's mutex: a panicking holder is the caller's concern (see `lock`).
impl<T: ?Sized> UnwindSafe for Mutex<T> {}
impl<T: ?Sized> RefUnwindSafe for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            os: sync::Mutex::new(()),
            holder: AtomicUsize::new(0),
            leased: AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    fn held_by_me(&self) -> bool {
        let holder = self.holder.load(Relaxed);
        holder != 0 && holder == me()
    }

    /// On the holder thread: the lease, unless it is out. No
    /// read-modify-write — the point of holding.
    #[inline]
    fn lease(&self) -> Option<MutexGuard<'_, T>> {
        if self.leased.load(Relaxed) {
            return None;
        }
        self.leased.store(true, Relaxed);
        Some(self.guard(None))
    }

    fn guard<'a>(&'a self, os: Option<sync::MutexGuard<'a, ()>>) -> MutexGuard<'a, T> {
        MutexGuard {
            lock: self,
            os,
            _borrow: PhantomData,
        }
    }

    /// Acquires the mutex, parking the thread until it is available. A
    /// holder that panicked left the data as it was at the panic. Panics
    /// on the thread that [`hold`](Mutex::hold)s the mutex if a guard is
    /// already alive: the self-deadlock, reported.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if self.held_by_me() {
            return self.lease().expect(REENTRY);
        }
        self.guard(Some(self.os.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self.held_by_me() {
            return self.lease();
        }
        match self.os.try_lock() {
            Ok(os) => Some(self.guard(Some(os))),
            Err(TryLockError::Poisoned(e)) => Some(self.guard(Some(e.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Takes the mutex for the calling thread until the [`Hold`] drops:
    /// meanwhile that thread's `lock()`s are leases — a flag set and
    /// cleared — and every other thread's block on std's mutex as behind
    /// any long holder. Panics if the thread already holds it.
    pub fn hold(&self) -> Hold<'_, T> {
        assert!(!self.held_by_me(), "{REENTRY}");
        let os = self.os.lock().unwrap_or_else(PoisonError::into_inner);
        self.holder.store(me(), Relaxed);
        Hold {
            lock: self,
            os: Some(os),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Exclusive access to a [`Mutex`]'s data, until dropped.
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    /// Unlocks as it drops, keeps this type `!Send`; `None` for a lease.
    os: Option<sync::MutexGuard<'a, ()>>,
    /// A guard is a `&mut T`: `Sync` only if `T` is.
    _borrow: PhantomData<&'a mut T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this is the only guard alive. It wraps std's guard; or
        // it is the lease, taken by a thread that read its own token in
        // `holder` — which equals a thread's token only from its
        // `hold()` to its `Hold`'s drop, both inside that thread's
        // ownership of `os` — and `leased` admits one lease at a time. A
        // `Hold` dropped (or forgotten) with its lease out never unlocks
        // `os`; its token can then only match a later thread at the same
        // TLS address, after this one is gone: still one thread.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as `deref`: the only guard alive, borrowed mutably.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        if self.os.is_none() {
            self.lock.leased.store(false, Relaxed);
        }
    }
}

/// A thread's [`Mutex::hold`]. No access itself: the thread `lock()`s.
#[must_use = "the hold ends when this is dropped"]
pub struct Hold<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    /// `Some` until `drop`; keeps this type `!Send`.
    os: Option<sync::MutexGuard<'a, ()>>,
}

impl<T: ?Sized> Drop for Hold<'_, T> {
    fn drop(&mut self) {
        if self.lock.leased.load(Relaxed) {
            // The data is still borrowed: std's mutex stays locked for
            // good (others block, nobody aliases), and this is a bug.
            std::mem::forget(self.os.take());
            if !std::thread::panicking() {
                panic!("parking_lot shim: a Hold dropped while a guard leased under it is alive");
            }
            return;
        }
        // The token goes first; `os` unlocks when the field drops.
        self.lock.holder.store(0, Relaxed);
    }
}
