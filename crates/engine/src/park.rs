//! The engine's one wake primitive for tasks that have a thread each: a
//! thread handle per task, slept on with `thread::park` and woken with
//! `unpark`. (The coroutines of `Engine::run`'s carrier thread never
//! sleep; they switch — see the `coro` module.)
//!
//! A task's wait condition lives under the scheduler's mutex, is changed
//! only under it, and the one task concerned is then [`Parkers::wake`]d. A
//! waiter records its thread while it still holds the mutex, so a waker
//! that changed the condition either ran before the waiter's test (which
//! then sees the change) or after the handle was recorded (and finds
//! it). `unpark` leaves a token when its target is not parked yet, which
//! closes the window between the waiter's unlock and its `park`.

#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};

use parking_lot::{Mutex, MutexGuard};

pub(crate) struct Parkers {
    /// The thread driving each task, set the first time the task waits.
    /// A task woken before that has not parked: it finds its condition
    /// already true when it arrives.
    threads: Box<[OnceLock<Thread>]>,
    /// Calls to [`Parkers::wake`] (broadcasts are not counted).
    #[cfg(test)]
    pub(crate) wakes_issued: AtomicUsize,
    /// Returns from `thread::park` that found the condition still false
    /// (a broadcast, a wake nobody needed, a spurious return).
    #[cfg(test)]
    pub(crate) wakeups_not_active: AtomicUsize,
}

impl Parkers {
    pub(crate) fn new(ntasks: usize) -> Self {
        Parkers {
            threads: (0..ntasks).map(|_| OnceLock::new()).collect(),
            #[cfg(test)]
            wakes_issued: AtomicUsize::new(0),
            #[cfg(test)]
            wakeups_not_active: AtomicUsize::new(0),
        }
    }

    /// Wakes task `id`. Call after releasing the mutex its condition
    /// lives under, so the woken thread does not run into it.
    pub(crate) fn wake(&self, id: usize) {
        #[cfg(test)]
        self.wakes_issued.fetch_add(1, Ordering::Relaxed);
        if let Some(thread) = self.threads[id].get() {
            thread.unpark();
        }
    }

    /// Wakes every task that has ever waited (poison, deadlock).
    pub(crate) fn wake_all(&self) {
        for thread in self.threads.iter().filter_map(OnceLock::get) {
            thread.unpark();
        }
    }

    /// Sleeps the calling thread, which drives task `me`, until `ready`
    /// holds under `lock`: unlock → wake `next` → park → relock →
    /// recheck.
    ///
    /// `next` is a task the caller has just handed, under `guard`, the
    /// very thing `ready` tests for. `ready` is then known to be false
    /// and is not tested before the first park, so the token of the wake
    /// that hands it back is always consumed by this park — a token left
    /// over would cost some later park one fruitless return (never a
    /// missed wake: the condition is rechecked under the lock each time).
    pub(crate) fn wait_until<'a, T>(
        &self,
        me: usize,
        next: Option<usize>,
        lock: &'a Mutex<T>,
        guard: MutexGuard<'a, T>,
        ready: impl Fn(&T) -> bool,
    ) -> MutexGuard<'a, T> {
        self.threads[me].get_or_init(thread::current);
        if next.is_none() && ready(&guard) {
            return guard;
        }
        drop(guard);
        if let Some(next) = next {
            self.wake(next);
        }
        loop {
            thread::park();
            let guard = lock.lock();
            if ready(&guard) {
                return guard;
            }
            #[cfg(test)]
            self.wakeups_not_active.fetch_add(1, Ordering::Relaxed);
        }
    }
}
