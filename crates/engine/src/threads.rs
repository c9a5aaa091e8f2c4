//! The **threads** execution backend: every task runs on its own OS
//! thread with *real* parallelism — no turn points, no global pick loop.
//!
//! Virtual clocks survive (protocol costs are still charged, and
//! wake-up times still honour message latencies) but they no longer
//! order execution: per-task clocks are plain atomics, a turn point is
//! a `fetch_add`, and cross-task charges are `fetch_add`/`fetch_max`.
//! Blocking is a binary **permit** per task: `unblock` deposits the
//! permit under the target's slot mutex and then unparks the target's
//! thread; `block` consumes it, parking the thread (`thread::park`,
//! through the same [`Parkers`] a simulator task on a thread of its
//! own waits for its turn with) only when no permit is pending. Because
//! a waiter enqueues itself under the world lock but parks *after*
//! releasing it, the matching unblock can race ahead of the park — the
//! permit makes that harmless, where the simulator backend could simply
//! assert the target was already blocked.
//!
//! Parking state is **sharded per task**: each task owns a
//! cache-padded slot (clock + permit/parked/done flags under the
//! slot's own mutex), so `unblock` — the hot path of a barrier
//! departure, which at 256 processors fans out 255 wakes — locks only
//! the *target's* slot instead of a cluster-global mutex and wakes
//! only the target's thread. Wakers of distinct targets never contend.
//!
//! Deadlock is detected positionally, as in the simulator: whenever a
//! task parks or finishes and every unfinished task is parked without a
//! permit, nothing can ever wake — the detecting task poisons the
//! cluster and panics [`EngineError::Deadlock`]. Candidate detection is
//! a pair of counters (`parked + done == ntasks`); confirmation is a
//! slow path that locks every slot in ascending order under a single
//! `detect` mutex, so it runs only on the final transition into a
//! fully-parked cluster, never on the wake fast path. (Threads sleeping
//! on a shim mutex are invisible to this detector; the engine only sees
//! its own `block`/`unblock` protocol, which is where application-level
//! deadlocks — lost unlocks, missing barrier arrivals — surface.)

use std::panic;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use adsm_netsim::SimTime;
use parking_lot::{Mutex, MutexGuard};

use crate::park::Parkers;
use crate::sched::{deadlock_message, EngineError, ParkHint};

/// No failure; tasks run freely.
const HEALTHY: u8 = 0;
/// A task panicked elsewhere; parked and yielding tasks must unwind.
const POISONED: u8 = 1;
/// Every unfinished task was parked without a permit.
const DEADLOCKED: u8 = 2;

/// One task's parking state, guarded by its slot's own mutex.
#[derive(Clone, Copy, Default)]
struct SlotState {
    /// A deposited wakeup not yet consumed by a `block`.
    permit: bool,
    /// Task is inside `block`, asleep or about to be.
    parked: bool,
    /// Task returned from its program.
    done: bool,
    /// Why the task parked; only read on deadlock.
    hint: ParkHint,
}

/// Per-task slot, padded to its own cache line(s) so the clock
/// `fetch_add` of one task and the permit handoff of another never
/// false-share.
#[derive(Default)]
#[repr(align(128))]
struct TaskSlot {
    /// Committed virtual time, in ns. Outside the mutex: turn points
    /// are pure atomics and never touch parking state.
    clock: AtomicU64,
    state: Mutex<SlotState>,
}

pub(crate) struct Inner {
    slots: Vec<TaskSlot>,
    park: Parkers,
    /// [`HEALTHY`], [`POISONED`] or [`DEADLOCKED`]; checked lock-free on
    /// the turn-point fast path so a panicking task stops the cluster
    /// promptly, exactly like the simulator's per-turn poison check.
    health: AtomicU8,
    /// Tasks currently inside `block` with `parked` set. Together with
    /// `done_count`, a conservative candidate test: the cluster can
    /// only be deadlocked when `parked + done == ntasks`, and the task
    /// whose increment completes that sum runs the confirming slow
    /// path. `SeqCst` so the completing increment observes all others.
    parked_count: AtomicUsize,
    /// Tasks that returned from their program.
    done_count: AtomicUsize,
    /// Serialises deadlock confirmation. Lock order, everywhere:
    /// `detect`, then slot states in ascending task order, then
    /// `deadlock_detail`.
    detect: Mutex<()>,
    /// The formatted deadlock report, written by the detecting task just
    /// before it flips `health` to [`DEADLOCKED`], so tasks unwinding
    /// from [`Inner::check_health`] repeat the same detailed message.
    deadlock_detail: Mutex<String>,
}

impl Inner {
    pub(crate) fn new(ntasks: usize) -> Self {
        Inner {
            slots: (0..ntasks).map(|_| TaskSlot::default()).collect(),
            park: Parkers::new(ntasks),
            health: AtomicU8::new(HEALTHY),
            parked_count: AtomicUsize::new(0),
            done_count: AtomicUsize::new(0),
            detect: Mutex::new(()),
            deadlock_detail: Mutex::new(String::new()),
        }
    }

    pub(crate) fn clock_ns(&self, id: usize) -> u64 {
        self.slots[id].clock.load(Ordering::Acquire)
    }

    /// Commits `dt` of local virtual time (the threads-mode turn point:
    /// one atomic add, no parking, no scheduling).
    pub(crate) fn commit(&self, id: usize, dt: u64) {
        if dt > 0 {
            self.slots[id].clock.fetch_add(dt, Ordering::AcqRel);
        }
    }

    /// Raises `id`'s committed clock to at least `t` ns.
    pub(crate) fn raise(&self, id: usize, t: u64) {
        self.slots[id].clock.fetch_max(t, Ordering::AcqRel);
    }

    /// The panic half of the turn-point poison check.
    pub(crate) fn check_health(&self) {
        match self.health.load(Ordering::Acquire) {
            HEALTHY => {}
            DEADLOCKED => {
                let report = self.deadlock_detail.lock().clone();
                panic::panic_any(EngineError::Deadlock(report));
            }
            _ => panic::panic_any(EngineError::Poisoned),
        }
    }

    /// True when the counters admit a fully-parked cluster; the caller
    /// must confirm under [`Inner::confirm_deadlock`]. Counter updates
    /// and this read are `SeqCst`, so whichever park/finish completes
    /// the sum is guaranteed to see it.
    fn deadlock_candidate(&self) -> bool {
        self.parked_count.load(Ordering::SeqCst) + self.done_count.load(Ordering::SeqCst)
            >= self.slots.len()
    }

    /// Slow-path confirmation: under `detect`, locks every slot in
    /// ascending order and re-evaluates the exact predicate — every
    /// unfinished task parked with no permit pending. Returns the
    /// parked-task report if the cluster really is stuck, `None` if a
    /// permit or unpark raced the candidate test.
    fn confirm_deadlock(&self) -> Option<Vec<(usize, ParkHint)>> {
        let _d = self.detect.lock();
        let guards: Vec<MutexGuard<'_, SlotState>> =
            self.slots.iter().map(|s| s.state.lock()).collect();
        let mut unfinished = 0usize;
        for g in &guards {
            if g.done {
                continue;
            }
            unfinished += 1;
            if !g.parked || g.permit {
                return None;
            }
        }
        if unfinished == 0 {
            return None;
        }
        Some(
            guards
                .iter()
                .enumerate()
                .filter(|(_, g)| !g.done && g.parked)
                .map(|(i, g)| (i, g.hint))
                .collect(),
        )
    }

    /// Parks the calling task until a permit arrives (consuming it).
    /// Panics [`EngineError::Deadlock`] if parking leaves the cluster
    /// unable to progress, [`EngineError::Poisoned`] if poisoned while
    /// parked.
    pub(crate) fn block(&self, id: usize, hint: ParkHint) {
        let slot = &self.slots[id];
        let mut s = slot.state.lock();
        self.check_health();
        if s.permit {
            // The wakeup raced ahead of the park: consume and continue.
            s.permit = false;
            return;
        }
        s.parked = true;
        s.hint = hint;
        self.parked_count.fetch_add(1, Ordering::SeqCst);
        if self.deadlock_candidate() {
            // Confirmation needs every slot lock; release ours first
            // (the `parked` flag keeps us visible to the detector, and
            // a permit that lands meanwhile is found on re-entry).
            drop(s);
            if let Some(report) = self.confirm_deadlock() {
                let msg = deadlock_message(&report);
                *self.deadlock_detail.lock() = msg.clone();
                self.health.store(DEADLOCKED, Ordering::Release);
                let mut mine = slot.state.lock();
                mine.parked = false;
                mine.hint = ParkHint::Unknown;
                drop(mine);
                self.parked_count.fetch_sub(1, Ordering::SeqCst);
                self.wake_all();
                panic::panic_any(EngineError::Deadlock(msg));
            }
            s = slot.state.lock();
        }
        let mut s = self.park.wait_until(id, None, &slot.state, s, |s| {
            s.permit || self.health.load(Ordering::Acquire) != HEALTHY
        });
        s.parked = false;
        s.hint = ParkHint::Unknown;
        self.parked_count.fetch_sub(1, Ordering::SeqCst);
        if self.health.load(Ordering::Acquire) == HEALTHY {
            s.permit = false;
        } else {
            drop(s);
            self.check_health();
        }
    }

    /// Deposits `other`'s permit (waking it if parked) with its clock
    /// raised to at least `wake_at` ns. Touches only `other`'s slot:
    /// concurrent wakers of distinct targets — a barrier departure's
    /// fan-out — never serialise.
    pub(crate) fn unblock(&self, other: usize, wake_at: u64) {
        self.raise(other, wake_at);
        self.slots[other].state.lock().permit = true;
        self.park.wake(other);
    }

    /// Marks `id` finished. If that strands every remaining task parked
    /// and permitless, the cluster is poisoned so the sleepers unwind —
    /// the same observable outcome as the simulator, where `finish`'s
    /// failed pick poisons and the blocked tasks panic on wake.
    pub(crate) fn finish(&self, id: usize) {
        let mut s = self.slots[id].state.lock();
        s.done = true;
        drop(s);
        self.done_count.fetch_add(1, Ordering::SeqCst);
        if self.deadlock_candidate() && self.confirm_deadlock().is_some() {
            self.health.store(POISONED, Ordering::Release);
            self.wake_all();
        }
    }

    pub(crate) fn poison(&self) {
        self.health.store(POISONED, Ordering::Release);
        self.wake_all();
    }

    /// Wakes every task after a change of `health`, which lives outside
    /// the slot mutexes. Each slot lock is taken first: a waiter tests
    /// `health` while holding its slot lock, so it either sees the new
    /// value or registered its thread before this sweep passed its slot.
    fn wake_all(&self) {
        for slot in &self.slots {
            drop(slot.state.lock());
        }
        self.park.wake_all();
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.health.load(Ordering::Acquire) != HEALTHY
    }

    pub(crate) fn clocks(&self) -> Vec<SimTime> {
        self.slots
            .iter()
            .map(|s| SimTime::from_ns(s.clock.load(Ordering::Acquire)))
            .collect()
    }
}
