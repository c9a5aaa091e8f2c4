use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use adsm_netsim::SimTime;
use parking_lot::{Mutex, MutexGuard};

use crate::coro;
use crate::park::Parkers;

/// Index of a task (simulated processor) within an [`Engine`].
pub type TaskId = usize;

/// What a task panics with when the engine, not the task's own program,
/// ends it: the payload of the panic is a value of this type
/// (`payload.downcast_ref::<EngineError>()`), so whoever catches it can
/// tell the task that found a deadlock from the ones that merely
/// unwound, and both from a panic of the program's own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Every unfinished task is blocked: the simulated program
    /// deadlocked. Carries the report — a headline, then every parked
    /// task with what it waits on.
    Deadlock(String),
    /// The engine was poisoned (a task failed elsewhere).
    Poisoned,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Deadlock(report) => f.write_str(report),
            EngineError::Poisoned => f.write_str("engine poisoned by a failing task"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Why [`Engine::run`] did not run every task to completion.
#[derive(Debug)]
pub enum RunFailure {
    /// A task blocked, or finished, with nothing left runnable and
    /// tasks still blocked. Carries the report of
    /// [`EngineError::Deadlock`].
    Deadlock(String),
    /// A task panicked: the payload of the first panic that was not an
    /// [`EngineError::Poisoned`] echo of another failure — or that echo
    /// itself when the run was poisoned from outside
    /// ([`Engine::poison`]) or by a task that finished while others
    /// were blocked for good.
    Panic(Box<dyn Any + Send>),
}

/// What a caught panic said: the text of an [`EngineError`], of a
/// `panic!` message, or "unknown panic" for any other payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(err) = payload.downcast_ref::<EngineError>() {
        return err.to_string();
    }
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

/// What a task is about to park on — declared through
/// [`Task::block_on`] so a deadlock report can say *why* each stuck
/// task is stuck (a lost lock grant and a missing barrier arrival need
/// very different debugging).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParkHint {
    /// Blocked without further detail ([`Task::block`]).
    #[default]
    Unknown,
    /// Waiting for the grant of the lock with this id.
    Lock(u64),
    /// Waiting for the barrier to complete.
    Barrier,
    /// Waiting for the page with this index to arrive.
    Page(u64),
}

impl fmt::Display for ParkHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParkHint::Unknown => f.write_str("an unannounced wakeup"),
            ParkHint::Lock(id) => write!(f, "lock {id}"),
            ParkHint::Barrier => f.write_str("the barrier"),
            ParkHint::Page(id) => write!(f, "page {id}"),
        }
    }
}

/// Formats the deadlock report: the classic headline followed by one
/// clause per parked task.
pub(crate) fn deadlock_message(parked: &[(TaskId, ParkHint)]) -> String {
    use fmt::Write;
    let mut msg = String::from("all simulated processors are blocked");
    for (i, (id, hint)) in parked.iter().enumerate() {
        msg.push_str(if i == 0 { ": " } else { "; " });
        let _ = write!(msg, "task {id} waiting on {hint}");
    }
    msg
}

/// How the one scheduler hands out the processor. Everything else —
/// statuses, clocks, blocking, poisoning, the deadlock test — is shared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Policy {
    /// One Active task at a time, least (clock, id) or a seeded draw: the
    /// simulator, on either carrier.
    Turns,
    /// Every task is Active from the start and never Ready; an unblocked
    /// task goes straight back to Active: one OS thread per task.
    Free,
}

impl Policy {
    /// Cells of [`Clocks`] from one task's clock to the next one's. Under
    /// `Free` any thread may charge any clock at any time, so they sit a
    /// cache-line pair apart; under `Turns` they are dense, for
    /// [`Sched::least_ready`]'s scan.
    const fn clock_stride(self) -> usize {
        match self {
            Policy::Turns => 1,
            Policy::Free => 128 / size_of::<AtomicU64>(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Wants to run; will be picked when its clock is minimal.
    Ready,
    /// Executing: the single such task under [`Policy::Turns`].
    Active,
    /// Waiting for another task to unblock it.
    Blocked,
    /// Returned from its program.
    Done,
}

/// Committed virtual clocks, in ns: one atomic cell per task, outside
/// the scheduler's mutex, so that a clock is read and charged without
/// it. A handle is a pointer to the cells and the engine's policy, which
/// says how they are laid out and written; every [`Task`] carries one.
#[derive(Clone)]
struct Clocks {
    cells: Arc<[AtomicU64]>,
    policy: Policy,
}

impl Clocks {
    fn new(ntasks: usize, policy: Policy) -> Self {
        let cells = ntasks * policy.clock_stride();
        Clocks {
            cells: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            policy,
        }
    }

    #[inline]
    fn cell(&self, id: TaskId) -> &AtomicU64 {
        &self.cells[id * self.policy.clock_stride()]
    }

    #[inline]
    fn get(&self, id: TaskId) -> u64 {
        self.cell(id).load(Ordering::Acquire)
    }

    /// Adds `dt` to `id`'s clock. Under [`Policy::Turns`] only the Active
    /// task writes clocks, and the turn — with every write made during
    /// it — is handed on through the scheduler's mutex: a plain load and
    /// store. Under [`Policy::Free`] writers race: a read-modify-write,
    /// `AcqRel` against [`Clocks::get`]'s `Acquire`.
    #[inline]
    fn add(&self, id: TaskId, dt: u64) {
        let cell = self.cell(id);
        match self.policy {
            Policy::Turns => cell.store(cell.load(Ordering::Relaxed) + dt, Ordering::Relaxed),
            Policy::Free if dt > 0 => drop(cell.fetch_add(dt, Ordering::AcqRel)),
            Policy::Free => {}
        }
    }

    /// Raises `id`'s clock to at least `t`; as [`Clocks::add`].
    #[inline]
    fn raise(&self, id: TaskId, t: u64) {
        let cell = self.cell(id);
        match self.policy {
            Policy::Turns => cell.store(cell.load(Ordering::Relaxed).max(t), Ordering::Relaxed),
            Policy::Free => drop(cell.fetch_max(t, Ordering::AcqRel)),
        }
    }
}

#[derive(Debug)]
struct Sched {
    status: Vec<Status>,
    /// Why each Blocked task parked; only read on deadlock.
    hints: Vec<ParkHint>,
    /// [`Policy::Free`] only: an [`Task::unblock`] that found its target
    /// not Blocked yet; the target's next [`Task::block`] consumes it
    /// instead of parking.
    permit: Vec<bool>,
    /// Numbers of `Status::Ready` and `Status::Active` entries,
    /// maintained on every status transition so that neither the pick
    /// path nor the deadlock test rebuilds a list.
    ready: usize,
    active: usize,
    /// `None`: deterministic least-(clock, id) scheduling (the calibrated
    /// virtual-time mode). `Some(state)`: seeded pseudo-random choice
    /// among Ready tasks — schedule-fuzzing mode for robustness tests.
    fuzz: Option<u64>,
    /// [`Engine::run`] has been called: statuses only move forward, so
    /// there is no second run.
    ran: bool,
}

/// splitmix64 step, the engine's only randomness source (fuzz mode).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Sched {
    fn new(ntasks: usize, fuzz: Option<u64>, policy: Policy) -> Self {
        let (first, ready, active) = match policy {
            Policy::Turns => (Status::Ready, ntasks, 0),
            Policy::Free => (Status::Active, 0, ntasks),
        };
        Sched {
            status: vec![first; ntasks],
            hints: vec![ParkHint::Unknown; ntasks],
            permit: vec![false; ntasks],
            ready,
            active,
            fuzz,
            ran: false,
        }
    }

    /// Sets task `i`'s status, keeping the cached counts exact.
    #[inline]
    fn set_status(&mut self, i: usize, s: Status) {
        self.ready -= (self.status[i] == Status::Ready) as usize;
        self.ready += (s == Status::Ready) as usize;
        self.active -= (self.status[i] == Status::Active) as usize;
        self.active += (s == Status::Active) as usize;
        self.status[i] = s;
    }

    /// Least (clock, id) among the Ready tasks: the deterministic pick.
    /// One allocation-free scan over `status` and the clocks.
    fn least_ready(&self, clocks: &Clocks) -> Option<(u64, TaskId)> {
        let mut best: Option<(u64, TaskId)> = None;
        for (i, &s) in self.status.iter().enumerate() {
            if s == Status::Ready {
                let key = (clocks.get(i), i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best
    }

    /// Picks the next Ready task — least (clock, id) normally, seeded
    /// random in fuzz mode (a scan to the k-th Ready entry in index
    /// order) — makes it Active and returns it: the one task the caller
    /// must wake. `None` when nothing is Ready, which under
    /// [`Policy::Free`] is always.
    fn pick_next(&mut self, clocks: &Clocks) -> Option<TaskId> {
        debug_assert!(self.ready == 0 || self.active == 0, "pick during a turn");
        let count = |s| self.status.iter().filter(|&&t| t == s).count();
        debug_assert_eq!(
            (self.ready, self.active),
            (count(Status::Ready), count(Status::Active)),
            "cached status counts out of sync"
        );
        if self.ready == 0 {
            return None;
        }
        let next = match &mut self.fuzz {
            Some(state) => {
                let k = (splitmix64(state) % self.ready as u64) as usize;
                self.status
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| s == Status::Ready)
                    .nth(k)
                    .map(|(i, _)| i)
                    .expect("k-th ready task exists")
            }
            None => {
                self.least_ready(clocks)
                    .expect("ready > 0 implies a minimum")
                    .1
            }
        };
        self.set_status(next, Status::Active);
        Some(next)
    }

    /// The turn-point decision of the Active task `me`, in one scan: the
    /// task the turn goes to (made Active, `me` made Ready), or `None`
    /// when `me` simply keeps it — because nothing else is Ready or no
    /// Ready task has a smaller (clock, id). In fuzz mode every turn
    /// point is a draw among `me` and the Ready tasks, which may well
    /// return `me`.
    fn yield_from(&mut self, me: TaskId, clocks: &Clocks) -> Option<TaskId> {
        if self.ready == 0 {
            return None;
        }
        if self.fuzz.is_some() {
            self.set_status(me, Status::Ready);
            return self.pick_next(clocks);
        }
        let (clock, next) = self.least_ready(clocks)?;
        if (clock, next) >= (clocks.get(me), me) {
            return None;
        }
        self.set_status(me, Status::Ready);
        self.set_status(next, Status::Active);
        Some(next)
    }

    /// Nothing Ready, nothing Active, something Blocked: no task will
    /// ever run again. The one deadlock test, made under either policy by
    /// the task that blocks or finishes last.
    fn stuck(&self) -> bool {
        self.ready == 0 && self.active == 0 && self.status.contains(&Status::Blocked)
    }

    /// Every Blocked task with its park hint — the deadlock report.
    fn parked_tasks(&self) -> Vec<(TaskId, ParkHint)> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == Status::Blocked)
            .map(|(i, _)| (i, self.hints[i]))
            .collect()
    }
}

struct Inner {
    sched: Mutex<Sched>,
    park: Parkers,
    clocks: Clocks,
    /// Set under `sched`, and tested under it by every task that is
    /// about to sleep, so that [`Inner::poison`]'s broadcast after the
    /// unlock finds the thread of each one that missed the flag. The
    /// `Release` store pairs with the `Acquire` load of a task that
    /// tests it without the mutex ([`Policy::Free`]'s turn point).
    poisoned: AtomicBool,
}

impl Inner {
    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn check_poison(&self) {
        if self.is_poisoned() {
            panic::panic_any(EngineError::Poisoned);
        }
    }

    /// Poisons the engine and wakes every sleeper to unwind.
    fn poison(&self, s: MutexGuard<'_, Sched>) {
        self.poisoned.store(true, Ordering::Release);
        drop(s);
        self.park.wake_all();
    }

    /// Waits for `me`'s turn. `next` is the task that has just been made
    /// Active under `s`, if any: unless that is `me` it gets the turn,
    /// and `me` waits until it is Active again or the engine is
    /// poisoned. This is the one place the two carriers differ. A task
    /// on a thread of its own releases the lock, wakes exactly that
    /// task's thread and parks. A coroutine of [`Engine::run`]'s carrier
    /// thread releases the lock and switches to it; it is resumed only
    /// once the scheduler has picked it again, or to unwind.
    fn await_turn(
        &self,
        s: MutexGuard<'_, Sched>,
        me: TaskId,
        next: Option<TaskId>,
        on_carrier: bool,
    ) {
        let next = next.filter(|&next| next != me);
        if !on_carrier {
            drop(self.park.wait_until(me, next, &self.sched, s, |s| {
                s.status[me] == Status::Active || self.is_poisoned()
            }));
        } else {
            drop(s);
            if let Some(next) = next {
                coro::switch(me, next);
            }
            debug_assert!(
                self.is_poisoned() || self.sched.lock().status[me] == Status::Active,
                "resumed out of turn"
            );
        }
        self.check_poison();
    }

    /// Coroutine `me` is over, finished or unwound: the one to resume in
    /// its place. Normally the scheduler's pick. Once the engine is
    /// poisoned — by a failure, or here, because `me` was the last that
    /// could have woken the Blocked ones — it is any task that is not
    /// Done, so that each unwinds to its own entry frame and drops what
    /// it holds; `None` when every task is Done.
    fn after(&self, me: TaskId) -> Option<TaskId> {
        let mut s = self.sched.lock();
        // A task that unwound never reached `finish`.
        s.set_status(me, Status::Done);
        if s.stuck() {
            // Nobody sleeps on the carrier: the flag is all there is to it.
            self.poisoned.store(true, Ordering::Release);
        }
        if !self.is_poisoned() {
            return s.pick_next(&self.clocks);
        }
        s.status.iter().position(|&status| status != Status::Done)
    }
}

/// The shared scheduler for a cluster of simulated processors.
///
/// Create one engine per run and hand [`Engine::run`] the program every
/// processor executes. (Or obtain one [`Task`] per processor with
/// [`Engine::task`] and drive each from a thread of your own.) See the
/// crate-level documentation for the execution model.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
    ntasks: usize,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("ntasks", &self.ntasks)
            .finish()
    }
}

impl Engine {
    /// Creates an engine for `ntasks` simulated processors.
    ///
    /// # Panics
    ///
    /// Panics if `ntasks` is zero.
    pub fn new(ntasks: usize) -> Self {
        Self::build(ntasks, None, Policy::Turns)
    }

    /// Creates a **schedule-fuzzing** engine: at every turn point the
    /// next task is chosen pseudo-randomly (seeded, so runs remain
    /// reproducible) among the runnable ones instead of by least virtual
    /// clock. Every fuzzed schedule is a causally valid execution —
    /// blocking, unblocking and wake-up times are still honoured — so
    /// data-race-free programs must compute identical results under any
    /// seed. Virtual-time *measurements* from fuzzed runs are not
    /// meaningful; the mode exists for robustness tests.
    ///
    /// # Panics
    ///
    /// Panics if `ntasks` is zero.
    pub fn with_fuzz_seed(ntasks: usize, seed: u64) -> Self {
        Self::build(ntasks, Some(seed), Policy::Turns)
    }

    /// Creates a **threads-backend** engine: every task runs freely on
    /// its own OS thread. Virtual clocks are still maintained and
    /// blocking still parks the thread until a matching
    /// [`Task::unblock`], but turn points no longer serialise execution
    /// and the schedule is whatever the OS delivers — measurements are
    /// host-parallel, reproducibility is gone. The simulator backends
    /// above remain the oracle; see the crate-level documentation for
    /// what the two share.
    ///
    /// # Panics
    ///
    /// Panics if `ntasks` is zero.
    pub fn threaded(ntasks: usize) -> Self {
        Self::build(ntasks, None, Policy::Free)
    }

    fn build(ntasks: usize, fuzz: Option<u64>, policy: Policy) -> Self {
        assert!(ntasks > 0, "an engine needs at least one task");
        Engine {
            inner: Arc::new(Inner {
                sched: Mutex::new(Sched::new(ntasks, fuzz, policy)),
                park: Parkers::new(ntasks),
                clocks: Clocks::new(ntasks, policy),
                poisoned: AtomicBool::new(false),
            }),
            ntasks,
        }
    }

    /// Number of tasks in this engine.
    pub fn ntasks(&self) -> usize {
        self.ntasks
    }

    /// Is this the free-running threads backend (as opposed to the
    /// deterministic simulator)?
    pub fn is_threaded(&self) -> bool {
        self.inner.clocks.policy == Policy::Free
    }

    /// Creates the handle for task `id`, to be driven from a thread the
    /// caller owns: [`Task::begin`], the program, [`Task::finish`]. Each
    /// id must be driven by exactly one thread, and all of them this
    /// way — [`Engine::run`] makes its own handles.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> Task {
        self.task_on(id, false)
    }

    fn task_on(&self, id: TaskId, on_carrier: bool) -> Task {
        assert!(id < self.ntasks, "task id {id} out of range");
        Task {
            inner: self.inner.clone(),
            clocks: self.inner.clocks.clone(),
            id,
            local: 0,
            on_carrier,
        }
    }

    /// Runs `body` once per task, to completion: the engine calls
    /// [`Task::begin`], hands `body` the task, and calls
    /// [`Task::finish`] on the task `body` gives back. An engine runs
    /// once.
    ///
    /// The simulator runs one task at a time, so its tasks need no
    /// kernel thread each: they are coroutines on a single carrier
    /// thread spawned for the run, and a turn handoff is a user-space
    /// stack switch (see the crate-level documentation). Where there is
    /// no switch routine for the target, and on the threads backend,
    /// every task gets a scoped thread of its own instead. Nothing
    /// selects between the two but the backend and the target; the
    /// schedule is the same under both.
    ///
    /// # Errors
    ///
    /// [`RunFailure::Deadlock`] when the program deadlocked,
    /// [`RunFailure::Panic`] when a task panicked. Either way every
    /// task has unwound and dropped what `body` had given it by the
    /// time this returns. A second run of one engine is a
    /// [`RunFailure::Panic`] that starts no task.
    pub fn run<F>(&self, body: F) -> Result<(), RunFailure>
    where
        F: Fn(Task) -> Task + Sync,
    {
        self.run_within(|go| go(), body)
    }

    /// [`Engine::run`] with the carrier thread's part of it bracketed by
    /// the caller: where the tasks are coroutines of one carrier thread,
    /// `scope` is called once, on that thread, with `go` — which runs
    /// every task to completion — and what `scope` sets up around its
    /// call of `go` lasts exactly as long as the tasks do, on the one
    /// thread they all run on. That is where a caller takes
    /// [`Mutex::hold`]s of the locks its tasks share, as the engine does
    /// with its own scheduler lock: under them a `lock()` is a flag, and
    /// a task that reaches a turn point with a guard alive fails the run
    /// with the shim's re-entry panic instead of hanging the carrier.
    /// Where every task has a thread of its own (the threads backend,
    /// targets without a switch routine) `scope` is never called.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`]; a panic of `scope` itself is a
    /// [`RunFailure::Panic`] too, and so is a `scope` that returns
    /// without having called `go` exactly once.
    pub fn run_within<S, F>(&self, scope: S, body: F) -> Result<(), RunFailure>
    where
        S: FnOnce(&mut dyn FnMut()) + Send,
        F: Fn(Task) -> Task + Sync,
    {
        let inner = &*self.inner;
        // Statuses only move forward: the tasks of a second run would
        // wait for a turn that Done tasks are never given.
        if std::mem::replace(&mut inner.sched.lock().ran, true) {
            return Err(RunFailure::Panic(Box::new(
                "an Engine runs once: make a new one for another run",
            )));
        }
        // One task's whole life; a failure poisons the engine so that
        // the rest of the cluster unwinds instead of waiting for it.
        let run_task = |id: TaskId, on_carrier: bool| {
            panic::catch_unwind(AssertUnwindSafe(|| {
                let mut task = self.task_on(id, on_carrier);
                task.begin();
                body(task).finish();
            }))
            .inspect_err(|_| self.poison())
        };
        let coroutines = inner.clocks.policy == Policy::Turns && coro::AVAILABLE;
        let mut payloads: Vec<Box<dyn Any + Send>> = if coroutines {
            let carrier = || {
                // In the order the tasks failed.
                let payloads = RefCell::new(Vec::new());
                // Every task's every `sched.lock()` happens on this
                // thread from here on: a lease, not a futex.
                let _sched = inner.sched.hold();
                let mut runs = 0;
                scope(&mut || {
                    runs += 1;
                    let first = inner.sched.lock().pick_next(&inner.clocks);
                    let first = first.expect("an engine that has not run has a Ready task");
                    // No unwind may leave a coroutine's entry: all of
                    // them end in `run_task`'s `catch_unwind`.
                    coro::run(self.ntasks, first, &|id| {
                        let failed = run_task(id, true).err();
                        payloads.borrow_mut().extend(failed);
                        inner.after(id)
                    });
                });
                assert_eq!(runs, 1, "run_within's scope calls `go` exactly once");
                payloads.into_inner()
            };
            // A thread of the run's own, not the caller's: the
            // run's allocations then come from an arena of their
            // own instead of piling onto the caller's heap.
            thread::scope(|s| {
                let carrier = thread::Builder::new()
                    .name("adsm-carrier".into())
                    .spawn_scoped(s, carrier)
                    .expect("spawning the carrier thread");
                // Only `scope` can have unwound the carrier.
                carrier.join().unwrap_or_else(|payload| vec![payload])
            })
        } else {
            thread::scope(|s| {
                let tasks: Vec<_> = (0..self.ntasks)
                    .map(|id| s.spawn(move || run_task(id, false)))
                    .collect();
                // In task order.
                tasks
                    .into_iter()
                    .filter_map(|task| task.join().expect("run_task catches").err())
                    .collect()
            })
        };
        if payloads.is_empty() {
            return Ok(());
        }
        let cause = payloads
            .iter()
            .position(|p| p.downcast_ref() != Some(&EngineError::Poisoned))
            .unwrap_or(0);
        Err(match payloads.swap_remove(cause).downcast() {
            Ok(err) => match *err {
                EngineError::Deadlock(report) => RunFailure::Deadlock(report),
                EngineError::Poisoned => RunFailure::Panic(err),
            },
            Err(payload) => RunFailure::Panic(payload),
        })
    }

    /// Committed virtual clock of a task (meaningful once the task has
    /// finished or is parked at a turn point).
    pub fn clock(&self, id: TaskId) -> SimTime {
        SimTime::from_ns(self.inner.clocks.get(id))
    }

    /// Committed clocks of all tasks.
    pub fn clocks(&self) -> Vec<SimTime> {
        (0..self.ntasks).map(|id| self.clock(id)).collect()
    }

    /// Poisons the engine: every parked or blocked task will panic with
    /// [`EngineError::Poisoned`]. Called when a task thread panics so the
    /// rest of the cluster does not hang.
    pub fn poison(&self) {
        self.inner.poison(self.inner.sched.lock());
    }

    /// Has the engine been poisoned (deadlock or task panic)?
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

/// Per-processor handle onto the [`Engine`].
///
/// A task advances its virtual clock with [`Task::advance`] and offers
/// turn points with [`Task::yield_turn`]. Before the first of them comes
/// one [`Task::begin`] and after the last one [`Task::finish`]:
/// [`Engine::run`] makes both calls around the body it is given, a
/// caller driving a handle from [`Engine::task`] on its own thread makes
/// them itself.
pub struct Task {
    inner: Arc<Inner>,
    /// The engine's clocks again: this task's own cell is read at every
    /// [`Task::clock`], one pointer away from here.
    clocks: Clocks,
    id: TaskId,
    /// Locally accumulated (uncommitted) virtual time.
    local: u64,
    /// This task is a coroutine of [`Engine::run`]'s carrier thread, and
    /// waits for its turn by switching to the task that has it;
    /// otherwise it has a thread of its own, and parks.
    on_carrier: bool,
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("local", &self.local)
            .finish()
    }
}

impl Task {
    /// This task's id.
    #[inline]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Accumulates `dt` of local virtual time (application compute or
    /// protocol handling cost). Cheap: no locking; committed at the next
    /// turn point.
    #[inline]
    pub fn advance(&mut self, dt: SimTime) {
        self.local += dt.as_ns();
    }

    /// Commits the local time to this task's clock.
    #[inline]
    fn commit(&mut self) {
        self.clocks.add(self.id, std::mem::take(&mut self.local));
    }

    /// Raises this task's clock to at least `t` (used when an operation
    /// completes at an absolute virtual time, e.g. a message arrival).
    pub fn advance_to(&mut self, t: SimTime) {
        let committed = self.clocks.get(self.id);
        let target = t.as_ns();
        if committed + self.local < target {
            self.local = target - committed;
        }
    }

    /// Current virtual clock (committed + local).
    pub fn clock(&self) -> SimTime {
        SimTime::from_ns(self.clocks.get(self.id) + self.local)
    }

    /// First turn acquisition; blocks until this task is scheduled.
    /// (Threads backend: every task is, from the start.)
    ///
    /// # Panics
    ///
    /// Panics with [`EngineError`] if the engine is poisoned.
    pub fn begin(&mut self) {
        let inner = &*self.inner;
        let mut s = inner.sched.lock();
        // A poison that came before this thread was known to the parker
        // woke nobody on its behalf; any later one will.
        inner.check_poison();
        // If nothing is active yet, elect a first task.
        let elected = if s.active > 0 {
            None
        } else {
            s.pick_next(&self.clocks)
        };
        inner.await_turn(s, self.id, elected, self.on_carrier);
    }

    /// Turn point: commits local time and, if another runnable task has a
    /// smaller virtual clock, parks this task and runs that one. Returns
    /// once this task is scheduled again. (Threads backend: nobody waits
    /// for a turn, so that is the commit and a look at the poison flag,
    /// without the scheduler's lock.)
    ///
    /// # Panics
    ///
    /// Panics with [`EngineError`] if the engine is poisoned while
    /// waiting.
    pub fn yield_turn(&mut self) {
        self.commit();
        let inner = &*self.inner;
        if self.clocks.policy == Policy::Free {
            return inner.check_poison();
        }
        let mut s = inner.sched.lock();
        debug_assert_eq!(s.status[self.id], Status::Active, "yield outside turn");
        let next = s.yield_from(self.id, &self.clocks);
        inner.await_turn(s, self.id, next, self.on_carrier);
    }

    /// Blocks this task until another task calls [`Task::unblock`] for
    /// it. Commits local time first. Used for lock waits and barriers.
    ///
    /// # Panics
    ///
    /// Panics with [`EngineError::Deadlock`] if blocking leaves no
    /// runnable task, or with [`EngineError::Poisoned`] if the engine is
    /// poisoned while blocked.
    pub fn block(&mut self) {
        self.block_on(ParkHint::Unknown);
    }

    /// [`Task::block`] with a declared reason: the hint is attached to
    /// this task while it is parked, and a deadlock panic lists every
    /// parked task with its hint — so a lost lock grant reads
    /// "task 2 waiting on lock 5" instead of a bare headline.
    ///
    /// # Panics
    ///
    /// As [`Task::block`].
    pub fn block_on(&mut self, hint: ParkHint) {
        self.commit();
        let inner = &*self.inner;
        let mut s = inner.sched.lock();
        debug_assert_eq!(s.status[self.id], Status::Active, "block outside turn");
        inner.check_poison();
        if std::mem::take(&mut s.permit[self.id]) {
            // The wake-up came first.
            return;
        }
        s.hints[self.id] = hint;
        s.set_status(self.id, Status::Blocked);
        if s.stuck() {
            // This task found the deadlock and carries the report out;
            // every other one wakes to the poison and unwinds.
            let report = deadlock_message(&s.parked_tasks());
            inner.poison(s);
            panic::panic_any(EngineError::Deadlock(report));
        }
        let next = s.pick_next(&self.clocks);
        inner.await_turn(s, self.id, next, self.on_carrier);
    }

    /// Makes a blocked task runnable again, with its clock raised to at
    /// least `wake_at`. Simulator backends: may only be called by the
    /// active task (i.e. during a turn), and the unblocked task runs
    /// when its clock is minimal. Threads backend: the target runs at
    /// once — and since a waiter enqueues itself under its caller's lock
    /// but blocks after releasing it, the call may legitimately come
    /// before the target's own [`Task::block`]: it then leaves a permit,
    /// which that `block` consumes without parking.
    ///
    /// # Panics
    ///
    /// Panics if `other` is not blocked (simulator backends only; the
    /// threads backend cannot distinguish not-yet-blocked from
    /// never-blocking).
    pub fn unblock(&self, other: TaskId, wake_at: SimTime) {
        self.clocks.raise(other, wake_at.as_ns());
        let inner = &*self.inner;
        let mut s = inner.sched.lock();
        let blocked = s.status[other] == Status::Blocked;
        match self.clocks.policy {
            Policy::Turns => {
                assert!(blocked, "unblock of a task that is not blocked");
                s.set_status(other, Status::Ready);
            }
            Policy::Free if blocked => {
                s.set_status(other, Status::Active);
                drop(s);
                inner.park.wake(other);
            }
            Policy::Free => s.permit[other] = true,
        }
    }

    /// Raises another task's committed clock to at least `t` (e.g. a
    /// service interrupt consumed its CPU). No effect on Done tasks'
    /// scheduling.
    pub fn raise_clock(&mut self, other: TaskId, t: SimTime) {
        self.clocks.raise(other, t.as_ns());
    }

    /// Adds `dt` to another task's committed clock.
    pub fn bump_clock(&mut self, other: TaskId, dt: SimTime) {
        self.clocks.add(other, dt.as_ns());
    }

    /// Committed clock of any task (for protocol decisions such as
    /// ownership quanta). Threads backend: a racy snapshot — another
    /// task may be holding uncommitted local time.
    pub fn clock_of(&self, other: TaskId) -> SimTime {
        SimTime::from_ns(self.clocks.get(other))
    }

    /// Marks this task finished and schedules the next one.
    pub fn finish(&mut self) {
        self.commit();
        let inner = &*self.inner;
        let mut s = inner.sched.lock();
        debug_assert_eq!(s.status[self.id], Status::Active, "finish outside turn");
        s.set_status(self.id, Status::Done);
        if self.on_carrier {
            // The turn is passed on from the coroutine's entry frame
            // (`Inner::after`), once the program's frames and what they
            // hold are gone: this stack is never resumed after that.
            return;
        }
        if s.stuck() {
            // The rest are Blocked for good: they must all unwind.
            return inner.poison(s);
        }
        let next = s.pick_next(&self.clocks);
        drop(s);
        if let Some(next) = next {
            inner.park.wake(next);
        }
    }
}

/// Exercises the scheduler's pick path in isolation: `rounds` iterations
/// of pick → advance the picked task's clock → back to Ready, over
/// `ntasks` tasks (seeded-random pick when `fuzz` is set). Returns a
/// checksum of the picked ids so the work cannot be optimised away.
///
/// A benchmark hook (`benchmark/src/micro.rs` times it as
/// `engine.pick*`), not part of the public execution model.
#[doc(hidden)]
pub fn sched_pick_rounds(ntasks: usize, fuzz: Option<u64>, rounds: usize) -> u64 {
    let clocks = Clocks::new(ntasks, Policy::Turns);
    let mut s = Sched::new(ntasks, fuzz, Policy::Turns);
    let mut sum = 0u64;
    for r in 0..rounds {
        let Some(picked) = s.pick_next(&clocks) else {
            break;
        };
        clocks.add(picked, 1 + (r as u64 % 7));
        sum = sum.wrapping_add(picked as u64);
        s.set_status(picked, Status::Ready);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    /// Runs `program` — a whole task, `begin` to `finish` — for every
    /// task of `engine`, each on its own thread, spawned in `order`. A
    /// panicking task poisons the engine, as `adsm-core` does. Returns
    /// every panic message, in task order.
    fn spawn_all<F>(engine: &Engine, order: impl Iterator<Item = TaskId>, program: F) -> Vec<String>
    where
        F: Fn(&mut Task) + Send + Sync + 'static,
    {
        let program = Arc::new(program);
        let mut joins: Vec<_> = order
            .map(|id| {
                let mut task = engine.task(id);
                let program = program.clone();
                let eng = engine.clone();
                let join = thread::spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        program(&mut task)
                    }));
                    if let Err(payload) = result {
                        eng.poison();
                        std::panic::resume_unwind(payload);
                    }
                });
                (id, join)
            })
            .collect();
        joins.sort_by_key(|&(id, _)| id);
        joins
            .into_iter()
            .filter_map(|(_, join)| join.join().err())
            .map(|payload| panic_message(&*payload))
            .collect()
    }

    /// [`spawn_all`] in id order, with `begin` and `finish` around
    /// `body`.
    fn run_all<F>(engine: &Engine, body: F) -> Vec<String>
    where
        F: Fn(&mut Task) + Send + Sync + 'static,
    {
        spawn_all(engine, 0..engine.ntasks(), move |t| {
            t.begin();
            body(t);
            t.finish();
        })
    }

    /// [`run_all`]; Err with the last panic message if any task
    /// panicked.
    fn run_on<F>(engine: &Engine, body: F) -> Result<(), String>
    where
        F: Fn(&mut Task) + Send + Sync + 'static,
    {
        run_all(engine, body).last().cloned().map_or(Ok(()), Err)
    }

    /// [`run_on`] a fresh deterministic engine of `n` tasks, returned
    /// for inspection.
    fn run_tasks<F>(n: usize, body: F) -> Result<Engine, String>
    where
        F: Fn(&mut Task) + Send + Sync + 'static,
    {
        let engine = Engine::new(n);
        run_on(&engine, body).map(|()| engine)
    }

    /// `(wakes_issued, wakeups_not_active)` of an engine.
    fn wake_counts(engine: &Engine) -> (usize, usize) {
        let park = &engine.inner.park;
        (
            park.wakes_issued.load(Ordering::Relaxed),
            park.wakeups_not_active.load(Ordering::Relaxed),
        )
    }

    /// The engines whose tasks block, wake, finish, deadlock and unwind
    /// by one mechanism: a test that does not assert a schedule takes
    /// the policy as one more input.
    const BOTH: [fn(usize) -> Engine; 2] = [Engine::new, Engine::threaded];

    #[test]
    fn single_task_runs_to_completion() {
        let engine = run_tasks(1, |t| {
            t.advance(SimTime::from_us(5));
            t.yield_turn();
            t.advance(SimTime::from_us(5));
        })
        .unwrap();
        assert_eq!(engine.clock(0), SimTime::from_us(10));
    }

    #[test]
    fn equal_clocks_alternate_by_id() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        run_tasks(2, move |t| {
            for _ in 0..3 {
                t.advance(SimTime::from_us(10));
                t.yield_turn();
                o.lock().push(t.id());
            }
        })
        .unwrap();
        // Both advance equally; ties go to the lower id, so they
        // alternate deterministically.
        assert_eq!(&*order.lock(), &[0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn slower_task_yields_more_turns_to_faster() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        run_tasks(2, move |t| {
            let dt = if t.id() == 0 { 30 } else { 10 };
            for _ in 0..2 {
                t.advance(SimTime::from_us(dt));
                t.yield_turn();
                o.lock().push((t.id(), t.clock().as_us() as u64));
            }
        })
        .unwrap();
        // Task 1 reaches clocks 10 and 20 before task 0 reaches 30.
        assert_eq!(&*order.lock(), &[(1, 10), (1, 20), (0, 30), (0, 60)]);
    }

    #[test]
    fn block_and_unblock() {
        // Task 1 blocks; task 0 unblocks it at 500us.
        for make in BOTH {
            let engine = make(2);
            run_on(&engine, |t| {
                if t.id() == 1 {
                    t.block();
                    // Woken at >= 500us.
                    assert!(t.clock() >= SimTime::from_us(500));
                } else {
                    t.advance(SimTime::from_us(100));
                    t.yield_turn();
                    t.unblock(1, SimTime::from_us(500));
                }
            })
            .unwrap();
            assert!(engine.clock(1) >= SimTime::from_us(500));
        }
    }

    /// A deadlock is one task's to report: the rest unwind poisoned.
    fn assert_one_report(failed: &[String], parked: &[(TaskId, ParkHint)]) {
        let report = deadlock_message(parked);
        assert_eq!(failed.len(), parked.len(), "{failed:?}");
        assert_eq!(
            failed.iter().filter(|m| **m == report).count(),
            1,
            "{failed:?}"
        );
        assert_eq!(poisoned_count(failed), parked.len() - 1, "{failed:?}");
    }

    #[test]
    fn deadlock_is_detected() {
        let failed = run_all(&Engine::new(2), |t| {
            t.block(); // nobody will ever unblock anyone
        });
        assert_one_report(&failed, &[(0, ParkHint::Unknown), (1, ParkHint::Unknown)]);
    }

    #[test]
    fn deadlock_message_lists_parked_tasks_with_hints() {
        assert_eq!(
            deadlock_message(&[]),
            "all simulated processors are blocked"
        );
        assert_eq!(
            deadlock_message(&[(2, ParkHint::Lock(5))]),
            "all simulated processors are blocked: task 2 waiting on lock 5"
        );
        assert_eq!(
            deadlock_message(&[
                (0, ParkHint::Lock(3)),
                (1, ParkHint::Barrier),
                (4, ParkHint::Page(17)),
                (7, ParkHint::Unknown),
            ]),
            "all simulated processors are blocked: \
             task 0 waiting on lock 3; \
             task 1 waiting on the barrier; \
             task 4 waiting on page 17; \
             task 7 waiting on an unannounced wakeup"
        );
    }

    #[test]
    fn deadlock_report_carries_park_hints() {
        for make in BOTH {
            let failed = run_all(&make(2), |t| {
                if t.id() == 0 {
                    t.block_on(ParkHint::Lock(9));
                } else {
                    t.advance(SimTime::from_us(10));
                    t.yield_turn();
                    t.block_on(ParkHint::Barrier);
                }
            });
            // The task that detects the deadlock reports both parked
            // tasks; the other unwinds with the poison echo.
            assert_one_report(&failed, &[(0, ParkHint::Lock(9)), (1, ParkHint::Barrier)]);
        }
    }

    #[test]
    fn raise_and_bump_clock() {
        let engine = run_tasks(2, |t| {
            if t.id() == 0 {
                t.yield_turn();
                t.raise_clock(1, SimTime::from_us(50));
                t.bump_clock(1, SimTime::from_us(25));
                t.advance(SimTime::from_us(200));
                t.yield_turn();
            } else {
                // Park at a turn point long enough for task 0 to act.
                t.advance(SimTime::from_us(100));
                t.yield_turn();
            }
        })
        .unwrap();
        // Task 1: committed 0 when bumped (raise to 50, +25), then +100.
        assert_eq!(engine.clock(1), SimTime::from_us(175));
    }

    #[test]
    fn determinism_across_runs() {
        fn one_run() -> Vec<(usize, u64)> {
            let order = Arc::new(Mutex::new(Vec::new()));
            let o = order.clone();
            run_tasks(4, move |t| {
                // Pseudo-random but seeded-by-id compute pattern.
                let mut x = t.id() as u64 + 1;
                for _ in 0..20 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    t.advance(SimTime::from_ns(x % 10_000));
                    t.yield_turn();
                    o.lock().push((t.id(), t.clock().as_ns()));
                }
            })
            .unwrap();
            let v = order.lock().clone();
            v
        }
        assert_eq!(one_run(), one_run());
    }

    fn fuzz_order(seed: u64) -> Vec<usize> {
        let engine = Engine::with_fuzz_seed(3, seed);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        run_on(&engine, move |t| {
            for _ in 0..10 {
                t.advance(SimTime::from_us(10));
                t.yield_turn();
                o.lock().push(t.id());
            }
        })
        .unwrap();
        let v = order.lock().clone();
        v
    }

    #[test]
    fn fuzzed_schedules_complete_and_commit_all_time() {
        let engine = Engine::with_fuzz_seed(4, 7);
        run_on(&engine, |t| {
            for _ in 0..20 {
                t.advance(SimTime::from_us(5));
                t.yield_turn();
            }
        })
        .unwrap();
        for id in 0..4 {
            assert_eq!(engine.clock(id), SimTime::from_us(100));
        }
    }

    #[test]
    fn fuzzed_schedule_is_reproducible_per_seed() {
        assert_eq!(fuzz_order(42), fuzz_order(42));
    }

    #[test]
    fn fuzz_seeds_change_the_schedule() {
        // Not guaranteed for adversarial seeds, but these differ (and the
        // deterministic least-clock order differs from both).
        let a = fuzz_order(1);
        let b = fuzz_order(2);
        assert_ne!(a, b, "seeds 1 and 2 happened to coincide");
    }

    #[test]
    fn fuzzed_blocking_still_honours_wakeups() {
        let engine = Engine::with_fuzz_seed(2, 3);
        run_on(&engine, |t| {
            if t.id() == 1 {
                t.block();
                assert!(t.clock() >= SimTime::from_us(500));
            } else {
                t.advance(SimTime::from_us(100));
                t.yield_turn();
                t.unblock(1, SimTime::from_us(500));
            }
        })
        .unwrap();
    }

    #[test]
    fn advance_to_raises_clock() {
        let engine = run_tasks(1, |t| {
            t.advance(SimTime::from_us(10));
            t.advance_to(SimTime::from_us(300));
            t.advance_to(SimTime::from_us(200)); // no-op, already later
        })
        .unwrap();
        assert_eq!(engine.clock(0), SimTime::from_us(300));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_rejected() {
        let _ = Engine::new(0);
    }

    #[test]
    fn threaded_tasks_run_in_parallel_and_commit_time() {
        let engine = Engine::threaded(4);
        assert!(engine.is_threaded());
        run_on(&engine, |t| {
            for _ in 0..50 {
                t.advance(SimTime::from_us(2));
                t.yield_turn();
            }
        })
        .unwrap();
        for id in 0..4 {
            assert_eq!(engine.clock(id), SimTime::from_us(100));
        }
    }

    #[test]
    fn threaded_wakeups_racing_their_blocks_are_never_lost() {
        // Two tasks pass one wake-up back and forth, each firing as soon
        // as it has been woken: an unblock finds its target parked,
        // about to park, or not in block() yet. No round may hang or
        // lose the wake-up.
        let engine = Engine::threaded(2);
        run_on(&engine, |t| {
            let peer = 1 - t.id();
            for round in 0..500u64 {
                if t.id() == 0 {
                    t.unblock(peer, SimTime::from_ns(round));
                    t.block();
                } else {
                    t.block();
                    t.unblock(peer, SimTime::from_ns(round));
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn an_unblock_ahead_of_its_block_is_a_permit_when_free_and_a_panic_in_turns() {
        // A waiter enqueues itself under its caller's lock and blocks
        // after releasing it; with every task running, the wake-up can
        // come in between. It is kept, and the block never parks.
        let engine = Engine::threaded(2);
        let (tx, rx) = mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        run_on(&engine, move |t| {
            if t.id() == 0 {
                t.unblock(1, SimTime::from_us(500));
                tx.lock().send(()).expect("task 1 is listening");
            } else {
                rx.lock().recv().expect("task 0 has unblocked");
                t.block();
                assert!(t.clock() >= SimTime::from_us(500));
            }
        })
        .unwrap();
        assert_eq!(wake_counts(&engine), (0, 0), "nobody slept");
        // With one task running at a time the target of a wake-up has
        // always blocked already: anything else is a protocol bug.
        let failed = run_all(&Engine::new(2), |t| {
            if t.id() == 0 {
                t.unblock(1, SimTime::from_us(500));
            }
        });
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed[0].contains("unblock of a task that is not blocked"));
        assert_eq!(poisoned_count(&failed), 1, "{failed:?}");
    }

    #[test]
    fn threaded_deadlock_is_detected() {
        let failed = run_all(&Engine::threaded(2), |t| {
            t.block(); // nobody will ever unblock anyone
        });
        assert_one_report(&failed, &[(0, ParkHint::Unknown), (1, ParkHint::Unknown)]);
    }

    #[test]
    fn threaded_finish_with_parked_peer_poisons() {
        // Task 0 finishes once task 1 is parked for good: nobody found a
        // deadlock by blocking, so the cluster unwinds poisoned, as it
        // does when a simulator task finishes past blocked peers.
        let engine = Engine::threaded(2);
        let inner = engine.inner.clone();
        let failed = run_all(&engine, move |t| {
            if t.id() == 1 {
                t.block();
            }
            while inner.sched.lock().status[1] != Status::Blocked {
                thread::yield_now();
            }
        });
        assert_eq!(failed, [EngineError::Poisoned.to_string()]);
    }

    #[test]
    fn threaded_cross_clock_charges_are_not_lost() {
        // Every task bumps every other task's clock concurrently;
        // fetch_add must not lose updates.
        let engine = Engine::threaded(4);
        run_on(&engine, |t| {
            for _ in 0..1_000 {
                for other in 0..4 {
                    if other != t.id() {
                        t.bump_clock(other, SimTime::from_ns(1));
                    }
                }
            }
        })
        .unwrap();
        for id in 0..4 {
            assert_eq!(engine.clock(id), SimTime::from_ns(3_000));
        }
    }

    #[test]
    fn finished_tasks_release_the_cluster() {
        // Even tasks finish at once; the odd ones keep running (handing
        // the turn among themselves, where there is one).
        for make in BOTH {
            let engine = make(64);
            run_on(&engine, |t| {
                if t.id() % 2 == 1 {
                    for _ in 0..5 {
                        t.advance(SimTime::from_us(10));
                        t.yield_turn();
                    }
                }
            })
            .unwrap();
            for id in 0..64 {
                let want = if id % 2 == 1 { 50 } else { 0 };
                assert_eq!(engine.clock(id), SimTime::from_us(want), "task {id}");
            }
        }
    }

    /// Tasks `1..` block; task 0 — on the simulator parked at a turn
    /// point until they have — then runs `last_act`.
    fn strand_peers(engine: &Engine, last_act: fn(&mut Task)) -> Vec<String> {
        run_all(engine, move |t| {
            if t.id() == 0 {
                t.advance(SimTime::from_us(100));
                t.yield_turn();
                last_act(t);
            } else {
                t.block_on(ParkHint::Barrier);
            }
        })
    }

    fn poisoned_count(failed: &[String]) -> usize {
        let poisoned = EngineError::Poisoned.to_string();
        failed.iter().filter(|m| **m == poisoned).count()
    }

    #[test]
    fn finish_that_strands_blocked_peers_unwinds_them_all() {
        // Task 0 returns without unblocking anyone: its finish finds
        // nothing Ready, poisons, and must wake all 63 sleepers.
        let failed = strand_peers(&Engine::new(64), |_| {});
        assert_eq!(failed.len(), 63, "{failed:?}");
        assert_eq!(poisoned_count(&failed), 63, "{failed:?}");
    }

    #[test]
    fn poison_unwinds_every_parked_task() {
        // Parked, or on their way there: 63 tasks, 63 echoes.
        for make in BOTH {
            let failed = strand_peers(&make(64), |_| panic!("app failure"));
            assert_eq!(failed.len(), 64, "{failed:?}");
            assert_eq!(failed[0], "app failure");
            assert_eq!(poisoned_count(&failed), 63, "{failed:?}");
        }
    }

    #[test]
    fn wide_deadlock_reports_once_and_poisons_the_rest() {
        // Whichever task blocks last detects the deadlock and carries
        // the full report (on the simulator equal clocks run in id order,
        // so that is task 63).
        let hints: Vec<_> = (0..64).map(|i| (i, ParkHint::Lock(i as u64))).collect();
        for make in BOTH {
            let engine = make(64);
            let failed = run_all(&engine, |t| {
                t.block_on(ParkHint::Lock(t.id() as u64));
            });
            assert_one_report(&failed, &hints);
            assert!(engine.is_threaded() || failed[63] == deadlock_message(&hints));
        }
    }

    #[test]
    fn task_picked_before_its_begin_still_runs() {
        // Task 0 is spawned last and calls begin only once every other
        // thread is about to: whichever arrives first elects task 0
        // (least clock, least id) while no thread is registered for it,
        // so that wake has no one to unpark — task 0 must find itself
        // Active when it gets there.
        let engine = Engine::new(64);
        let (tx, rx) = mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        let failed = spawn_all(&engine, (0..64).rev(), move |t| {
            if t.id() == 0 {
                let rx = rx.lock();
                (1..64).for_each(|_| rx.recv().expect("63 announcements"));
            } else {
                tx.lock().send(()).expect("task 0 is listening");
            }
            t.begin();
            for _ in 0..3 {
                t.advance(SimTime::from_us(10));
                t.yield_turn();
                o.lock().push(t.id());
            }
            t.finish();
        });
        assert_eq!(failed, Vec::<String>::new());
        let want: Vec<usize> = (0..3).flat_map(|_| 0..64).collect();
        assert_eq!(*order.lock(), want);
    }

    #[test]
    fn round_robin_wakes_exactly_one_task_per_handoff() {
        // Equal charges: every turn point hands the turn to the next id,
        // so each of the N*K yields issues one wake, as does each finish
        // but the last; the begin election issues one more unless task
        // 0's own thread held it. (A broadcast per turn point would
        // have woken 63 threads each time, 62 of them for nothing.)
        const N: usize = 64;
        const K: usize = 50;
        let engine = run_tasks(N, |t| {
            for _ in 0..K {
                t.advance(SimTime::from_us(10));
                t.yield_turn();
            }
        })
        .unwrap();
        let (wakes, not_active) = wake_counts(&engine);
        let handoffs = N * K + (N - 1);
        assert!(
            wakes == handoffs || wakes == handoffs + 1,
            "{wakes} wakes for {handoffs} handoffs"
        );
        // Only a spurious return from park (std allows them) lands here.
        assert!(not_active <= 4, "{not_active} wakeups found no turn");
    }

    /// The schedule a fuzz engine must produce for `n` tasks that each
    /// do `iters` x (advance 10us; yield_turn; record own id), computed
    /// on one thread from the rule the engine has always had: at a turn
    /// point, if any other task is Ready, the yielding task goes Ready
    /// and the next is drawn among all Ready ones.
    fn fuzz_model(n: usize, seed: u64, iters: usize) -> Vec<usize> {
        let clocks = Clocks::new(n, Policy::Turns);
        let mut s = Sched::new(n, Some(seed), Policy::Turns);
        let mut left = vec![iters; n];
        let mut in_yield = vec![false; n];
        let mut order = Vec::new();
        let mut cur = s.pick_next(&clocks).expect("begin elects a task");
        loop {
            if std::mem::take(&mut in_yield[cur]) {
                order.push(cur);
                left[cur] -= 1;
            }
            if left[cur] == 0 {
                s.set_status(cur, Status::Done);
                match s.pick_next(&clocks) {
                    Some(next) => cur = next,
                    None => return order,
                }
                continue;
            }
            clocks.add(cur, 10_000);
            in_yield[cur] = true;
            if s.ready > 0 {
                s.set_status(cur, Status::Ready);
                cur = s.pick_next(&clocks).expect("the yielding task is Ready");
            }
        }
    }

    #[test]
    fn stale_park_tokens_cost_a_recheck_never_a_turn() {
        // 1000 turn points under a fuzzed schedule, and at each one the
        // running task throws a wake at a task whose turn it is not. A
        // parked target wakes, finds itself still not Active and parks
        // again; a target that has not parked yet keeps the token and
        // burns it on its next park. Either way the schedule must be the
        // model's, draw for draw.
        const N: usize = 4;
        const ITERS: usize = 250;
        for seed in [1, 42, 1997] {
            let engine = Engine::with_fuzz_seed(N, seed);
            let inner = engine.inner.clone();
            let order = Arc::new(Mutex::new(Vec::new()));
            let o = order.clone();
            run_on(&engine, move |t| {
                for i in 0..ITERS {
                    inner.park.wake((t.id() + 1 + i % (N - 1)) % N);
                    t.advance(SimTime::from_us(10));
                    t.yield_turn();
                    o.lock().push(t.id());
                }
            })
            .unwrap();
            assert_eq!(*order.lock(), fuzz_model(N, seed, ITERS), "seed {seed}");
            let (_, not_active) = wake_counts(&engine);
            assert!(
                not_active <= N * ITERS + 4,
                "{not_active} fruitless wakeups for {} stale wakes",
                N * ITERS
            );
        }
    }
}
