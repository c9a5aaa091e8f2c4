//! Deterministic turn-based execution engine for the `adsm` DSM simulator.
//!
//! # Model
//!
//! Every simulated processor is a *task*, and **exactly one task
//! executes at any instant**. Tasks hand over control at *turn points* —
//! the places where a real DSM node would interact with the rest of the
//! cluster (page faults, lock operations, barriers). At a turn point the
//! engine picks the runnable task with the smallest *virtual clock*
//! (ties broken by task id), so cross-processor interactions happen in
//! virtual-time order and every run of the same program is bit-for-bit
//! reproducible.
//!
//! Between turn points a task only touches processor-local state (its own
//! copy of the shared space), which lazy release consistency guarantees
//! is invisible to other processors until the next synchronisation — so
//! serialising only the turn points preserves all protocol-visible
//! behaviour.
//!
//! Virtual clocks are advanced explicitly: by the application model
//! (compute charges) and by the protocol layer (message latencies, twin
//! and diff costs). Wall-clock time never influences the simulation.
//!
//! # Running the tasks
//!
//! [`Engine::run`] is the way to run a program: it takes the body every
//! task executes, begins and finishes each task itself, and returns a
//! typed outcome — `Ok`, the deadlock report, or the payload of the
//! task that panicked ([`RunFailure`]) — once every task has ended and
//! dropped what it held.
//!
//! Since only one simulator task runs at a time, `run` does not give
//! them a kernel thread each. It spawns one *carrier* thread for the run
//! and runs the tasks on it as stackful coroutines, each on a 2 MiB
//! stack of its own with a guard page below it. The stacks are mapped
//! once per process, not per run: a coroutine that has finished gives
//! its stack to a pool that later runs take theirs from. Handing the
//! turn over is a user-space switch of stack pointer and callee-saved
//! registers (the `coro` module, ≈10 ns) where it would otherwise be an
//! `unpark`, a `park` and a kernel context switch (≈2 µs, and a
//! cross-CPU wake whenever the two threads sit on different cores). The
//! scheduler — the pick rule, clocks, blocking, schedule fuzzing,
//! poisoning, the deadlock report — is the same code either way, so the
//! schedule and every virtual-time figure are identical.
//!
//! The other form is **caller-owned threads**: take a handle per task
//! with [`Engine::task`], and on a thread of your own call
//! [`Task::begin`], run the program, call [`Task::finish`]. A task
//! driven this way waits for its turn in `thread::park`, and the task
//! that yields `unpark`s exactly the one picked (the `park` module), so
//! a turn costs the same at 8 tasks and at 256. It is for callers that
//! need the threads to be theirs — the repository's benchmark times the
//! handoff this way — and it is what `run` itself does, with one scoped
//! thread per task, on targets the `coro` module has no switch routine
//! for (anything but x86_64 Linux today) and on the threads backend.
//! Which of the two a task uses follows from how it was created and
//! from the target; there is no setting for it.
//!
//! # Backends
//!
//! The model above is the **simulator** backend ([`Engine::new`] /
//! [`Engine::with_fuzz_seed`]): deterministic, serialised at turn
//! points, the repository's measurement oracle. [`Engine::threaded`]
//! selects the **threads** backend, which drops the serialisation: every
//! task runs freely on its own OS thread and a turn point is an atomic
//! clock commit and a look at the poison flag. It is the same scheduler
//! under a second policy, not a second mechanism: every task starts out
//! running instead of waiting to be picked, and [`Task::unblock`] makes
//! its target run at once instead of making it eligible. Blocking — on
//! the per-task park/unpark primitive caller-owned simulator threads
//! hand their turn over with — the deadlock test (nothing runnable,
//! nothing running, something blocked, found by whichever task blocks
//! or finishes last), its report and the poisoning that unwinds everyone
//! else are shared, so a deadlocked program fails with the same words
//! under both. One thing only the threads backend needs: its tasks do not
//! wait for each other, so an `unblock` can arrive before the `block` it
//! answers, and is then kept as a permit which that `block` consumes.
//! Virtual clocks and wake-up latencies are still honoured, but the
//! interleaving is the host scheduler's, so runs are *not* reproducible —
//! the simulator stays the oracle, the threads backend is for
//! host-parallel throughput. (Threads asleep on a mutex of the caller's
//! are invisible to the deadlock test; it sees `block`/`unblock`, which
//! is where application-level deadlocks — lost unlocks, missing barrier
//! arrivals — surface.)
//!
//! # Examples
//!
//! ```
//! use adsm_engine::Engine;
//! use adsm_netsim::SimTime;
//! use std::sync::Mutex;
//!
//! let order = Mutex::new(Vec::new());
//! Engine::new(2)
//!     .run(|mut task| {
//!         for _ in 0..3 {
//!             task.advance(SimTime::from_us(10));
//!             task.yield_turn();
//!             order.lock().unwrap().push(task.id());
//!         }
//!         task
//!     })
//!     .expect("neither task panics or deadlocks");
//! // Equal compute charges: ties break by id, so the tasks alternate —
//! // the interleaving is fully determined by the virtual clocks.
//! assert_eq!(order.into_inner().unwrap(), [0, 1, 0, 1, 0, 1]);
//! ```
//!
//! The same program on threads of the caller's own:
//!
//! ```
//! use adsm_engine::Engine;
//! use adsm_netsim::SimTime;
//! use std::sync::Mutex;
//!
//! let engine = Engine::new(2);
//! let order = Mutex::new(Vec::new());
//! std::thread::scope(|s| {
//!     for id in 0..2 {
//!         let (mut task, order) = (engine.task(id), &order);
//!         s.spawn(move || {
//!             task.begin();
//!             for _ in 0..3 {
//!                 task.advance(SimTime::from_us(10));
//!                 task.yield_turn();
//!                 order.lock().unwrap().push(task.id());
//!             }
//!             task.finish();
//!         });
//!     }
//! });
//! assert_eq!(order.into_inner().unwrap(), [0, 1, 0, 1, 0, 1]);
//! ```

#![deny(unsafe_code)]

#[allow(unsafe_code)] // the context switch
mod coro;
mod park;
mod sched;

#[doc(hidden)]
pub use sched::sched_pick_rounds;
pub use sched::{panic_message, Engine, EngineError, ParkHint, RunFailure, Task, TaskId};
