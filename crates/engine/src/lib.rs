//! Deterministic turn-based execution engine for the `adsm` DSM simulator.
//!
//! # Model
//!
//! Each simulated processor runs on its own OS thread, but **exactly one
//! thread executes at any instant**. Threads hand over control at *turn
//! points* — the places where a real DSM node would interact with the
//! rest of the cluster (page faults, lock operations, barriers). At a
//! turn point the engine picks the runnable task with the smallest
//! *virtual clock* (ties broken by task id), so cross-processor
//! interactions happen in virtual-time order and every run of the same
//! program is bit-for-bit reproducible. The handover is direct: every
//! other thread sleeps in `thread::park`, and the yielding thread
//! `unpark`s the picked task's thread and nobody else, so a turn costs
//! the same at 8 processors and at 256.
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
//! # Backends
//!
//! The model above is the **simulator** backend ([`Engine::new`] /
//! [`Engine::with_fuzz_seed`]): deterministic, serialised at turn
//! points, the repository's measurement oracle. [`Engine::threaded`]
//! selects the **threads** backend, which drops the serialisation: every
//! task runs freely on its own OS thread, turn points are a single
//! atomic clock commit, and blocking parks the thread — on the same
//! per-task park/unpark primitive the simulator hands its turn over
//! with (the `park` module) — until a permit from [`Task::unblock`]
//! arrives. Virtual clocks and wake-up latencies
//! are still honoured, but the interleaving is the host scheduler's, so
//! runs are *not* reproducible — the simulator stays the oracle, the
//! threads backend is for host-parallel throughput (see the `threads`
//! module documentation for the blocking and deadlock-detection
//! details).
//!
//! # Examples
//!
//! ```
//! use adsm_engine::Engine;
//! use adsm_netsim::SimTime;
//! use std::thread;
//!
//! let engine = Engine::new(2);
//! let order = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
//! let mut joins = Vec::new();
//! for id in 0..2 {
//!     let mut task = engine.task(id);
//!     let order = order.clone();
//!     joins.push(thread::spawn(move || {
//!         task.begin();
//!         for _ in 0..3 {
//!             task.advance(SimTime::from_us(10));
//!             task.yield_turn();
//!             order.lock().push((id, task.clock()));
//!         }
//!         task.finish();
//!     }));
//! }
//! for j in joins { j.join().unwrap(); }
//! // Equal compute charges: ties break by id, so the tasks alternate —
//! // the interleaving is fully determined by the virtual clocks.
//! let got: Vec<usize> = order.lock().iter().map(|&(id, _)| id).collect();
//! assert_eq!(got, vec![0, 1, 0, 1, 0, 1]);
//! ```

mod park;
mod sched;
mod threads;

#[doc(hidden)]
pub use sched::sched_pick_rounds;
pub use sched::{Engine, EngineError, ParkHint, Task, TaskId};
