//! `Engine::run` on the simulator: the tasks are coroutines of one
//! carrier thread. The scheduler is the one the caller-owned-thread form
//! uses, so the schedule must be the same; what is new is how a task
//! waits, starts and ends.

use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use adsm_engine::{panic_message, Engine, EngineError, ParkHint, RunFailure, Task, TaskId};
use adsm_netsim::SimTime;

/// Runs `program` as every task of `engine` under `Engine::run`.
fn on_carrier(engine: &Engine, program: impl Fn(&mut Task) + Sync) -> Result<(), RunFailure> {
    engine.run(|mut task| {
        program(&mut task);
        task
    })
}

/// Runs `program` as every task of `engine`, each on a thread of the
/// caller's.
fn on_own_threads(engine: &Engine, program: impl Fn(&mut Task) + Sync) {
    thread::scope(|s| {
        for id in 0..engine.ntasks() {
            let (mut task, program) = (engine.task(id), &program);
            s.spawn(move || {
                task.begin();
                program(&mut task);
                task.finish();
            });
        }
    });
}

/// What the tasks of [`both_carriers_produce_one_schedule`] share. Only
/// the task whose turn it is touches it.
struct Shared {
    /// `(task, clock)` at every turn point, in the order they were run.
    order: Vec<(TaskId, u64)>,
    /// Tasks that blocked and have not been woken yet.
    waiters: Vec<TaskId>,
    /// Tasks still inside their loop, the waiters among them.
    live: usize,
    /// Turn points at which a task blocked.
    blocks: usize,
}

#[test]
fn both_carriers_produce_one_schedule() {
    // About 1 000 turn points of uneven charges. Every fourth one an
    // odd task blocks instead of yielding — unless it is the last one
    // that could still wake the others — and whoever gets a turn wakes
    // all who wait. With `raises`, every third turn also raises the
    // next task's clock and bumps the one after it, Ready or Blocked.
    // The (task, clock) sequence is the scheduler's, so it may not
    // depend on what the tasks run on; unfuzzed, it is in virtual-time
    // order, which a pick that missed a raise would break.
    for n in [8, 64] {
        let turns = 1_000 / n + 1;
        let program = |shared: &Mutex<Shared>, raises: bool, t: &mut Task| {
            let wake_all = |t: &mut Task| {
                let waiters = std::mem::take(&mut shared.lock().unwrap().waiters);
                waiters.into_iter().for_each(|w| t.unblock(w, t.clock()));
            };
            let mut x = t.id() as u64 + 1;
            for turn in 0..turns {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695);
                t.advance(SimTime::from_ns(x >> 50));
                let block = {
                    let mut shared = shared.lock().unwrap();
                    let block =
                        turn % 4 == 3 && t.id() % 2 == 1 && shared.live > shared.waiters.len() + 1;
                    if block {
                        shared.waiters.push(t.id());
                        shared.blocks += 1;
                    }
                    block
                };
                if block {
                    t.block_on(ParkHint::Page(turn as u64));
                } else {
                    t.yield_turn();
                }
                wake_all(t);
                if raises && turn % 3 == 1 {
                    let (id, now) = (t.id(), t.clock());
                    t.raise_clock((id + 1) % n, now + SimTime::from_ns(x >> 52));
                    t.bump_clock((id + 2) % n, SimTime::from_ns(x >> 54));
                }
                let at = (t.id(), t.clock().as_ns());
                shared.lock().unwrap().order.push(at);
            }
            shared.lock().unwrap().live -= 1;
            wake_all(t);
        };
        let shared = || {
            Mutex::new(Shared {
                order: Vec::new(),
                waiters: Vec::new(),
                live: n,
                blocks: 0,
            })
        };
        let engines: [fn(usize, u64) -> Engine; 2] = [
            |n, _| Engine::new(n),
            |n, seed| Engine::with_fuzz_seed(n, seed),
        ];
        for (make, seed, raises) in [
            (0, 0, false),
            (0, 0, true),
            (1, 1, false),
            (1, 42, true),
            (1, 1997, false),
        ] {
            let carrier = shared();
            on_carrier(&engines[make](n, seed), |t| program(&carrier, raises, t)).unwrap();
            let threads = shared();
            on_own_threads(&engines[make](n, seed), |t| program(&threads, raises, t));
            let carrier = carrier.into_inner().unwrap();
            assert_eq!(carrier.order.len(), n * turns);
            assert!(carrier.blocks >= n, "{} blocks", carrier.blocks);
            let what = format!("{n} tasks, fuzz {make}, seed {seed}, raises {raises}");
            if make == 0 {
                let late = carrier.order.windows(2).position(|w| w[1].1 < w[0].1);
                assert_eq!(late, None, "{what}: out of virtual-time order");
            }
            assert_eq!(carrier.order, threads.into_inner().unwrap().order, "{what}");
        }
    }
}

struct CountDrop<'a>(&'a AtomicUsize);

impl Drop for CountDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn a_panic_at_a_turn_point_unwinds_every_task_and_comes_back() {
    for n in [8, 64] {
        let (dropped, echoes) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let failure = Engine::new(n)
            .run(|mut t| {
                let _held = CountDrop(&dropped);
                let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
                    for turn in 0..3 {
                        t.advance(SimTime::from_us(10));
                        t.yield_turn();
                        // By now every task has started and sits at a
                        // turn point of its own.
                        if t.id() == n / 2 && turn == 1 {
                            panic!("failed at a turn point");
                        }
                    }
                }));
                if let Err(payload) = unwound {
                    if payload.downcast_ref() == Some(&EngineError::Poisoned) {
                        echoes.fetch_add(1, Ordering::Relaxed);
                    }
                    panic::resume_unwind(payload);
                }
                t
            })
            .unwrap_err();
        match failure {
            RunFailure::Panic(payload) => {
                assert_eq!(panic_message(&*payload), "failed at a turn point")
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(echoes.into_inner(), n - 1, "tasks that unwound as Poisoned");
        assert_eq!(
            dropped.into_inner(),
            n,
            "bodies whose captures were dropped"
        );
    }
}

#[test]
fn a_panic_whose_message_says_blocked_is_still_a_panic() {
    let failure = on_carrier(&Engine::new(2), |t| {
        if t.id() == 1 {
            panic!("all simulated processors are blocked, says the program");
        }
        t.block();
    })
    .unwrap_err();
    assert!(matches!(failure, RunFailure::Panic(_)), "{failure:?}");
}

#[test]
fn a_wide_deadlock_returns_the_whole_report() {
    for n in [8, 64] {
        let failure = on_carrier(&Engine::new(n), |t| {
            t.block_on(ParkHint::Lock(t.id() as u64));
        })
        .unwrap_err();
        let RunFailure::Deadlock(report) = failure else {
            panic!("{failure:?}");
        };
        let mut want = String::from("all simulated processors are blocked");
        for id in 0..n {
            want += if id == 0 { ": " } else { "; " };
            want += &format!("task {id} waiting on lock {id}");
        }
        assert_eq!(report, want);
    }
}

#[test]
fn a_task_that_finishes_past_blocked_peers_ends_the_run() {
    // Task 0 returns without waking anyone. Its successor cannot be
    // picked; the blocked tasks unwind, and the run reports the only
    // thing any task said.
    let engine = Engine::new(8);
    let failure = on_carrier(&engine, |t| {
        if t.id() == 0 {
            t.advance(SimTime::from_us(100));
            t.yield_turn();
        } else {
            t.block_on(ParkHint::Barrier);
        }
    })
    .unwrap_err();
    match failure {
        RunFailure::Panic(payload) => {
            assert_eq!(payload.downcast_ref(), Some(&EngineError::Poisoned));
        }
        other => panic!("{other:?}"),
    }
    assert!(engine.is_poisoned());
    assert_eq!(engine.clock(0), SimTime::from_us(100));
}

/// Recurses until `depth_bytes` of stack lie between `top` and this
/// frame, offers a turn point there, and returns the frame count.
fn dive(t: &mut Task, top: usize, depth_bytes: usize) -> usize {
    let pad = [t.id() as u8; 1024];
    let here = black_box(&pad).as_ptr() as usize;
    let frames = if top - here < depth_bytes {
        dive(t, top, depth_bytes) + 1
    } else {
        t.yield_turn();
        1
    };
    black_box(&pad);
    frames
}

#[test]
fn a_body_may_use_a_megabyte_and_a_half_of_stack() {
    // Tier-1 runs this unoptimised, where frames are at their largest;
    // the depth is measured in bytes, so it is the same 1.5 MiB of the
    // 2 MiB stack either way. All eight are that deep at once. Twice:
    // the second run's coroutines get the stacks the first one's
    // finished with, written to that deep.
    const DEPTH: usize = 3 << 19;
    for run in 0..2 {
        let frames = AtomicUsize::new(0);
        on_carrier(&Engine::new(8), |t| {
            let top = 0u8;
            let top = black_box(&top) as *const u8 as usize;
            frames.fetch_add(dive(t, top, DEPTH), Ordering::Relaxed);
        })
        .unwrap();
        // A frame holds the 1 KiB pad and little else.
        assert!(frames.into_inner() >= 8 * DEPTH / 4096, "run {run}");
    }
}

#[test]
fn the_threads_backend_runs_a_thread_per_task() {
    let engine = Engine::threaded(4);
    let seen = Mutex::new(Vec::new());
    on_carrier(&engine, |t| {
        for _ in 0..50 {
            t.advance(SimTime::from_us(2));
            t.yield_turn();
        }
        seen.lock().unwrap().push(thread::current().id());
    })
    .unwrap();
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|id| format!("{id:?}"));
    seen.dedup();
    assert_eq!(seen.len(), 4, "distinct threads");
    assert!((0..4).all(|id| engine.clock(id) == SimTime::from_us(100)));

    let failure = on_carrier(&Engine::threaded(2), |t| t.block()).unwrap_err();
    assert!(matches!(failure, RunFailure::Deadlock(_)), "{failure:?}");
}

#[test]
fn an_engine_runs_once() {
    // Statuses only move forward: a second run has no task left to give
    // a turn to (and clocks to keep apart from the first run's), so it is
    // refused before any task starts.
    for engine in [Engine::new(4), Engine::threaded(4)] {
        let ran = AtomicUsize::new(0);
        let body = |mut t: Task| {
            ran.fetch_add(1, Ordering::Relaxed);
            t.advance(SimTime::from_us(10));
            t
        };
        engine.run(body).unwrap();
        let failure = engine.run(body).unwrap_err();
        let RunFailure::Panic(payload) = failure else {
            panic!("{failure:?}");
        };
        assert!(panic_message(&*payload).starts_with("an Engine runs once"));
        assert_eq!(
            ran.load(Ordering::Relaxed),
            4,
            "no task of the second run started"
        );
        assert!((0..4).all(|id| engine.clock(id) == SimTime::from_us(10)));
    }
}

/// Whether `Engine::run` has a carrier thread on this target (the
/// condition of `coro::AVAILABLE`); elsewhere every task has a thread
/// of its own and `run_within`'s scope is never called.
const HAS_CARRIER: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

#[test]
fn the_scope_runs_once_on_the_thread_every_task_runs_on() {
    for engine in [Engine::new(8), Engine::with_fuzz_seed(8, 7)] {
        let scoped_on = Mutex::new(Vec::new());
        let tasks_on = Mutex::new(Vec::new());
        engine
            .run_within(
                |go| {
                    scoped_on.lock().unwrap().push(thread::current().id());
                    go();
                    // Every task is over when `go` returns.
                    assert_eq!(tasks_on.lock().unwrap().len(), 8);
                },
                |mut t| {
                    t.advance(SimTime::from_us(1 + t.id() as u64));
                    t.yield_turn();
                    tasks_on.lock().unwrap().push(thread::current().id());
                    t
                },
            )
            .unwrap();
        let scoped_on = scoped_on.into_inner().unwrap();
        let tasks_on = tasks_on.into_inner().unwrap();
        assert_eq!(tasks_on.len(), 8);
        if HAS_CARRIER {
            assert_eq!(scoped_on.len(), 1, "once");
            assert!(tasks_on.iter().all(|&id| id == scoped_on[0]));
            assert_ne!(
                scoped_on[0],
                thread::current().id(),
                "a thread of the run's own"
            );
        } else {
            assert!(scoped_on.is_empty());
        }
    }
}

#[test]
fn the_threads_backend_never_calls_the_scope() {
    let scoped = AtomicUsize::new(0);
    Engine::threaded(4)
        .run_within(
            |go| {
                scoped.fetch_add(1, Ordering::Relaxed);
                go();
            },
            |mut t| {
                t.yield_turn();
                t
            },
        )
        .unwrap();
    assert_eq!(scoped.into_inner(), 0);
}

#[test]
fn a_scope_that_fails_fails_the_run() {
    if !HAS_CARRIER {
        return;
    }
    let ran = AtomicUsize::new(0);
    let body = |t: Task| {
        ran.fetch_add(1, Ordering::Relaxed);
        t
    };
    // Before `go`: no task ever starts, and nobody waits for one.
    let failure = Engine::new(4)
        .run_within(|_go| panic!("the scope's set-up failed"), body)
        .unwrap_err();
    let RunFailure::Panic(payload) = failure else {
        panic!("{failure:?}");
    };
    assert_eq!(panic_message(&*payload), "the scope's set-up failed");
    // Without `go` at all.
    let failure = Engine::new(4).run_within(|_go| {}, body).unwrap_err();
    let RunFailure::Panic(payload) = failure else {
        panic!("{failure:?}");
    };
    assert!(panic_message(&*payload).contains("exactly once"));
    assert_eq!(ran.into_inner(), 0);
}

#[test]
fn a_guard_alive_at_a_turn_point_is_a_reported_reentry_not_a_hang() {
    if !HAS_CARRIER {
        return;
    }
    // Task 0 offers a turn point with the guard of a mutex the carrier
    // holds still alive; task 1, whose clock is smaller, gets the turn
    // and locks the same mutex. On one thread nobody could ever unlock
    // it: unheld this is a futex wait with no waker.
    let shared = parking_lot::Mutex::new(0u32);
    let failure = Engine::new(2)
        .run_within(
            |go| {
                let _hold = shared.hold();
                go();
            },
            |mut t| {
                let mut guard = shared.lock();
                *guard += 1;
                if t.id() == 0 {
                    t.advance(SimTime::from_us(5));
                    t.yield_turn();
                }
                drop(guard);
                t
            },
        )
        .unwrap_err();
    let RunFailure::Panic(payload) = failure else {
        panic!("{failure:?}");
    };
    let said = panic_message(&*payload);
    assert!(said.contains("re-entry"), "{said}");
    // Task 0 unwound and dropped its guard; the hold ended cleanly.
    assert_eq!(shared.into_inner(), 1);
}
