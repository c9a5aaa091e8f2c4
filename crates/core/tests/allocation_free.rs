//! Steady-state allocation behaviour of the protocol hot paths.
//!
//! Every twin, fetched page and merge scratch buffer is drawn from the
//! world's [`PagePool`](adsm_mempage::PagePool); the pool's
//! `pool_pages_created` counter (surfaced through
//! [`ProtocolStats`](adsm_core::ProtocolStats)) counts its heap
//! allocations. These tests pin the PR's acceptance criterion: on the
//! SOR microkernel path the pool stops allocating once the per-iteration
//! working set exists — zero heap allocations per steady-state interval
//! — while the buffer traffic itself (twin creation, page fetches) keeps
//! flowing through recycling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adsm_core::{Dsm, MsgKind, ProtocolKind, RunOptions, RunReport, SharedVec, SimTime};

thread_local! {
    /// Heap allocations performed by *this* thread (`Cell<u64>` has no
    /// destructor, so the TLS slot is safe to touch from the allocator
    /// at any point in a thread's life).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting allocations per thread, immune to
/// concurrently running tests. A simulator run's processors all execute
/// on the run's one carrier thread, so a count taken inside an
/// application closure covers every processor of that run (under the
/// threads backend, and for tasks driven from the caller's own threads,
/// it covers the one processor).
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a per-thread
// `Cell` bump with no allocation or unwinding of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's allocation count so far.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

const NPROCS: usize = 4;
const N: usize = 64; // grid side; rows are page-aligned u64 lanes

/// A SOR-style red/black relaxation over a shared grid: each processor
/// sweeps a band of rows, reads the neighbouring bands, and meets at a
/// barrier per half-sweep — the paper's canonical regular workload.
fn run_sor(protocol: ProtocolKind, iters: usize) -> RunReport {
    let mut dsm = Dsm::builder(protocol).nprocs(NPROCS).build();
    let grid = dsm.alloc_page_aligned::<u64>(N * N);
    let outcome = dsm
        .run(move |p| {
            let rows = N / p.nprocs();
            let lo = p.index() * rows;
            let hi = lo + rows;
            for it in 0..iters {
                for colour in 0..2usize {
                    for r in lo..hi {
                        if r % 2 != colour {
                            continue;
                        }
                        for c in 0..N {
                            let up = if r == 0 {
                                0
                            } else {
                                grid.get(p, (r - 1) * N + c)
                            };
                            let down = if r + 1 == N {
                                0
                            } else {
                                grid.get(p, (r + 1) * N + c)
                            };
                            let v = up / 2 + down / 2 + (it + colour) as u64;
                            grid.set(p, r * N + c, v);
                        }
                    }
                    p.compute(SimTime::from_us(20));
                    p.barrier();
                }
            }
        })
        .expect("SOR run completes");
    outcome.report
}

/// Fresh pool allocations must stop growing after warm-up: running 3x
/// the iterations performs not a single extra heap allocation for page
/// buffers, even though the extra iterations keep twinning and fetching
/// (visible as strictly more pool reuse).
#[test]
fn sor_steady_state_intervals_allocate_no_page_buffers() {
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let short = run_sor(protocol, 3);
        let long = run_sor(protocol, 9);
        assert_eq!(
            long.proto.pool_pages_created, short.proto.pool_pages_created,
            "{protocol}: extra steady-state iterations allocated page buffers"
        );
        assert!(
            long.proto.pool_pages_reused > short.proto.pool_pages_reused,
            "{protocol}: extra iterations should recycle more buffers \
             (short {}, long {})",
            short.proto.pool_pages_reused,
            long.proto.pool_pages_reused
        );
        // The pool is actually in the loop. Under pure MW every writer
        // twins; under WFS this workload has no false sharing, so pages
        // stay SW and the pool traffic is page fetches only.
        if protocol == ProtocolKind::Mw {
            assert!(
                long.proto.twins_created > 0,
                "MW workload unexpectedly created no twins"
            );
        }
        assert!(
            long.proto.pool_pages_created > 0,
            "{protocol}: pool should have served the warm-up working set"
        );
    }
}

/// A write-write false-sharing microkernel: every processor writes its
/// own interleaved words of the SAME pages in every interval, so each
/// barrier leaves `NPROCS` concurrent diffs per page and every
/// subsequent fault runs the full merge procedure (fetched diffs
/// applied in happened-before order).
fn run_false_sharing(iters: usize) -> RunReport {
    false_sharing_allocs(iters, 0, 2).0
}

/// The merge path itself is allocation-free in steady state: with
/// every page under concurrent multi-writer traffic, extra iterations
/// fetch and apply strictly more diffs without a single new page
/// buffer (a fetched diff is a slot into the run's diff arena, applied
/// from there in place).
#[test]
fn merge_path_steady_state_is_allocation_free() {
    let short = run_false_sharing(3);
    let long = run_false_sharing(9);
    // The merge procedure actually ran, at multi-diff fan-in.
    assert!(
        long.proto.diffs_fetched > short.proto.diffs_fetched,
        "extra iterations must fetch more diffs (short {}, long {})",
        short.proto.diffs_fetched,
        long.proto.diffs_fetched
    );
    assert!(long.proto.diffs_applied > 0);
    // Zero page-buffer allocations per steady-state interval.
    assert_eq!(
        long.proto.pool_pages_created, short.proto.pool_pages_created,
        "merge-path steady state allocated page buffers"
    );
    assert!(
        long.proto.pool_pages_reused > short.proto.pool_pages_reused,
        "merge-path iterations should recycle buffers"
    );
}

/// The false-sharing microkernel over `pages` pages, with the heap
/// allocations of its iterations from `warm` on counted — every
/// processor's, as they all run on the simulator's one carrier thread.
fn false_sharing_allocs(iters: usize, warm: usize, pages: usize) -> (RunReport, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let words = pages * 512;
    let counted = Arc::new(AtomicU64::new(0));
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(NPROCS).build();
    let data = dsm.alloc_page_aligned::<u64>(words);
    let total = counted.clone();
    let outcome = dsm
        .run(move |p| {
            let me = p.index();
            let stride = p.nprocs();
            let mut from = 0;
            for it in 0..iters {
                if it == warm {
                    from = thread_allocs();
                }
                for i in (me..words).step_by(stride) {
                    data.set(p, i, (it * stride + me) as u64);
                }
                p.compute(SimTime::from_us(20));
                p.barrier();
                let _ = data.get(p, (me + 1) % stride);
            }
            p.barrier();
            if me == 0 {
                total.store(thread_allocs() - from, Ordering::Relaxed);
            }
        })
        .expect("false-sharing run completes");
    (outcome.report, counted.load(Ordering::Relaxed))
}

/// Storing a diff allocates nothing of its own: interval closes encode
/// their diffs into the run's diff arena, so the heap allocations of
/// extra steady-state MW intervals do not grow with the diffs those
/// intervals create. Eight times the falsely-shared pages make eight
/// times the diffs per interval at well under one allocation per extra
/// diff (what is left is the stores' per-page lists growing, and a new
/// arena chunk per 64 KiB); a diff used to cost two, an `Arc` and its
/// byte buffer.
#[test]
fn steady_state_diffs_allocate_nothing_of_their_own() {
    // Diffs made, and heap allocations, by iterations 6..12.
    let extra = |pages| {
        let (short, short_allocs) = false_sharing_allocs(6, 3, pages);
        let (long, long_allocs) = false_sharing_allocs(12, 3, pages);
        (
            long.proto.diffs_created - short.proto.diffs_created,
            long_allocs - short_allocs,
        )
    };
    let (few_diffs, few_allocs) = extra(2);
    let (many_diffs, many_allocs) = extra(16);
    assert!(
        many_diffs >= 8 * few_diffs && few_diffs > 0,
        "diffs per interval should scale with the pages ({few_diffs} -> {many_diffs})"
    );
    let (more_diffs, more_allocs) = (
        many_diffs - few_diffs,
        many_allocs.saturating_sub(few_allocs),
    );
    assert!(
        more_allocs * 4 < more_diffs,
        "{more_diffs} more diffs took {more_allocs} more heap allocations"
    );
}

/// The merge procedure's transient state — the open session's delta
/// diff (`Diff::encode_into` scratch) and the three working lists —
/// comes from the world's scratch pool: extra steady-state iterations
/// run strictly more merges without building a single new scratch set.
#[test]
fn validate_page_scratch_is_pooled_after_warmup() {
    let short = run_false_sharing(3);
    let long = run_false_sharing(9);
    assert!(
        long.proto.merge_scratch_created > 0,
        "warm-up must have built at least one scratch set"
    );
    assert_eq!(
        long.proto.merge_scratch_created, short.proto.merge_scratch_created,
        "extra steady-state merges allocated scratch sets"
    );
    // The same holds on the regular (SOR) path across protocols.
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let short = run_sor(protocol, 3);
        let long = run_sor(protocol, 9);
        assert_eq!(
            long.proto.merge_scratch_created, short.proto.merge_scratch_created,
            "{protocol}: steady-state SOR iterations allocated scratch sets"
        );
    }
}

/// Interval closing allocates no notice list in steady state: the
/// fresh write-notice list of an iterative application equals the
/// previous interval's, so the previous record's `Arc` is shared and
/// `interval_close_allocs` goes flat after warm-up — extra iterations
/// close strictly more intervals at **zero** additional notice-list
/// allocations.
#[test]
fn steady_state_interval_closes_allocate_no_notice_lists() {
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let short = run_sor(protocol, 3);
        let long = run_sor(protocol, 9);
        assert!(
            long.proto.interval_close_allocs > 0,
            "{protocol}: warm-up must have built at least one notice list"
        );
        assert_eq!(
            long.proto.interval_close_allocs, short.proto.interval_close_allocs,
            "{protocol}: extra steady-state closes allocated notice lists"
        );
    }
    // Same on the false-sharing merge path (every interval closes the
    // same MW write set).
    let short = run_false_sharing(3);
    let long = run_false_sharing(9);
    assert!(long.proto.diffs_created > short.proto.diffs_created);
    assert_eq!(
        long.proto.interval_close_allocs, short.proto.interval_close_allocs,
        "false-sharing steady-state closes allocated notice lists"
    );
}

/// Closing clocks are delta-shared against the previous close: when no
/// foreign clock entry changed between two closes of the same
/// processor, the later record reuses the earlier one's base `Arc`
/// instead of cloning the whole working clock. A sole writer among
/// passive peers is the canonical case — the peers contribute no
/// intervals, so every barrier's merged global clock leaves the
/// writer's foreign entries untouched and every close after the first
/// shares: `close_vc_shares` is exactly `iters - 1`. The symmetric
/// kernels above advance every entry every interval and share nothing.
#[test]
fn sole_writer_closes_share_their_clock_base() {
    fn run_sole_writer(iters: usize) -> RunReport {
        let mut dsm = Dsm::builder(ProtocolKind::Wfs).nprocs(2).build();
        let data = dsm.alloc_page_aligned::<u64>(1024);
        let outcome = dsm
            .run(move |p| {
                for i in 0..iters {
                    if p.index() == 0 {
                        data.set(p, 0, i as u64);
                    }
                    p.compute(SimTime::from_us(10));
                    p.barrier();
                }
            })
            .expect("sole-writer run completes");
        outcome.report
    }
    let short = run_sole_writer(4);
    let long = run_sole_writer(12);
    assert_eq!(
        short.proto.close_vc_shares, 3,
        "every close after the first must share its predecessor's base"
    );
    assert_eq!(long.proto.close_vc_shares, 11);
    // And sharing is allocation-neutral on the notice side too: the
    // writer closes the same write set every interval.
    assert_eq!(
        long.proto.interval_close_allocs,
        short.proto.interval_close_allocs
    );
}

/// Steady-state bulk span accesses perform **zero** heap allocations:
/// once the covered pages are faulted in, `read_into`, `write_from`,
/// and explicit span views move bytes straight between the page frames
/// and caller buffers — the per-call `vec![0u8; n]` temporaries of the
/// pre-span-guard bulk paths are gone. Counted with a per-thread
/// allocation counter inside the application closure, so the pin is
/// exact (not a pool proxy) and immune to other tests' threads.
#[test]
fn steady_state_bulk_spans_allocate_nothing() {
    const ELEMS: usize = 2048; // four pages of u64
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(1).build();
    let data = dsm.alloc_page_aligned::<u64>(ELEMS);
    dsm.run(move |p| {
        let mut buf = vec![0u64; ELEMS];
        // Warm-up: fault every page in for write, then read once.
        data.write_from(p, 0, &buf);
        data.read_into(p, 0, &mut buf);
        let before = thread_allocs();
        for round in 0..64u64 {
            data.read_into(p, 0, &mut buf);
            for (i, v) in buf.iter_mut().enumerate() {
                *v = v.wrapping_add(round ^ i as u64);
            }
            data.write_from(p, 0, &buf);
            // Explicit guard spans: zero-copy read and in-place writes.
            let sum: u64 = data.view(p, 7..519).iter().fold(0, u64::wrapping_add);
            let mut w = data.view_mut(p, 1000..1008);
            w.set(0, sum);
            w.update(1, |v| v ^ sum);
            drop(w);
        }
        let spent = thread_allocs() - before;
        assert_eq!(
            spent, 0,
            "steady-state bulk spans performed {spent} heap allocations"
        );
    })
    .expect("bulk-span run completes");
}

/// The chaos delivery layer's fast path: under an explicit perfect
/// scenario the fate decision is a branch, not a draw — steady-state
/// iterations add **zero** page-buffer allocations beyond the plain
/// run's, the journal stays empty (nothing to record when nothing
/// deviates), and every chaos counter is pinned at zero.
#[test]
fn perfect_scenario_steady_state_adds_no_allocations_or_retransmissions() {
    use adsm_core::Scenario;
    fn run_sor_perfect(protocol: ProtocolKind, iters: usize) -> adsm_core::RunOutcome {
        let mut dsm = Dsm::builder(protocol)
            .nprocs(NPROCS)
            .options(RunOptions {
                scenario: Some(Scenario::perfect()),
                ..RunOptions::default()
            })
            .build();
        let grid = dsm.alloc_page_aligned::<u64>(N * N);
        dsm.run(move |p| {
            let rows = N / p.nprocs();
            let lo = p.index() * rows;
            let hi = lo + rows;
            for it in 0..iters {
                for colour in 0..2usize {
                    for r in lo..hi {
                        if r % 2 != colour {
                            continue;
                        }
                        for c in 0..N {
                            let up = if r == 0 {
                                0
                            } else {
                                grid.get(p, (r - 1) * N + c)
                            };
                            let down = if r + 1 == N {
                                0
                            } else {
                                grid.get(p, (r + 1) * N + c)
                            };
                            grid.set(p, r * N + c, up / 2 + down / 2 + (it + colour) as u64);
                        }
                    }
                    p.compute(SimTime::from_us(20));
                    p.barrier();
                }
            }
        })
        .expect("perfect-scenario SOR run completes")
    }
    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let plain = run_sor(protocol, 9);
        let short = run_sor_perfect(protocol, 3);
        let long = run_sor_perfect(protocol, 9);
        // The delivery layer adds no page-buffer demand at all: the
        // perfect run's pool allocations equal the plain run's, and they
        // go flat after warm-up.
        assert_eq!(
            long.report.proto.pool_pages_created, plain.proto.pool_pages_created,
            "{protocol}: the perfect-scenario delivery layer allocated page buffers"
        );
        assert_eq!(
            long.report.proto.pool_pages_created, short.report.proto.pool_pages_created,
            "{protocol}: extra perfect-scenario iterations allocated page buffers"
        );
        // Zero deviations: nothing dropped, retransmitted, duplicated or
        // waited for — and nothing journaled (the record stays an empty
        // Vec, so recording itself allocates nothing).
        let net = &long.report.net;
        assert_eq!(
            net.retransmissions(),
            0,
            "{protocol}: perfect run retransmitted"
        );
        assert_eq!(net.dropped_msgs(), 0);
        assert_eq!(net.duplicate_msgs(), 0);
        assert_eq!(net.timeout_waits(), 0);
        assert!(
            long.journal().expect("scenario runs record").is_empty(),
            "{protocol}: perfect run journaled a deviation"
        );
    }
}

/// The crash-recovery machinery is free until a fault actually fires:
/// a run with a crash *armed* but never reached (scheduled far past the
/// end of execution) performs exactly the plain run's page-buffer
/// allocations, and every recovery counter — epoch drops, crashes,
/// refetches, failover promotions, recovery time — stays pinned at
/// zero. The commit-point scan is a compare against an empty/expired
/// schedule, not a heap structure.
#[test]
fn unfired_crash_machinery_adds_no_allocations_and_no_counters() {
    use adsm_core::{Fault, FaultKind, Scenario};

    fn assert_recovery_counters_zero(r: &RunReport, what: &str) {
        assert_eq!(r.proto.proc_crashes, 0, "{what}: proc_crashes");
        assert_eq!(r.proto.recovery_refetches, 0, "{what}: recovery_refetches");
        assert_eq!(
            r.proto.failover_promotions, 0,
            "{what}: failover_promotions"
        );
        assert_eq!(r.proto.recovery_ns, 0, "{what}: recovery_ns");
        assert_eq!(r.net.epoch_drops(), 0, "{what}: net epoch_drops");
    }

    fn run_sor_armed(protocol: ProtocolKind, iters: usize) -> RunReport {
        let mut s = Scenario::perfect();
        s.name = "armed-but-unfired".to_string();
        // Far beyond any tiny run's virtual end time: the schedule is
        // live the whole run but no commit point ever reaches it.
        s.faults = vec![Fault {
            at: SimTime::from_ns(u64::MAX / 2),
            duration: SimTime::ZERO,
            kind: FaultKind::ProcCrash { proc: 1 },
        }];
        let mut dsm = Dsm::builder(protocol)
            .nprocs(NPROCS)
            .options(RunOptions {
                scenario: Some(s),
                ..RunOptions::default()
            })
            .build();
        let grid = dsm.alloc_page_aligned::<u64>(N * N);
        let outcome = dsm
            .run(move |p| {
                let rows = N / p.nprocs();
                let lo = p.index() * rows;
                let hi = lo + rows;
                for it in 0..iters {
                    for colour in 0..2usize {
                        for r in lo..hi {
                            if r % 2 != colour {
                                continue;
                            }
                            for c in 0..N {
                                let up = if r == 0 {
                                    0
                                } else {
                                    grid.get(p, (r - 1) * N + c)
                                };
                                let down = if r + 1 == N {
                                    0
                                } else {
                                    grid.get(p, (r + 1) * N + c)
                                };
                                grid.set(p, r * N + c, up / 2 + down / 2 + (it + colour) as u64);
                            }
                        }
                        p.compute(SimTime::from_us(20));
                        p.barrier();
                    }
                }
            })
            .expect("armed-crash SOR run completes");
        outcome.report
    }

    for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
        let plain = run_sor(protocol, 9);
        assert_recovery_counters_zero(&plain, "plain run");

        let short = run_sor_armed(protocol, 3);
        let long = run_sor_armed(protocol, 9);
        assert_recovery_counters_zero(&long, "armed run");
        // Zero extra page-buffer allocations: equal to the plain run,
        // flat across extra iterations.
        assert_eq!(
            long.proto.pool_pages_created, plain.proto.pool_pages_created,
            "{protocol}: an unfired crash schedule allocated page buffers"
        );
        assert_eq!(
            long.proto.pool_pages_created, short.proto.pool_pages_created,
            "{protocol}: extra armed-run iterations allocated page buffers"
        );
        // And identical protocol work: the armed schedule perturbed
        // nothing on the fault-free path.
        assert_eq!(long.proto.read_faults, plain.proto.read_faults);
        assert_eq!(long.proto.write_faults, plain.proto.write_faults);
        assert_eq!(long.proto.diffs_created, plain.proto.diffs_created);
    }
}

/// The pool's working set stays bounded by the live twin population
/// instead of scaling with run length: created buffers are far fewer
/// than the buffer demand (hits + misses).
#[test]
fn pool_demand_is_served_by_recycling() {
    let report = run_sor(ProtocolKind::Mw, 9);
    let demand = report.proto.pool_pages_created + report.proto.pool_pages_reused;
    assert!(
        report.proto.pool_pages_created * 4 <= demand,
        "most page-buffer demand should be pool hits: created {} of {}",
        report.proto.pool_pages_created,
        demand
    );
}

/// The engine's turn handoff — the simulator's cost per protocol
/// interaction — and a block/wake pair under either policy touch no heap
/// once every task has waited once (the first wait records the task's
/// thread handle): a turn point that switches is a lock, a scan, one
/// `unpark` and one `park`; a block and its wake-up are a lock each and
/// the same `park` and `unpark`, whether the woken task then waits for a
/// turn or has a thread to itself.
#[test]
fn steady_state_turn_handoff_allocates_nothing() {
    // A turn point each, then a baton round the ring: task 0 — kept
    // furthest ahead, so that on the simulator it runs once the others
    // have blocked — wakes task 1 and blocks, each task woken wakes the
    // next, the last one wakes task 0.
    fn rounds(task: &mut adsm_engine::Task, n: usize) {
        let next = (task.id() + 1) % NPROCS;
        for _ in 0..n {
            task.advance(SimTime::from_us(10));
            task.yield_turn();
            if task.id() == 0 {
                task.advance(SimTime::from_us(20));
                task.yield_turn();
                task.unblock(next, task.clock());
                task.block();
            } else {
                task.block();
                task.unblock(next, task.clock());
            }
        }
    }
    for make in [adsm_engine::Engine::new, adsm_engine::Engine::threaded] {
        let engine = make(NPROCS);
        let spent: Vec<u64> = std::thread::scope(|s| {
            let joins: Vec<_> = (0..NPROCS)
                .map(|id| {
                    let mut task = engine.task(id);
                    s.spawn(move || {
                        task.begin();
                        rounds(&mut task, 8);
                        let before = thread_allocs();
                        rounds(&mut task, 500);
                        let spent = thread_allocs() - before;
                        task.finish();
                        spent
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("no task panics"))
                .collect()
        });
        assert_eq!(
            spent,
            [0; NPROCS],
            "heap allocations per task thread, threads backend: {}",
            engine.is_threaded()
        );
    }
}

/// The same on `Engine::run`'s carrier thread, where a handoff is a
/// stack switch: the stacks are mapped before the first task starts and
/// nothing is allocated after. One thread runs every task, so the
/// counter sees them all: the window from the first task's reading to
/// the last one's covers every handoff in between.
#[test]
fn steady_state_turn_handoff_on_the_carrier_allocates_nothing() {
    // Room for every reading, so that recording one allocates nothing.
    let readings = std::sync::Mutex::new(Vec::with_capacity(NPROCS));
    adsm_engine::Engine::new(NPROCS)
        .run(|mut task| {
            let round_robin = |task: &mut adsm_engine::Task, turns: usize| {
                for _ in 0..turns {
                    task.advance(SimTime::from_us(10));
                    task.yield_turn();
                }
            };
            // Everyone has started by the time anyone leaves this.
            round_robin(&mut task, 8);
            let before = thread_allocs();
            round_robin(&mut task, 500);
            for _ in 0..500 {
                if task.id() == 0 {
                    task.advance(SimTime::from_us(20));
                    task.yield_turn();
                    let now = task.clock();
                    (1..NPROCS).for_each(|other| task.unblock(other, now));
                } else {
                    task.advance(SimTime::from_us(10));
                    task.block();
                }
            }
            let after = thread_allocs();
            readings
                .lock()
                .expect("no task panics")
                .push((before, after));
            task
        })
        .expect("no task panics");
    let readings = readings.into_inner().expect("no task panics");
    assert_eq!(readings.len(), NPROCS);
    let first = readings.iter().map(|r| r.0).min().expect("NPROCS > 0");
    let last = readings.iter().map(|r| r.1).max().expect("NPROCS > 0");
    assert_eq!(last - first, 0, "heap allocations on the carrier thread");
}

/// What `Dsm::run` sets up on the carrier thread around its processors
/// — the holds of the world, of every processor's memory and of the page
/// pool's free list, under which each of the run's `lock()`s is a flag —
/// costs one heap block, the `Vec` of memory holds, whatever the cluster
/// size; a hold itself allocates nothing, and neither does a span under
/// it (`steady_state_bulk_spans_allocate_nothing` runs leased). The
/// carrier is a fresh thread, so the first processor's first reading of
/// the per-thread counter is everything that came before it: compared
/// with a bare `Engine::run` of as many tasks, which maps the same
/// stacks and holds only the scheduler.
#[test]
fn the_carriers_holds_cost_one_allocation_at_any_cluster_size() {
    for nprocs in [1, NPROCS, 16] {
        let bare = std::sync::Mutex::new(Vec::with_capacity(nprocs));
        adsm_engine::Engine::new(nprocs)
            .run(|task| {
                let so_far = thread_allocs();
                bare.lock().expect("no task panics").push(so_far);
                task
            })
            .expect("no task panics");
        let held = std::sync::Arc::new(std::sync::Mutex::new(Vec::with_capacity(nprocs)));
        let protocol = if nprocs == 1 {
            ProtocolKind::Raw
        } else {
            ProtocolKind::Wfs
        };
        let mut dsm = Dsm::builder(protocol).nprocs(nprocs).build();
        let _data = dsm.alloc_page_aligned::<u64>(512 * nprocs);
        let readings = held.clone();
        dsm.run(move |_p| {
            let so_far = thread_allocs();
            readings.lock().expect("no processor panics").push(so_far);
        })
        .expect("run completes");
        let first = |readings: &std::sync::Mutex<Vec<u64>>| {
            let readings = readings.lock().expect("no task panics");
            assert_eq!(readings.len(), nprocs);
            *readings.iter().min().expect("nprocs > 0")
        };
        let (bare, held) = (first(&bare), first(&held));
        assert!(
            held <= bare + 1,
            "{nprocs} processors: {held} allocations before the first processor ran, \
             {bare} before a bare engine's first task"
        );
    }
}

/// Closing an interval on a write-write falsely-shared page allocates
/// nothing: the "was this write concurrent with another processor's
/// latest write to the page?" test walks the page's directory entry
/// (`last_write`) in place. Two processors write the same page in one interval;
/// from then on the page's HLRC home keeps writing it (in place: no
/// twin, no diff, so the close is the notice, the rights and that
/// question) against the other's recorded write. Counted exactly, as in
/// `steady_state_bulk_spans_allocate_nothing`; the window sits between
/// two doublings of the per-interval logs (intervals 72 to 121 of each
/// processor), the only allocations a steady-state interval has left.
#[test]
fn steady_state_closes_of_a_falsely_shared_page_allocate_nothing() {
    use adsm_core::HomePolicy;
    let mut dsm = Dsm::builder(ProtocolKind::Hlrc)
        .nprocs(2)
        .options(RunOptions {
            home_policy: HomePolicy::Fixed(0),
            ..RunOptions::default()
        })
        .build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let outcome = dsm
        .run(move |p| {
            let me = p.index();
            data.set(p, me, 1);
            p.barrier();
            let interval = |p: &mut adsm_core::Proc, round: u64| {
                if me == 0 {
                    data.set(p, 0, round);
                }
                p.barrier();
            };
            for round in 0..70 {
                interval(p, round);
            }
            let before = thread_allocs();
            for round in 0..50 {
                interval(p, round);
            }
            if me == 0 {
                let spent = thread_allocs() - before;
                assert_eq!(spent, 0, "50 steady-state closes allocated {spent} times");
            }
        })
        .expect("two-writer run completes");
    assert_eq!(outcome.report.profile.ww_false_shared_pages, 1);
    assert!(
        outcome.report.proto.write_faults >= 120,
        "home kept writing"
    );
}

/// An eager MW close of a diffed page cannot be allocation-free — the
/// stored diff and the interval's closing clock are made there by
/// design — but what it allocates is counted. Two processors write a
/// word each of one page in every interval; each close encodes a
/// one-word diff and each write fault merges the other's. A stored diff
/// is its `Arc` and one buffer: 518 blocks over 64 intervals of both
/// (intervals 72 to 135 of each, one doubling of the per-interval logs
/// among them), where masks and words in buffers of their own, or a run
/// list beside the words, made it 646.
#[test]
fn eager_mw_closes_allocate_a_counted_number_of_blocks() {
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(2).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let outcome = dsm
        .run(move |p| {
            let me = p.index();
            let interval = |p: &mut adsm_core::Proc, round: u64| {
                data.set(p, me, round);
                p.barrier();
            };
            for round in 0..70 {
                interval(p, round);
            }
            let before = thread_allocs();
            for round in 70..134 {
                interval(p, round);
            }
            if me == 0 {
                let spent = thread_allocs() - before;
                assert!(
                    spent <= 518,
                    "64 two-writer intervals allocated {spent} times"
                );
            }
        })
        .expect("two-writer run completes");
    assert_eq!(outcome.report.profile.ww_false_shared_pages, 1);
    assert!(outcome.report.proto.diffs_created >= 2 * 64);
}

/// The heap allocations P1 makes in rounds 70..120 of an HLRC kernel on
/// two processors, the home P0 and P1. Each round P1 opens a write
/// session on the page, then acquires the lock the home last released
/// after writing the page, whose notice invalidates P1's copy
/// mid-session; with `refetch`, P1 writes again under the lock, so the
/// write fault fetches the page from the home with the session open.
fn hlrc_session_allocs(refetch: bool) -> (RunReport, u64) {
    use adsm_core::HomePolicy;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let counted = Arc::new(AtomicU64::new(0));
    let total = counted.clone();
    let mut dsm = Dsm::builder(ProtocolKind::Hlrc)
        .nprocs(2)
        .options(RunOptions {
            home_policy: HomePolicy::Fixed(0),
            ..RunOptions::default()
        })
        .build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let outcome = dsm
        .run(move |p| {
            let me = p.index();
            let round = |p: &mut adsm_core::Proc, r: u64| {
                if me == 0 {
                    p.lock(0);
                    data.set(p, 0, r);
                    p.unlock(0);
                } else {
                    data.set(p, 1, r);
                    p.compute(SimTime::from_us(50));
                    p.lock(0);
                    if refetch {
                        data.set(p, 2, r);
                    }
                    p.unlock(0);
                }
                p.barrier();
            };
            for r in 0..70 {
                round(p, r);
            }
            let before = thread_allocs();
            for r in 70..120 {
                round(p, r);
            }
            if me == 1 {
                total.store(thread_allocs() - before, Ordering::Relaxed);
            }
        })
        .expect("HLRC session run completes");
    let image = outcome.read_vec(&data);
    assert_eq!(&image[..3], &[119, 119, if refetch { 119 } else { 0 }]);
    (outcome.report, counted.load(Ordering::Relaxed))
}

/// An HLRC home fetch inside an open write session allocates nothing of
/// its own: the session's delta is encoded into a pooled scratch arena
/// and re-applied over the fetched copy, so 50 rounds with a refetch
/// each allocate exactly what the same rounds without one do (the
/// closing clocks of the lock hand-offs). The fetch used to build a
/// fresh diff buffer every time.
#[test]
fn hlrc_refetches_inside_an_open_session_allocate_nothing() {
    let (_, plain_allocs) = hlrc_session_allocs(false);
    let (refetched, refetch_allocs) = hlrc_session_allocs(true);
    assert!(
        refetched.proto.pages_transferred >= 120,
        "every round must re-fetch from the home"
    );
    assert_eq!(
        refetch_allocs, plain_allocs,
        "50 refetches inside open sessions allocated"
    );
}

/// Heap allocations of rounds 40..90 of a two-processor program over
/// one page, counted on the simulator's one carrier thread, so both
/// processors' allocations are in it.
fn round_allocs(
    protocol: ProtocolKind,
    round: fn(&mut adsm_core::Proc, SharedVec<u64>, u64),
) -> (RunReport, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    const WARM: u64 = 40;
    let counted = Arc::new(AtomicU64::new(0));
    let total = counted.clone();
    let mut dsm = Dsm::builder(protocol).nprocs(2).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let outcome = dsm
        .run(move |p| {
            p.barrier();
            let mut before = 0;
            for r in 0..WARM + 50 {
                if r == WARM {
                    before = thread_allocs();
                }
                round(p, data, r);
            }
            p.barrier();
            if p.index() == 0 {
                total.store(thread_allocs() - before, Ordering::Relaxed);
            }
        })
        .expect("two-processor run completes");
    (outcome.report, counted.load(Ordering::Relaxed))
}

/// A lock hand-off ships the grantor's knowledge bounded by its clock,
/// which is copied into a pooled scratch clock, not cloned: two
/// processors taking one lock in turn, with nothing written, allocate
/// nothing at all in steady state — neither the grant from the last
/// releaser nor the release to a queued waiter.
#[test]
fn lock_hand_offs_allocate_no_clock() {
    let (report, spent) = round_allocs(ProtocolKind::Mw, |p, _, _| {
        p.lock(0);
        p.compute(SimTime::from_us(20));
        p.unlock(0);
    });
    assert!(
        report.net.messages(MsgKind::LockGrant) >= 120,
        "the lock changed hands"
    );
    assert_eq!(
        spent, 0,
        "50 rounds of lock hand-offs allocated {spent} times"
    );
}

/// An SW ownership grant ships the owner's knowledge bounded by the
/// owner's clock, copied into the pooled scratch clock: two processors
/// writing one page in turn move its ownership every round, and what a
/// round allocates is its interval close's — the notice list, and the
/// closing clock's copy and its `Arc`: three a round — and the interval
/// log's occasional growth, never a clone of the granting clock besides
/// (which made it four a round).
#[test]
fn sw_ownership_ping_pong_allocates_no_clock() {
    let (report, spent) = round_allocs(ProtocolKind::Sw, |p, data, r| {
        if p.index() as u64 == r % 2 {
            data.set(p, 0, r);
        }
        p.barrier();
    });
    assert!(
        report.proto.ownership_grants >= 80,
        "ownership moved every round"
    );
    assert!(
        spent <= 3 * 50 + 10,
        "50 rounds of ownership moves allocated {spent} times"
    );
}

/// Checking a run's result reads the final image in place: comparing
/// every element of a shared array through
/// [`RunOutcome::elems`](adsm_core::RunOutcome::elems) allocates
/// nothing, where a whole-array `read_vec` copy came first.
#[test]
fn an_outcome_verified_in_place_allocates_nothing() {
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(2).build();
    let data = dsm.alloc_page_aligned::<u64>(4 * 512);
    let outcome = dsm
        .run(move |p| {
            for i in (p.index()..data.len()).step_by(2) {
                data.set(p, i, 3 * i as u64);
            }
            p.barrier();
        })
        .expect("two-writer run completes");
    let before = thread_allocs();
    let verified = outcome
        .elems(&data)
        .enumerate()
        .all(|(i, v)| v == 3 * i as u64);
    let spent = thread_allocs() - before;
    assert!(verified, "the image holds every processor's writes");
    assert_eq!(spent, 0, "verifying in place allocated {spent} times");
    assert_eq!(outcome.elems(&data).len(), data.len());
}
