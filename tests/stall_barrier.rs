//! Regression: a `ProcStall` window that spans a barrier must not
//! deadlock the barrier — it has to tolerate a stalled-but-alive
//! arriver (and a stalled manager), holding its messages until the
//! window closes and charging the wait as delivery delay.
//!
//! The chaos engine's original fault corpus never exercised this shape;
//! these cells pin it across the barrier roles a stall can hit
//! (arriver, manager), sync styles (barriers, locks+barriers,
//! locks-only), 64 processors, and both execution backends.

use adsm::netsim::{Fault, FaultKind, Scenario, SimTime};
use adsm::{run_app_tuned, App, ExecBackend, ProtocolKind, RunOptions, Scale};

/// Runs `app` with one stall window pinned over the middle half of its
/// fault-free run — wide enough to span at least one barrier episode in
/// every barrier-structured app at tiny scale — and asserts the run
/// still verifies, took at least as long as the window's end (the wait
/// was charged, not skipped), and is no faster than the plain run.
fn stall_cell(app: App, proto: ProtocolKind, nprocs: usize, scale: Scale, victim: u32) {
    let base = RunOptions::default();
    let plain = run_app_tuned(app, proto, nprocs, scale, &base);
    assert!(plain.ok, "{app}/{proto} plain: {}", plain.detail);
    let t = plain.outcome.report.time.as_ns();

    let mut s = Scenario::perfect();
    s.name = "stall-spans-barrier".to_string();
    s.faults = vec![Fault {
        at: SimTime::from_ns(t / 4),
        duration: SimTime::from_ns(t / 2),
        kind: FaultKind::ProcStall { proc: victim },
    }];
    let run = run_app_tuned(
        app,
        proto,
        nprocs,
        scale,
        &RunOptions {
            scenario: Some(s),
            ..base
        },
    );
    assert!(run.ok, "{app}/{proto} stalled: {}", run.detail);
    let faulted = run.outcome.report.time.as_ns();
    assert!(
        faulted >= t / 4 + t / 2,
        "{app}/{proto}: finished at {faulted} ns, inside the stall window"
    );
    assert!(
        faulted >= t,
        "{app}/{proto}: the stalled run beat the fault-free run"
    );
}

/// A stalled arriver and a stalled manager both cross the barrier without
/// deadlocking, across the sync styles of the app set.
#[test]
fn stall_spanning_barrier_completes() {
    for victim in [0u32, 1] {
        stall_cell(App::Sor, ProtocolKind::Wfs, 4, Scale::Tiny, victim);
        stall_cell(App::Is, ProtocolKind::Mw, 4, Scale::Tiny, victim);
    }
    stall_cell(App::Water, ProtocolKind::Hlrc, 4, Scale::Tiny, 2);
    // Locks-only: the stall spans lock handoffs instead of barriers.
    stall_cell(App::Tsp, ProtocolKind::Wfs, 4, Scale::Tiny, 3);
}

/// A 64-processor barrier tolerates a stalled manager (processor 0)
/// and a stalled arriver in the middle and at the end of the range.
#[test]
fn stall_spanning_barrier_at_64_procs() {
    for victim in [0u32, 17, 63] {
        stall_cell(App::Sor, ProtocolKind::Wfs, 64, Scale::Large, victim);
    }
}

/// The threads backend crosses a stalled barrier too (timing is not
/// meaningful there, so only verification and completion are pinned).
#[test]
fn stall_spanning_barrier_on_threads_backend() {
    let base = RunOptions::default();
    let plain = run_app_tuned(App::Sor, ProtocolKind::Wfs, 4, Scale::Tiny, &base);
    assert!(plain.ok);
    let t = plain.outcome.report.time.as_ns();
    let mut s = Scenario::perfect();
    s.name = "stall-threads".to_string();
    s.faults = vec![Fault {
        at: SimTime::from_ns(t / 4),
        duration: SimTime::from_ns(t / 2),
        kind: FaultKind::ProcStall { proc: 1 },
    }];
    let run = run_app_tuned(
        App::Sor,
        ProtocolKind::Wfs,
        4,
        Scale::Tiny,
        &RunOptions {
            scenario: Some(s),
            backend: ExecBackend::Threads,
            ..base
        },
    );
    assert!(run.ok, "threads stalled: {}", run.detail);
}
