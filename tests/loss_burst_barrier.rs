//! Regression: a full-loss burst that spans a barrier must not deadlock
//! the barrier — every arriver and the manager keep retransmitting
//! through the burst, and the run completes once it ends, with the
//! timeouts charged as virtual time.
//!
//! A burst covers every link, so each cell hits the arriver and the
//! manager roles at once. The cells cover the sync styles (barriers,
//! locks+barriers, locks-only), 64 processors, and both execution
//! backends.

use adsm::netsim::{Fault, FaultKind, Scenario, SimTime};
use adsm::{run_app_tuned, App, ExecBackend, ProtocolKind, RunOptions, Scale};

/// A scenario that loses every transmission over the middle half of a
/// run of length `t_ns`: wide enough to span at least one barrier
/// episode in every barrier-structured app at tiny scale.
fn burst_over_middle_half(t_ns: u64) -> Scenario {
    let mut s = Scenario::perfect();
    s.name = "burst-spans-barrier".to_string();
    s.faults = vec![Fault {
        at: SimTime::from_ns(t_ns / 4),
        duration: SimTime::from_ns(t_ns / 2),
        kind: FaultKind::LossBurst {
            loss_ppm: 1_000_000,
        },
    }];
    s
}

/// Runs `app` under a full-loss burst over the middle half of its
/// fault-free run and asserts the run still verifies, retransmitted,
/// and ended later than the plain run (the timeouts were charged, not
/// skipped).
fn burst_cell(app: App, proto: ProtocolKind, nprocs: usize, scale: Scale) {
    let base = RunOptions::default();
    let plain = run_app_tuned(app, proto, nprocs, scale, &base);
    assert!(plain.ok, "{app}/{proto} plain: {}", plain.detail);
    let t = plain.outcome.report.time.as_ns();

    let run = run_app_tuned(
        app,
        proto,
        nprocs,
        scale,
        &RunOptions {
            scenario: Some(burst_over_middle_half(t)),
            ..base
        },
    );
    assert!(run.ok, "{app}/{proto} under the burst: {}", run.detail);
    assert!(
        run.outcome.report.net.retransmissions() > 0,
        "{app}/{proto}: nothing was retransmitted during the burst"
    );
    let faulted = run.outcome.report.time.as_ns();
    assert!(
        faulted > t,
        "{app}/{proto}: finished at {faulted} ns, no later than the fault-free {t} ns"
    );
}

/// Barriers, locks and barriers, and locks alone all get through a
/// full-loss burst.
#[test]
fn loss_burst_spanning_barrier_completes() {
    burst_cell(App::Sor, ProtocolKind::Wfs, 4, Scale::Tiny);
    burst_cell(App::Is, ProtocolKind::Mw, 4, Scale::Tiny);
    burst_cell(App::Water, ProtocolKind::Hlrc, 4, Scale::Tiny);
    // Locks-only: the burst spans lock handoffs instead of barriers.
    burst_cell(App::Tsp, ProtocolKind::Wfs, 4, Scale::Tiny);
}

/// A 64-processor combining-tree barrier gets through a full-loss burst.
#[test]
fn loss_burst_spanning_barrier_at_64_procs() {
    burst_cell(App::Sor, ProtocolKind::Wfs, 64, Scale::Large);
}

/// The threads backend gets through a full-loss burst too (timing is
/// not meaningful there, so only verification is pinned).
#[test]
fn loss_burst_spanning_barrier_on_threads_backend() {
    let base = RunOptions::default();
    let plain = run_app_tuned(App::Sor, ProtocolKind::Wfs, 4, Scale::Tiny, &base);
    assert!(plain.ok);
    let run = run_app_tuned(
        App::Sor,
        ProtocolKind::Wfs,
        4,
        Scale::Tiny,
        &RunOptions {
            scenario: Some(burst_over_middle_half(plain.outcome.report.time.as_ns())),
            backend: ExecBackend::Threads,
            ..base
        },
    );
    assert!(run.ok, "threads under the burst: {}", run.detail);
}
