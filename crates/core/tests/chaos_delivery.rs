//! End-to-end tests of the chaos delivery layer: lossy runs stay
//! correct and count their deviations, a scenario run again reproduces
//! its run bit-identically, journals sum to the chaos counters, and
//! perfect scenarios are invisible.

use adsm_core::{Dsm, ExecBackend, ProtocolKind, RunOptions, RunOutcome, Scenario, SimTime};

/// The workload: false sharing plus a migratory lock counter — enough
/// cross-processor traffic (page fetches, diffs, lock grants, barrier
/// fan-ins) to give a lossy scenario something to drop.
fn chatty_app(dsm: &mut Dsm) -> impl Fn(&mut adsm_core::Proc) + Send + Sync + 'static {
    let data = dsm.alloc_page_aligned::<u64>(512);
    let counter = dsm.alloc_page_aligned::<u64>(1);
    move |p| {
        let chunk = data.len() / p.nprocs();
        let base = p.index() * chunk;
        for it in 0..4 {
            for i in 0..chunk {
                data.set(p, base + i, (it + 1) as u64 * (base + i) as u64 + 1);
            }
            p.lock(3);
            counter.update(p, 0, |v| v + 1);
            p.unlock(3);
            p.compute(SimTime::from_us(50));
            p.barrier();
            let nb = ((p.index() + 1) % p.nprocs()) * chunk;
            assert_eq!(data.get(p, nb), (it + 1) as u64 * nb as u64 + 1);
            p.barrier();
        }
    }
}

fn run_with(protocol: ProtocolKind, scenario: Option<Scenario>) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol)
        .nprocs(4)
        .options(RunOptions {
            scenario,
            ..RunOptions::default()
        })
        .build();
    let app = chatty_app(&mut dsm);
    dsm.run(app).unwrap()
}

#[test]
fn lossy_run_is_correct_and_counts_deviations() {
    for protocol in [ProtocolKind::Wfs, ProtocolKind::Mw] {
        let plain = run_with(protocol, None);
        // 2% loss + 1% duplication: deviations are certain at this
        // traffic volume, correctness must be untouched.
        let mut scenario = Scenario::lossy("lossy-test", 9, 20_000);
        scenario.link.dup_ppm = 10_000;
        let chaotic = run_with(protocol, Some(scenario));

        let net = &chaotic.report.net;
        assert!(net.dropped_msgs() > 0, "no drops at 2% loss");
        assert_eq!(net.retransmissions(), net.dropped_msgs());
        assert_eq!(net.timeout_waits(), net.dropped_msgs());
        assert!(net.duplicate_msgs() > 0, "no duplicates at 1% dup");
        assert!(
            chaotic.report.time > plain.report.time,
            "timeouts must cost virtual time"
        );
        // The answers are identical: retransmission is invisible to the
        // application.
        assert_eq!(
            chaotic.image(),
            plain.image(),
            "{protocol}: image diverged under loss"
        );
        let journal = chaotic.journal().expect("scenario run records");
        assert!(!journal.is_empty());
        assert_eq!(journal.check_counters(net), Ok(()));
        assert!(plain.journal().is_none(), "plain runs must not journal");
    }
}

#[test]
fn a_scenario_run_again_reproduces_its_run() {
    let mut scenario = Scenario::lossy("rerun-test", 1997, 30_000);
    scenario.link.dup_ppm = 15_000;
    scenario.link.reorder_ppm = 50_000;
    let recorded = run_with(ProtocolKind::Wfs, Some(scenario.clone()));
    let again = run_with(ProtocolKind::Wfs, Some(scenario));
    assert_eq!(again.report.net, recorded.report.net);
    assert_eq!(again.report.time, recorded.report.time);
    assert_eq!(again.report.proc_times, recorded.report.proc_times);
    assert_eq!(again.image(), recorded.image());
    let journal = recorded.journal().expect("recorded");
    assert_eq!(again.journal(), Some(journal));
    assert!(
        journal.events.iter().any(|e| e.dup),
        "corpus exercised duplicates"
    );
    assert_eq!(journal.check_counters(&recorded.report.net), Ok(()));
}

#[test]
fn perfect_scenario_is_invisible() {
    let plain = run_with(ProtocolKind::WfsWg, None);
    let perfect = run_with(ProtocolKind::WfsWg, Some(Scenario::perfect()));
    assert_eq!(perfect.report.net, plain.report.net);
    assert_eq!(perfect.report.time, plain.report.time);
    assert_eq!(perfect.image(), plain.image());
    assert!(perfect.journal().expect("recorded").is_empty());
    assert_eq!(perfect.report.net.retransmissions(), 0);
    assert_eq!(perfect.report.net.dropped_msgs(), 0);
    assert_eq!(perfect.report.net.duplicate_msgs(), 0);
    assert_eq!(perfect.report.net.timeout_waits(), 0);
}

/// A scenario survives the threads backend: draws are keyed on
/// per-link sequence numbers, so correctness (not timing) holds even
/// without the deterministic scheduler.
#[test]
fn lossy_scenario_on_threads_backend_stays_correct() {
    let plain = run_with(ProtocolKind::Wfs, None);
    let mut dsm = Dsm::builder(ProtocolKind::Wfs)
        .nprocs(4)
        .options(RunOptions {
            backend: ExecBackend::Threads,
            scenario: Some(Scenario::lossy("threads-lossy", 5, 20_000)),
            ..RunOptions::default()
        })
        .build();
    let app = chatty_app(&mut dsm);
    let run = dsm.run(app).unwrap();
    assert_eq!(run.image(), plain.image());
}
