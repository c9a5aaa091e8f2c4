//! Integration: every application verifies against its sequential
//! reference under every protocol, on an odd processor count (uneven
//! bands — different code paths from the in-crate 4-processor tests).

use adsm::{run_app, run_app_tuned, App, ExecBackend, ProtocolKind, RunOptions, Scale};

fn check(app: App, nprocs: usize) {
    for protocol in ProtocolKind::EVALUATED {
        let run = run_app(app, protocol, nprocs, Scale::Tiny);
        assert!(run.ok, "{app} under {protocol} x{nprocs}: {}", run.detail);
        assert!(run.outcome.report.net.total_messages() > 0);
    }
}

#[test]
fn sor_on_three_procs() {
    check(App::Sor, 3);
}

#[test]
fn is_on_three_procs() {
    check(App::Is, 3);
}

#[test]
fn fft_on_two_procs() {
    // FFT bands need nprocs to divide n=8 at tiny scale.
    check(App::Fft3d, 2);
}

#[test]
fn tsp_on_three_procs() {
    check(App::Tsp, 3);
}

#[test]
fn water_on_three_procs() {
    check(App::Water, 3);
}

#[test]
fn shallow_on_three_procs() {
    check(App::Shallow, 3);
}

#[test]
fn barnes_on_three_procs() {
    check(App::Barnes, 3);
}

#[test]
fn ilink_on_three_procs() {
    check(App::Ilink, 3);
}

#[test]
fn every_app_single_proc_degenerates_cleanly() {
    // One processor: protocols should all behave like local execution
    // (no cross-processor traffic beyond nothing; correctness holds).
    for app in App::ALL {
        for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
            let run = run_app(app, protocol, 1, Scale::Tiny);
            assert!(run.ok, "{app} under {protocol} x1: {}", run.detail);
            assert_eq!(
                run.outcome.report.net.total_messages(),
                0,
                "{app}: single-processor runs must not send messages"
            );
        }
    }
}

/// Every run's memories come from, and go back to, one process-wide
/// pool of page frames, one frame per processor slot, which a run of
/// any size takes: a frame keeps its mapping for the smaller space and
/// grows in place for the larger. Four OS threads run SOR and IS (two
/// sizes of shared space) in turn, on both backends and under every
/// evaluated protocol, so frames are taken, grown, given back with a
/// tail the last run never showed, and unmapped when their slot is
/// taken, under each other's live runs; every run still verifies.
#[test]
fn concurrent_runs_of_two_sizes_share_the_frame_pool() {
    let size = |app| {
        run_app(app, ProtocolKind::Mw, 3, Scale::Tiny)
            .outcome
            .image()
            .len()
    };
    assert_ne!(
        size(App::Sor),
        size(App::Is),
        "the two apps must differ in size"
    );
    let threads: Vec<_> = (0..4usize)
        .map(|t| {
            std::thread::spawn(move || {
                let backend = [ExecBackend::Sim, ExecBackend::Threads][t % 2];
                let opts = RunOptions {
                    backend,
                    ..RunOptions::default()
                };
                for (i, protocol) in ProtocolKind::EVALUATED.into_iter().enumerate() {
                    let app = [App::Sor, App::Is][(t + i) % 2];
                    let run = run_app_tuned(app, protocol, 3, Scale::Tiny, &opts);
                    assert!(
                        run.ok,
                        "{app} under {protocol} on {backend:?}: {}",
                        run.detail
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("every run verifies");
    }
}
