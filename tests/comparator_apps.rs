//! Integration: every application verifies against its sequential
//! reference under the two related-work comparator protocols (SC and
//! HLRC), including every HLRC home-placement policy. These runs are the
//! correctness backing for the §7-positioning measurements of
//! `repro related`.

use adsm::{run_app, run_app_tuned, App, HomePolicy, ProtocolKind, RunOptions, Scale};

#[test]
fn every_app_is_correct_under_sc() {
    for app in App::ALL {
        // FFT bands need nprocs | n at tiny scale; 2 divides everything.
        let nprocs = if app == App::Fft3d { 2 } else { 3 };
        let run = run_app(app, ProtocolKind::Sc, nprocs, Scale::Tiny);
        assert!(run.ok, "{app} under SC x{nprocs}: {}", run.detail);
        assert_eq!(run.outcome.report.proto.twins_created, 0, "{app}: SC twins");
        assert_eq!(run.outcome.report.proto.diffs_created, 0, "{app}: SC diffs");
    }
}

#[test]
fn every_app_is_correct_under_hlrc_round_robin() {
    for app in App::ALL {
        let nprocs = if app == App::Fft3d { 2 } else { 3 };
        let run = run_app(app, ProtocolKind::Hlrc, nprocs, Scale::Tiny);
        assert!(run.ok, "{app} under HLRC x{nprocs}: {}", run.detail);
        let r = &run.outcome.report;
        assert_eq!(r.proto.diffs_alive, 0, "{app}: HLRC must not store diffs");
        assert_eq!(r.proto.gc_runs, 0, "{app}: HLRC never garbage-collects");
    }
}

#[test]
fn every_app_is_correct_under_hlrc_all_policies() {
    for policy in [
        HomePolicy::RoundRobin,
        HomePolicy::FirstTouch,
        HomePolicy::Fixed(0),
        HomePolicy::Fixed(2),
    ] {
        let opts = RunOptions {
            home_policy: policy,
            ..RunOptions::default()
        };
        for app in [App::Sor, App::Is, App::Tsp, App::Ilink] {
            let run = run_app_tuned(app, ProtocolKind::Hlrc, 3, Scale::Tiny, &opts);
            assert!(run.ok, "{app} under HLRC/{policy}: {}", run.detail);
        }
    }
}

#[test]
fn comparators_degenerate_cleanly_on_one_processor() {
    for protocol in ProtocolKind::COMPARATORS {
        for app in [App::Sor, App::Is] {
            let run = run_app(app, protocol, 1, Scale::Tiny);
            assert!(run.ok, "{app} under {protocol} x1: {}", run.detail);
            assert_eq!(
                run.outcome.report.net.total_messages(),
                0,
                "{app} under {protocol}: single-processor runs must not send messages"
            );
        }
    }
}
