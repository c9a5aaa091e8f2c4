//! The fault-oracle test layer for crash-recoverable processors and
//! replicated HLRC homes.
//!
//! Every cell of the matrix runs a real application under a scheduled
//! fault — a processor crash (instant reboot), a crash with a down
//! window and explicit restart, or an HLRC home failover — and gates on
//! three oracles:
//!
//! 1. **sequential reference** — the recovered run's shared memory must
//!    still verify against the app's sequential reference (`run.ok`):
//!    recovery rebuilt a view indistinguishable, to the program, from
//!    never having crashed.
//! 2. **fault-free no-op** — the same scenario with its fault schedule
//!    emptied must be *bit-identical* to a plain run (image and counter
//!    digest): the recovery machinery costs nothing until a fault
//!    actually fires.
//! 3. **the scenario is the record** — the scenario, re-read from its
//!    text form and run again, must reproduce the run bit-identically
//!    (same `NetStats`, virtual time, per-processor clocks, image and
//!    journal): crash events, epoch fencing and recovery traffic are all
//!    deterministic. The journal's sums must equal the chaos counters.

use adsm::netsim::{Fault, FaultKind, Scenario, SimTime};
use adsm::{run_app_tuned, App, ProtocolKind, RunOptions, Scale};

const APPS: [App; 8] = [
    App::Sor,
    App::Is,
    App::Fft3d,
    App::Tsp,
    App::Water,
    App::Shallow,
    App::Barnes,
    App::Ilink,
];

/// The LRC-family protocols with a replicated interval log to recover
/// from (the SW/MW spectrum the paper adapts across, plus the
/// home-based comparator).
const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::Wfs, ProtocolKind::Mw, ProtocolKind::Hlrc];

/// FFT bands need `nprocs | n` at tiny scale; 2 divides everything.
fn procs_for(app: App) -> usize {
    if app == App::Fft3d {
        2
    } else {
        4
    }
}

/// FNV-1a over the final coherent memory image (same constants as the
/// golden matrix).
fn image_hash(img: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in img {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Counter digest covering the recovery counters on top of the golden
/// fields.
fn digest(r: &adsm::RunReport) -> [u64; 12] {
    [
        r.time.as_ns(),
        r.net.total_messages(),
        r.net.total_bytes(),
        r.proto.read_faults,
        r.proto.write_faults,
        r.proto.diffs_created,
        r.proto.pages_transferred,
        r.proto.epoch_drops,
        r.proto.proc_crashes,
        r.proto.recovery_refetches,
        r.proto.failover_promotions,
        r.proto.recovery_ns,
    ]
}

/// A scenario with perfect links and the given fault schedule: the only
/// chaos is the schedule itself.
fn faults_only(name: &str, faults: Vec<Fault>) -> Scenario {
    let mut s = Scenario::perfect();
    s.name = name.to_string();
    s.faults = faults;
    s
}

/// Runs the combo at `Tiny`, under `scenario` if one is given.
fn run(app: App, proto: ProtocolKind, scenario: Option<Scenario>) -> adsm::AppRun {
    let opts = RunOptions {
        scenario,
        ..RunOptions::default()
    };
    run_app_tuned(app, proto, procs_for(app), Scale::Tiny, &opts)
}

/// Fault-free run time of the combo — the yardstick crash instants are
/// placed against.
fn probe_time(app: App, proto: ProtocolKind) -> SimTime {
    let run = run(app, proto, None);
    assert!(run.ok, "{app}/{proto} probe: {}", run.detail);
    run.outcome.report.time
}

/// Runs one faulted cell and applies the three oracles. Returns the
/// faulted run for extra per-shape assertions.
fn run_cell(app: App, proto: ProtocolKind, scenario: Scenario) -> adsm::AppRun {
    // Oracle 2: emptied fault schedule == plain run, bit for bit.
    let plain = run(app, proto, None);
    assert!(plain.ok, "{app}/{proto} plain: {}", plain.detail);
    let mut benign = scenario.clone();
    benign.faults.clear();
    let benign_run = run(app, proto, Some(benign));
    assert!(benign_run.ok, "{app}/{proto} benign: {}", benign_run.detail);
    assert_eq!(
        image_hash(plain.outcome.image()),
        image_hash(benign_run.outcome.image()),
        "{app}/{proto}: fault-free scenario changed the memory image"
    );
    assert_eq!(
        digest(&plain.outcome.report),
        digest(&benign_run.outcome.report),
        "{app}/{proto}: fault-free scenario changed the counter digest"
    );

    // Oracle 1: the faulted run still verifies against the sequential
    // reference.
    let faulted = run(app, proto, Some(scenario.clone()));
    assert!(faulted.ok, "{app}/{proto} faulted: {}", faulted.detail);

    // Oracle 3: the scenario, through its text form, reproduces the run.
    let reread = Scenario::parse(&scenario.to_text()).expect("canonical scenario text parses");
    let again = run(app, proto, Some(reread));
    assert!(again.ok, "{app}/{proto} re-run: {}", again.detail);
    let (f, a) = (&faulted.outcome, &again.outcome);
    assert_eq!(a.report.net, f.report.net, "{app}/{proto}: re-run NetStats");
    assert_eq!(a.report.time, f.report.time, "{app}/{proto}: re-run time");
    assert_eq!(
        a.report.proc_times, f.report.proc_times,
        "{app}/{proto}: re-run clocks"
    );
    assert_eq!(
        digest(&a.report),
        digest(&f.report),
        "{app}/{proto}: re-run digest"
    );
    assert!(a.image() == f.image(), "{app}/{proto}: re-run image");
    let journal = f.journal().expect("scenario runs record a journal");
    assert_eq!(a.journal(), Some(journal), "{app}/{proto}: re-run journal");
    if let Err(e) = journal.check_counters(&f.report.net) {
        panic!("{app}/{proto}: {e}");
    }

    faulted
}

/// Crash one processor mid-run with an instant reboot (empty down
/// window: no message ever lands in it, but the incarnation's state is
/// lost and its epoch bumped). The recovered run must verify, re-run
/// identically, and account exactly one crash.
#[test]
fn crash_with_instant_restart_recovers_every_app() {
    for app in APPS {
        for proto in PROTOCOLS {
            let t = probe_time(app, proto);
            let victim = (procs_for(app) - 1) as u32;
            let scenario = faults_only(
                "crash-instant",
                vec![Fault {
                    at: SimTime::from_ns(t.as_ns() / 2),
                    duration: SimTime::ZERO,
                    kind: FaultKind::ProcCrash { proc: victim },
                }],
            );
            let run = run_cell(app, proto, scenario);
            let stats = &run.outcome.report.proto;
            assert_eq!(
                stats.proc_crashes, 1,
                "{app}/{proto}: the scheduled crash did not fire"
            );
            assert!(
                stats.recovery_ns > 0,
                "{app}/{proto}: recovery charged no virtual time"
            );
        }
    }
}

/// Crash one processor with a real down window and an explicit restart:
/// peers that message the dead incarnation hit the epoch fence and
/// retry. The recovered run must verify and re-run identically, and its
/// journal must account for every epoch drop.
#[test]
fn crash_with_down_window_recovers_every_app() {
    for app in APPS {
        for proto in PROTOCOLS {
            let t = probe_time(app, proto);
            let victim = (procs_for(app) - 1) as u32;
            let crash_at = t.as_ns() / 2;
            let window = (t.as_ns() / 4).max(1);
            let scenario = faults_only(
                "crash-window",
                vec![
                    Fault {
                        at: SimTime::from_ns(crash_at),
                        duration: SimTime::ZERO,
                        kind: FaultKind::ProcCrash { proc: victim },
                    },
                    Fault {
                        at: SimTime::from_ns(crash_at + window),
                        duration: SimTime::ZERO,
                        kind: FaultKind::ProcRestart { proc: victim },
                    },
                ],
            );
            let run = run_cell(app, proto, scenario);
            let stats = &run.outcome.report.proto;
            assert_eq!(
                stats.proc_crashes, 1,
                "{app}/{proto}: the scheduled crash did not fire"
            );
            assert!(
                run.outcome.report.time.as_ns() >= crash_at + window,
                "{app}/{proto}: the run finished inside the down window"
            );
        }
    }
}

/// Decommission an HLRC home mid-run: every page homed there is
/// promoted to its replicated backup, readers are redirected, and the
/// run still verifies and re-runs identically. Scheduling the failover
/// is what replicates the homes: oracle 2's emptied schedule pins that
/// HLRC without one pays no replication.
#[test]
fn home_failover_recovers_every_app() {
    for app in APPS {
        let proto = ProtocolKind::Hlrc;
        let t = probe_time(app, proto);
        let scenario = faults_only(
            "home-failover",
            vec![Fault {
                at: SimTime::from_ns(t.as_ns() / 2),
                duration: SimTime::ZERO,
                kind: FaultKind::HomeFailover { home: 0 },
            }],
        );
        let run = run_cell(app, proto, scenario);
        let stats = &run.outcome.report.proto;
        assert!(
            stats.failover_promotions > 0,
            "{app}/{proto}: the failover promoted no pages"
        );
        assert_eq!(
            stats.proc_crashes, 0,
            "{app}/{proto}: failover is not a crash"
        );
    }
}

/// Misconfigured fault schedules are rejected up front, not silently
/// swallowed mid-run.
#[test]
fn fault_schedules_without_recovery_machinery_are_rejected() {
    let crash = faults_only(
        "bad-crash",
        vec![Fault {
            at: SimTime::ZERO,
            duration: SimTime::ZERO,
            kind: FaultKind::ProcCrash { proc: 0 },
        }],
    );
    // SC keeps no interval log to recover from.
    let r = adsm::Dsm::builder(ProtocolKind::Sc)
        .nprocs(2)
        .scenario(crash.clone())
        .build()
        .run(|_| {});
    assert!(matches!(r, Err(adsm::RunError::BadConfig(_))));

    // Failover under a protocol without replicated homes.
    let failover = faults_only(
        "bad-failover",
        vec![Fault {
            at: SimTime::ZERO,
            duration: SimTime::ZERO,
            kind: FaultKind::HomeFailover { home: 0 },
        }],
    );
    let r = adsm::Dsm::builder(ProtocolKind::Wfs)
        .nprocs(2)
        .scenario(failover)
        .build()
        .run(|_| {});
    assert!(matches!(r, Err(adsm::RunError::BadConfig(_))));

    // Out-of-range victim.
    let oob = faults_only(
        "bad-proc",
        vec![Fault {
            at: SimTime::ZERO,
            duration: SimTime::ZERO,
            kind: FaultKind::ProcCrash { proc: 9 },
        }],
    );
    let r = adsm::Dsm::builder(ProtocolKind::Wfs)
        .nprocs(2)
        .scenario(oob)
        .build()
        .run(|_| {});
    assert!(matches!(r, Err(adsm::RunError::BadConfig(_))));
}
