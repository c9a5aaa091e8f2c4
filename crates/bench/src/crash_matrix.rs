//! `repro crash-matrix` — the crash-recovery and home-failover sweep.
//!
//! Runs the evaluation applications under the three scheduled fault
//! shapes of the recovery layer — a processor crash with instant
//! restart, a crash with a down window and explicit restart, and an
//! HLRC home failover onto the replicated backup — and reports the
//! recovery economics per cell: recovery latency (`recovery_ns`),
//! epoch-fence drops, post-restart refetches and failover promotions.
//!
//! Three gates per cell (the same oracles as `tests/crash_recovery.rs`):
//!
//! 1. **Correctness** — the recovered run still verifies against the
//!    app's sequential reference (`AppRun::ok`).
//! 2. **Re-run** — a re-run of the same scenario reproduces the run
//!    bit-identically (crash events and recovery traffic are
//!    deterministic), and the journal's sums equal the run's chaos
//!    counters, epoch-fence drops included.
//! 3. **Fault-free no-op** — the same scenario with its fault schedule
//!    emptied equals a plain run exactly: recovery machinery costs
//!    nothing until a fault fires.
//!
//! The sweep prints a summary table and serialises every cell to
//! `BENCH_crash.json` (schema in `docs/BENCH_SCHEMA.md`).

use std::fmt::Write as _;

use adsm_apps::{run_app_tuned, App, AppRun, RunOptions, Scale};
use adsm_core::{Fault, FaultKind, ProtocolKind, Scenario, SimTime};

use crate::scenarios::{reproduces, REPRODUCE_FAILURE};

/// The three fault shapes of the sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum FaultShape {
    /// Crash at mid-run, restart at the same instant (no down window).
    CrashInstant,
    /// Crash at mid-run, explicit restart a quarter-run later; traffic
    /// to the dead incarnation is epoch-fenced in between.
    CrashWindow,
    /// HLRC home failover: the home's pages promote to the replicated
    /// backup at mid-run.
    HomeFailover,
}

impl FaultShape {
    /// All shapes, in sweep order.
    pub const ALL: [FaultShape; 3] = [
        FaultShape::CrashInstant,
        FaultShape::CrashWindow,
        FaultShape::HomeFailover,
    ];

    /// Stable name used in the table and the JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultShape::CrashInstant => "crash-instant",
            FaultShape::CrashWindow => "crash-window",
            FaultShape::HomeFailover => "home-failover",
        }
    }

    /// The protocol each shape exercises: the two ends of the paper's
    /// adaptive spectrum for crashes, the home-based comparator (the
    /// only protocol with replicated homes) for failover.
    pub fn protocol(self) -> ProtocolKind {
        match self {
            FaultShape::CrashInstant => ProtocolKind::Wfs,
            FaultShape::CrashWindow => ProtocolKind::Mw,
            FaultShape::HomeFailover => ProtocolKind::Hlrc,
        }
    }

    /// The fault schedule, placed against the fault-free run time `t`.
    fn faults(self, t: SimTime, victim: u32) -> Vec<Fault> {
        let mid = SimTime::from_ns(t.as_ns() / 2);
        match self {
            FaultShape::CrashInstant => vec![Fault {
                at: mid,
                duration: SimTime::ZERO,
                kind: FaultKind::ProcCrash { proc: victim },
            }],
            FaultShape::CrashWindow => vec![
                Fault {
                    at: mid,
                    duration: SimTime::ZERO,
                    kind: FaultKind::ProcCrash { proc: victim },
                },
                Fault {
                    at: SimTime::from_ns(t.as_ns() / 2 + t.as_ns() / 4),
                    duration: SimTime::ZERO,
                    kind: FaultKind::ProcRestart { proc: victim },
                },
            ],
            FaultShape::HomeFailover => vec![Fault {
                at: mid,
                duration: SimTime::ZERO,
                kind: FaultKind::HomeFailover { home: 0 },
            }],
        }
    }
}

/// One app x fault-shape cell of the sweep.
pub struct CrashCell {
    /// Application.
    pub app: App,
    /// Fault shape name.
    pub shape: &'static str,
    /// Protocol the cell ran under.
    pub protocol: ProtocolKind,
    /// Did the recovered run match the sequential reference?
    pub ok: bool,
    /// Verification detail when `ok` is false.
    pub detail: String,
    /// Did a re-run of the scenario reproduce the run, and does its
    /// journal sum to the chaos counters?
    pub replay_ok: bool,
    /// Did the emptied-schedule run equal the plain run exactly?
    pub baseline_ok: bool,
    /// Simulated execution time under the fault.
    pub time: SimTime,
    /// Virtual time spent inside recovery (wipe to re-integration).
    pub recovery_ns: u64,
    /// Copies discarded by the epoch fence during down windows.
    pub epoch_drops: u64,
    /// Crash events that fired.
    pub proc_crashes: u64,
    /// Pages refetched after restart to rebuild the victim's view.
    pub recovery_refetches: u64,
    /// Pages promoted from the backup store at failover.
    pub failover_promotions: u64,
}

impl CrashCell {
    /// All three gates green?
    pub fn pass(&self) -> bool {
        self.ok && self.replay_ok && self.baseline_ok
    }
}

/// The full sweep result.
pub struct CrashReport {
    /// Cluster size.
    pub nprocs: usize,
    /// Input scale.
    pub scale: Scale,
    /// One cell per app x fault shape.
    pub cells: Vec<CrashCell>,
}

/// Runs the sweep: `apps` x [`FaultShape::ALL`].
pub fn measure_crash_matrix(nprocs: usize, scale: Scale, apps: &[App]) -> CrashReport {
    let mut cells = Vec::new();
    for &app in apps {
        for shape in FaultShape::ALL {
            eprintln!("  [crash-matrix] {app} under {}...", shape.name());
            cells.push(run_cell(nprocs, scale, app, shape));
        }
    }
    CrashReport {
        nprocs,
        scale,
        cells,
    }
}

fn run_cell(nprocs: usize, scale: Scale, app: App, shape: FaultShape) -> CrashCell {
    let protocol = shape.protocol();
    let run_under = |scenario: Option<Scenario>| {
        let opts = RunOptions {
            scenario,
            ..RunOptions::default()
        };
        run_app_tuned(app, protocol, nprocs, scale, &opts)
    };

    // The fault-free yardstick (and gate-3 baseline): no scenario
    // attached at all.
    let plain = run_under(None);
    let victim = nprocs as u32 - 1;

    let mut scenario = Scenario::perfect();
    scenario.name = format!("{}-{}", shape.name(), app.name());
    scenario.faults = shape.faults(plain.outcome.report.time, victim);

    let run = run_under(Some(scenario.clone()));
    let r = &run.outcome.report;

    // Gate 2: a re-run of the scenario reproduces the run.
    let replay_ok = reproduces(&run, &scenario, |s| run_under(Some(s)));

    // Gate 3: emptying the fault schedule makes the scenario a no-op.
    let mut benign = scenario;
    benign.faults.clear();
    let baseline_ok = eq_plain(&run_under(Some(benign)), &plain);

    CrashCell {
        app,
        shape: shape.name(),
        protocol,
        ok: run.ok,
        detail: run.detail,
        replay_ok,
        baseline_ok,
        time: r.time,
        recovery_ns: r.proto.recovery_ns,
        epoch_drops: r.net.epoch_drops(),
        proc_crashes: r.proto.proc_crashes,
        recovery_refetches: r.proto.recovery_refetches,
        failover_promotions: r.proto.failover_promotions,
    }
}

fn eq_plain(a: &AppRun, b: &AppRun) -> bool {
    a.ok && b.ok
        && a.outcome.report.net == b.outcome.report.net
        && a.outcome.report.time == b.outcome.report.time
        && a.outcome.image() == b.outcome.image()
}

impl CrashReport {
    /// Cells failing any gate, plus cells whose fault visibly failed to
    /// fire (empty = sweep passed).
    pub fn failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        for c in &self.cells {
            if !c.ok {
                fails.push(format!(
                    "{} under {}: verification failed: {}",
                    c.app, c.shape, c.detail
                ));
            }
            if !c.replay_ok {
                fails.push(format!("{} under {}: {REPRODUCE_FAILURE}", c.app, c.shape));
            }
            if !c.baseline_ok {
                fails.push(format!(
                    "{} under {}: fault-free run differs from the plain run",
                    c.app, c.shape
                ));
            }
            let fired = if c.shape == "home-failover" {
                c.failover_promotions > 0
            } else {
                c.proc_crashes > 0 && c.recovery_ns > 0
            };
            if !fired {
                fails.push(format!("{} under {}: fault never fired", c.app, c.shape));
            }
        }
        fails
    }

    /// Human-readable summary table.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Crash-recovery matrix — {} procs, {} scale",
            self.nprocs, self.scale
        );
        let _ = writeln!(
            s,
            "{:<8} {:<14} {:<6} {:>10} {:>12} {:>7} {:>9} {:>9}  gates",
            "app", "shape", "proto", "time(ms)", "recovery(us)", "edrops", "refetch", "promoted"
        );
        for c in &self.cells {
            let gates = format!(
                "{}{}{}",
                if c.ok { "V" } else { "x" },
                if c.replay_ok { "R" } else { "x" },
                if c.baseline_ok { "B" } else { "x" },
            );
            let _ = writeln!(
                s,
                "{:<8} {:<14} {:<6} {:>10.2} {:>12.1} {:>7} {:>9} {:>9}  {}",
                c.app.name(),
                c.shape,
                c.protocol.name(),
                c.time.as_ms(),
                c.recovery_ns as f64 / 1_000.0,
                c.epoch_drops,
                c.recovery_refetches,
                c.failover_promotions,
                gates
            );
        }
        s
    }

    /// Serialises the sweep to the `BENCH_crash.json` schema.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"crash\",");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"nprocs\": {},", self.nprocs);
        let _ = writeln!(s, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"app\": \"{}\",", c.app.name());
            let _ = writeln!(s, "      \"shape\": \"{}\",", c.shape);
            let _ = writeln!(s, "      \"protocol\": \"{}\",", c.protocol.name());
            let _ = writeln!(s, "      \"ok\": {},", c.ok);
            let _ = writeln!(s, "      \"replay_ok\": {},", c.replay_ok);
            let _ = writeln!(s, "      \"baseline_ok\": {},", c.baseline_ok);
            let _ = writeln!(s, "      \"time_ns\": {},", c.time.as_ns());
            let _ = writeln!(s, "      \"recovery_ns\": {},", c.recovery_ns);
            let _ = writeln!(s, "      \"epoch_drops\": {},", c.epoch_drops);
            let _ = writeln!(s, "      \"proc_crashes\": {},", c.proc_crashes);
            let _ = writeln!(s, "      \"recovery_refetches\": {},", c.recovery_refetches);
            let _ = writeln!(
                s,
                "      \"failover_promotions\": {}",
                c.failover_promotions
            );
            let _ = writeln!(
                s,
                "    }}{}",
                if i + 1 < self.cells.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cells_pass_all_gates() {
        let report = measure_crash_matrix(4, Scale::Tiny, &[App::Sor]);
        assert_eq!(report.cells.len(), 3);
        let fails = report.failures();
        assert!(fails.is_empty(), "{fails:?}");
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"crash\""));
        assert!(json.contains("\"home-failover\""));
        assert!(json.contains("\"recovery_ns\""));
    }
}
