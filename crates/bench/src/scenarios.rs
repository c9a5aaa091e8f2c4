//! `repro scenarios` — the chaos-scenario sweep.
//!
//! Runs the evaluation applications under the corpus of chaos
//! scenarios ([`Scenario::corpus`]): perfect delivery, 1% loss, 10%
//! loss with heavy reordering, bursty loss windows, and latency jitter
//! with duplication. Three gates per cell:
//!
//! 1. **Correctness** — the run's final image must still match the
//!    app's sequential reference (`AppRun::ok`): retransmission and
//!    duplicate suppression may cost virtual time but never answers.
//! 2. **Re-run** — the scenario is the record: re-read from its text
//!    form and run again, it must reproduce the run bit-identically
//!    (same [`NetStats`](adsm_core::NetStats) totals, virtual time,
//!    per-processor clocks, final image and journal), and the journal's
//!    sums must equal the run's chaos counters
//!    ([`DeliveryJournal::check_counters`](adsm_core::DeliveryJournal::check_counters)).
//! 3. **Fault-free no-op** — under the perfect scenario the delivery
//!    layer must be invisible: the report and image must equal a plain
//!    run with no scenario attached at all.
//!
//! The sweep prints a summary table and serialises every cell to
//! `BENCH_scenarios.json` (schema in `docs/BENCH_SCHEMA.md`).

use std::fmt::Write as _;

use adsm_apps::{run_app_tuned, App, AppRun, RunOptions, Scale};
use adsm_core::{ProtocolKind, Scenario, SimTime};

/// One app x scenario cell of the sweep.
pub struct ScenarioCell {
    /// Application.
    pub app: App,
    /// Scenario name (from the corpus).
    pub scenario: String,
    /// Did the chaotic run match the sequential reference?
    pub ok: bool,
    /// Verification detail when `ok` is false.
    pub detail: String,
    /// Simulated execution time under the scenario.
    pub time: SimTime,
    /// Messages retransmitted after a timeout.
    pub retransmissions: u64,
    /// Messages dropped by the scenario.
    pub dropped_msgs: u64,
    /// Duplicate deliveries suppressed at the receiver.
    pub duplicate_msgs: u64,
    /// Timeout windows the senders sat through.
    pub timeout_waits: u64,
    /// Deviation events in the recorded journal.
    pub journal_events: usize,
    /// Did the scenario, re-read from its text form, reproduce the run
    /// bit-identically, and does its journal sum to the chaos counters?
    pub replay_ok: bool,
    /// Perfect scenario only: did the run equal a plain (no-scenario)
    /// run exactly? `true` (vacuously) for chaotic scenarios.
    pub baseline_ok: bool,
}

impl ScenarioCell {
    /// All three gates green?
    pub fn pass(&self) -> bool {
        self.ok && self.replay_ok && self.baseline_ok
    }
}

/// The full sweep result.
pub struct ScenarioReport {
    /// Cluster size.
    pub nprocs: usize,
    /// Input scale.
    pub scale: Scale,
    /// Protocol the sweep ran under.
    pub protocol: ProtocolKind,
    /// One cell per app x scenario.
    pub cells: Vec<ScenarioCell>,
}

/// Runs the sweep: `apps` x the scenario corpus under `protocol`.
pub fn measure_scenarios(
    nprocs: usize,
    scale: Scale,
    apps: &[App],
    protocol: ProtocolKind,
    corpus: &[Scenario],
) -> ScenarioReport {
    let mut cells = Vec::new();
    for &app in apps {
        // The fault-free comparison baseline: one plain run per app.
        eprintln!("  [scenarios] {app} baseline...");
        let plain = run_app_tuned(app, protocol, nprocs, scale, &RunOptions::default());
        for scenario in corpus {
            eprintln!("  [scenarios] {app} under {}...", scenario.name);
            cells.push(run_cell(nprocs, scale, app, protocol, scenario, &plain));
        }
    }
    ScenarioReport {
        nprocs,
        scale,
        protocol,
        cells,
    }
}

fn run_cell(
    nprocs: usize,
    scale: Scale,
    app: App,
    protocol: ProtocolKind,
    scenario: &Scenario,
    plain: &AppRun,
) -> ScenarioCell {
    let run_under = |scenario: Scenario| {
        let opts = RunOptions {
            scenario: Some(scenario),
            ..RunOptions::default()
        };
        run_app_tuned(app, protocol, nprocs, scale, &opts)
    };
    let run = run_under(scenario.clone());
    let net = &run.outcome.report.net;
    let journal = run
        .outcome
        .journal()
        .expect("scenario runs record a journal");

    // Gate 2: the scenario, through its text form, reproduces the run.
    let replay_ok = reproduces(&run, scenario, run_under);

    // Gate 3: a perfect scenario must be a no-op against the plain run.
    let baseline_ok = if scenario.is_chaotic() {
        true
    } else {
        run.outcome.report.net == plain.outcome.report.net
            && run.outcome.report.time == plain.outcome.report.time
            && run.outcome.image() == plain.outcome.image()
    };

    ScenarioCell {
        app,
        scenario: scenario.name.clone(),
        ok: run.ok,
        detail: run.detail,
        time: run.outcome.report.time,
        retransmissions: net.retransmissions(),
        dropped_msgs: net.dropped_msgs(),
        duplicate_msgs: net.duplicate_msgs(),
        timeout_waits: net.timeout_waits(),
        journal_events: journal.len(),
        replay_ok,
        baseline_ok,
    }
}

/// The re-run gate's failure, as `--check` reports it.
pub(crate) const REPRODUCE_FAILURE: &str = "re-running the scenario from its text form did not \
     reproduce the run, or its journal does not sum to the chaos counters";

/// The re-run gate of the chaos sweeps: `scenario`, re-read from its
/// text form and handed to `rerun`, reproduces `run` exactly — same
/// `NetStats`, virtual time, per-processor clocks, image and journal —
/// and the journal's sums are the run's chaos counters.
pub(crate) fn reproduces(
    run: &AppRun,
    scenario: &Scenario,
    rerun: impl FnOnce(Scenario) -> AppRun,
) -> bool {
    let (report, journal) = (&run.outcome.report, run.outcome.journal());
    let reread = Scenario::parse(&scenario.to_text()).expect("canonical scenario text parses");
    let again = rerun(reread);
    again.ok
        && again.outcome.report.net == report.net
        && again.outcome.report.time == report.time
        && again.outcome.report.proc_times == report.proc_times
        && again.outcome.image() == run.outcome.image()
        && again.outcome.journal() == journal
        && journal.is_some_and(|j| j.check_counters(&report.net).is_ok())
}

impl ScenarioReport {
    /// Cells failing any gate (empty = sweep passed).
    pub fn failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        for c in &self.cells {
            if !c.ok {
                fails.push(format!(
                    "{} under {}: verification failed: {}",
                    c.app, c.scenario, c.detail
                ));
            }
            if !c.replay_ok {
                fails.push(format!(
                    "{} under {}: {REPRODUCE_FAILURE}",
                    c.app, c.scenario
                ));
            }
            if !c.baseline_ok {
                fails.push(format!(
                    "{} under {}: fault-free run differs from the plain run",
                    c.app, c.scenario
                ));
            }
        }
        fails
    }

    /// Human-readable summary table.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Chaos scenario sweep — {} procs, {} scale, {} protocol",
            self.nprocs, self.scale, self.protocol
        );
        let _ = writeln!(
            s,
            "{:<8} {:<22} {:>10} {:>8} {:>8} {:>8} {:>8} {:>6}  gates",
            "app", "scenario", "time(ms)", "drops", "retx", "dups", "waits", "jrnl"
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
                "{:<8} {:<22} {:>10.2} {:>8} {:>8} {:>8} {:>8} {:>6}  {}",
                c.app.name(),
                c.scenario,
                c.time.as_ms(),
                c.dropped_msgs,
                c.retransmissions,
                c.duplicate_msgs,
                c.timeout_waits,
                c.journal_events,
                gates
            );
        }
        s
    }

    /// Serialises the sweep to the `BENCH_scenarios.json` schema.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"scenarios\",");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"nprocs\": {},", self.nprocs);
        let _ = writeln!(s, "  \"protocol\": \"{}\",", self.protocol.name());
        let _ = writeln!(s, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"app\": \"{}\",", c.app.name());
            let _ = writeln!(s, "      \"scenario\": \"{}\",", c.scenario);
            let _ = writeln!(s, "      \"ok\": {},", c.ok);
            let _ = writeln!(s, "      \"replay_ok\": {},", c.replay_ok);
            let _ = writeln!(s, "      \"baseline_ok\": {},", c.baseline_ok);
            let _ = writeln!(s, "      \"time_ns\": {},", c.time.as_ns());
            let _ = writeln!(s, "      \"dropped_msgs\": {},", c.dropped_msgs);
            let _ = writeln!(s, "      \"retransmissions\": {},", c.retransmissions);
            let _ = writeln!(s, "      \"duplicate_msgs\": {},", c.duplicate_msgs);
            let _ = writeln!(s, "      \"timeout_waits\": {},", c.timeout_waits);
            let _ = writeln!(s, "      \"journal_events\": {}", c.journal_events);
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
        let corpus = Scenario::corpus();
        let picks: Vec<Scenario> = corpus
            .iter()
            .filter(|s| s.name == "perfect" || s.name == "lossy-1pct")
            .cloned()
            .collect();
        let report = measure_scenarios(4, Scale::Tiny, &[App::Sor], ProtocolKind::Wfs, &picks);
        assert_eq!(report.cells.len(), 2);
        let fails = report.failures();
        assert!(fails.is_empty(), "{fails:?}");
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"scenarios\""));
        assert!(json.contains("\"lossy-1pct\""));
    }
}
