//! `repro scenarios` and `repro crash-matrix` — the chaos sweeps.
//!
//! A sweep runs every app under every [`Case`]: a protocol plus the
//! [`Scenario`] it runs under, built from the app's fault-free run time.
//! The scenario sweep's cases are the chaos corpus
//! ([`Scenario::corpus`]: perfect delivery, 1% loss, 10% loss with heavy
//! reordering, bursty loss windows, latency jitter with duplication)
//! under WFS; the crash matrix's are the three scheduled fault shapes of
//! the recovery layer ([`Case::crashes`]). Every cell passes the same
//! gates:
//!
//! - **V** — the run still verifies against the app's sequential
//!   reference (`AppRun::ok`): retransmission, duplicate suppression and
//!   recovery may cost virtual time but never answers.
//! - **R** — the scenario is the record: a re-run of the same value
//!   reproduces the run bit-identically (same [`NetStats`] totals,
//!   virtual time, per-processor clocks, final image and journal), and
//!   the journal's sums equal the run's chaos counters
//!   ([`DeliveryJournal::check_counters`](adsm_core::DeliveryJournal::check_counters)),
//!   epoch-fence drops included.
//! - **B** — wherever emptying the fault schedule leaves perfect links,
//!   that scenario equals a plain run with no scenario attached: the
//!   delivery and recovery machinery cost nothing until a fault fires.
//! - **fired** — a scheduled crash fired and was recovered from, and a
//!   scheduled failover promoted pages.
//!
//! Each sweep prints a summary table and writes one JSON file
//! (`BENCH_scenarios.json`, `BENCH_crash.json`; schema in
//! `docs/BENCH_SCHEMA.md`), both from the same cells.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use adsm_apps::{run_app_tuned, App, AppRun, RunOptions, Scale};
use adsm_core::FaultKind::{self, HomeFailover, ProcCrash, ProcRestart};
use adsm_core::{Fault, NetStats, ProtocolKind, ProtocolStats, Scenario, SimTime};

/// The protocol every corpus case runs under.
const CORPUS_PROTOCOL: ProtocolKind = ProtocolKind::Wfs;

/// One case of a sweep: a protocol and the scenario it runs under.
pub struct Case {
    /// Case name, as the table and the JSON print it.
    pub name: String,
    /// Protocol the case runs under.
    pub protocol: ProtocolKind,
    /// Builds the scenario from the app's fault-free run time and the
    /// processor count.
    scenario: Box<dyn Fn(SimTime, usize) -> Scenario>,
}

impl Case {
    /// The chaos corpus, each scenario under WFS.
    pub fn corpus() -> Vec<Case> {
        Scenario::corpus()
            .into_iter()
            .map(|s| Case {
                name: s.name.clone(),
                protocol: CORPUS_PROTOCOL,
                scenario: Box::new(move |_, _| s.clone()),
            })
            .collect()
    }

    /// The crash matrix's three fault shapes, each at mid-run of the
    /// fault-free run: a crash of the last processor with an instant
    /// restart (WFS) or with an explicit restart a quarter-run later
    /// (MW; traffic to the dead incarnation is epoch-fenced in between)
    /// — the two ends of the paper's adaptive spectrum — and a failover
    /// of home 0 onto its replicated backup (HLRC, the only protocol
    /// with replicated homes).
    pub fn crashes() -> Vec<Case> {
        /// A case whose schedule is `faults(fault-free ns, victim)`, a
        /// list of instantaneous faults.
        fn case(
            name: &'static str,
            protocol: ProtocolKind,
            faults: fn(u64, u32) -> Vec<(u64, FaultKind)>,
        ) -> Case {
            let scenario = move |t: SimTime, nprocs: usize| Scenario {
                name: name.to_string(),
                faults: faults(t.as_ns(), nprocs as u32 - 1)
                    .into_iter()
                    .map(|(at, kind)| Fault {
                        at: SimTime::from_ns(at),
                        duration: SimTime::ZERO,
                        kind,
                    })
                    .collect(),
                ..Scenario::perfect()
            };
            Case {
                name: name.to_string(),
                protocol,
                scenario: Box::new(scenario),
            }
        }
        vec![
            case("crash-instant", ProtocolKind::Wfs, |t, proc| {
                vec![(t / 2, ProcCrash { proc })]
            }),
            case("crash-window", ProtocolKind::Mw, |t, proc| {
                vec![
                    (t / 2, ProcCrash { proc }),
                    (t / 2 + t / 4, ProcRestart { proc }),
                ]
            }),
            case("home-failover", ProtocolKind::Hlrc, |t, _| {
                vec![(t / 2, HomeFailover { home: 0 })]
            }),
        ]
    }
}

/// One app x case cell: the run's figures and its gates.
pub struct ChaosCell {
    /// Application.
    pub app: App,
    /// Case name.
    pub case: String,
    /// Protocol the cell ran under.
    pub protocol: ProtocolKind,
    /// Simulated execution time under the scenario.
    pub time: SimTime,
    /// The run's message statistics (chaos counters included).
    pub net: NetStats,
    /// The run's protocol statistics (recovery counters included).
    pub proto: ProtocolStats,
    /// Deviation events in the recorded journal.
    pub journal_events: usize,
    /// V: did the run match the sequential reference?
    pub ok: bool,
    /// Verification detail when `ok` is false.
    pub detail: String,
    /// R: did a re-run reproduce the run, and does its journal sum to
    /// the chaos counters?
    pub replay_ok: bool,
    /// B: did the scenario with its fault schedule emptied equal the
    /// plain run? `true` (vacuously) when its links are not perfect.
    pub baseline_ok: bool,
    /// Did every scheduled crash and failover take effect?
    pub fired: bool,
}

/// A finished sweep.
pub struct ChaosReport {
    /// Which sweep ran.
    pub sweep: &'static Sweep,
    /// Cluster size.
    pub nprocs: usize,
    /// Input scale.
    pub scale: Scale,
    /// One cell per app x case, app-major.
    pub cells: Vec<ChaosCell>,
}

/// Runs `sweep` over `apps` x `cases`. The plain run each case's
/// schedule is placed against (and gate B compares with) runs once per
/// app and protocol.
pub fn run_sweep(
    sweep: &'static Sweep,
    nprocs: usize,
    scale: Scale,
    apps: &[App],
    cases: &[Case],
) -> ChaosReport {
    let mut cells = Vec::new();
    for &app in apps {
        let mut plains = BTreeMap::new();
        for case in cases {
            let plain = plains.entry(case.protocol).or_insert_with(|| {
                eprintln!("  [chaos] {app} {} baseline...", case.protocol);
                run_app_tuned(app, case.protocol, nprocs, scale, &RunOptions::default())
            });
            eprintln!("  [chaos] {app} under {}...", case.name);
            cells.push(run_cell(nprocs, scale, app, case, plain));
        }
    }
    ChaosReport {
        sweep,
        nprocs,
        scale,
        cells,
    }
}

/// Runs one cell and decides its four gates.
fn run_cell(nprocs: usize, scale: Scale, app: App, case: &Case, plain: &AppRun) -> ChaosCell {
    let run_under = |scenario: Scenario| {
        let opts = RunOptions {
            scenario: Some(scenario),
            ..RunOptions::default()
        };
        run_app_tuned(app, case.protocol, nprocs, scale, &opts)
    };
    let scenario = (case.scenario)(plain.outcome.report.time, nprocs);
    let run = run_under(scenario.clone());
    let again = run_under(scenario.clone());
    let journal = run.outcome.journal();
    let replay_ok = same_run(&again, &run)
        && again.outcome.journal() == journal
        && journal.is_some_and(|j| j.check_counters(&run.outcome.report.net).is_ok());

    // A scenario with no faults is its own emptied schedule: its run
    // is the one to compare.
    let baseline_ok = if !scenario.link.is_perfect() {
        true
    } else if scenario.faults.is_empty() {
        same_run(&run, plain)
    } else {
        let mut benign = scenario.clone();
        benign.faults.clear();
        same_run(&run_under(benign), plain)
    };

    let journal_events = journal.map_or(0, |j| j.len());
    let report = run.outcome.report;
    let p = &report.proto;
    let fired = scenario.faults.iter().all(|f| match f.kind {
        ProcCrash { .. } => p.proc_crashes > 0 && p.recovery_ns > 0,
        HomeFailover { .. } => p.failover_promotions > 0,
        _ => true,
    });

    ChaosCell {
        app,
        case: case.name.clone(),
        protocol: case.protocol,
        time: report.time,
        journal_events,
        net: report.net,
        proto: report.proto,
        ok: run.ok,
        detail: run.detail,
        replay_ok,
        baseline_ok,
        fired,
    }
}

/// Both runs verify and agree on `NetStats`, virtual time,
/// per-processor clocks and the final image.
fn same_run(a: &AppRun, b: &AppRun) -> bool {
    let (x, y) = (&a.outcome.report, &b.outcome.report);
    a.ok && b.ok
        && x.net == y.net
        && x.time == y.time
        && x.proc_times == y.proc_times
        && a.outcome.image() == b.outcome.image()
}

/// A column of a summary table: header, width (negative: left-aligned,
/// as in printf's `%-8s`) and the cell's text.
type TableColumn = (&'static str, isize, fn(&ChaosCell) -> String);

/// A column of a JSON file: key and the cell's JSON value.
type Column = (&'static str, fn(&ChaosCell) -> String);

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// A chaos sweep: its cases, and how it presents its cells.
pub struct Sweep {
    /// The file the sweep writes.
    pub file: &'static str,
    /// The file's `bench` value.
    bench: &'static str,
    /// The summary table's title.
    title: &'static str,
    /// The protocol every case runs under, if there is one.
    protocol: Option<ProtocolKind>,
    /// The sweep's full case list.
    pub cases: fn() -> Vec<Case>,
    table: &'static [TableColumn],
    json: &'static [Column],
}

impl Sweep {
    /// `repro scenarios`: the chaos corpus.
    pub const SCENARIOS: Sweep = Sweep {
        file: "BENCH_scenarios.json",
        bench: "scenarios",
        title: "Chaos scenario sweep",
        protocol: Some(CORPUS_PROTOCOL),
        cases: Case::corpus,
        table: &[
            ("app", -8, |c| c.app.name().to_string()),
            ("scenario", -22, |c| c.case.clone()),
            ("time(ms)", 10, |c| format!("{:.2}", c.time.as_ms())),
            ("drops", 8, |c| c.net.dropped_msgs().to_string()),
            ("retx", 8, |c| c.net.retransmissions().to_string()),
            ("dups", 8, |c| c.net.duplicate_msgs().to_string()),
            ("waits", 8, |c| c.net.timeout_waits().to_string()),
            ("jrnl", 6, |c| c.journal_events.to_string()),
        ],
        json: &[
            ("app", |c| quoted(c.app.name())),
            ("scenario", |c| quoted(&c.case)),
            ("ok", |c| c.ok.to_string()),
            ("replay_ok", |c| c.replay_ok.to_string()),
            ("baseline_ok", |c| c.baseline_ok.to_string()),
            ("time_ns", |c| c.time.as_ns().to_string()),
            ("dropped_msgs", |c| c.net.dropped_msgs().to_string()),
            ("retransmissions", |c| c.net.retransmissions().to_string()),
            ("duplicate_msgs", |c| c.net.duplicate_msgs().to_string()),
            ("timeout_waits", |c| c.net.timeout_waits().to_string()),
            ("journal_events", |c| c.journal_events.to_string()),
        ],
    };

    /// `repro crash-matrix`: the three fault shapes.
    pub const CRASH: Sweep = Sweep {
        file: "BENCH_crash.json",
        bench: "crash",
        title: "Crash-recovery matrix",
        protocol: None,
        cases: Case::crashes,
        table: &[
            ("app", -8, |c| c.app.name().to_string()),
            ("shape", -14, |c| c.case.clone()),
            ("proto", -6, |c| c.protocol.name().to_string()),
            ("time(ms)", 10, |c| format!("{:.2}", c.time.as_ms())),
            ("recovery(us)", 12, |c| {
                format!("{:.1}", c.proto.recovery_ns as f64 / 1_000.0)
            }),
            ("edrops", 7, |c| c.net.epoch_drops().to_string()),
            ("refetch", 9, |c| c.proto.recovery_refetches.to_string()),
            ("promoted", 9, |c| c.proto.failover_promotions.to_string()),
        ],
        json: &[
            ("app", |c| quoted(c.app.name())),
            ("shape", |c| quoted(&c.case)),
            ("protocol", |c| quoted(c.protocol.name())),
            ("ok", |c| c.ok.to_string()),
            ("replay_ok", |c| c.replay_ok.to_string()),
            ("baseline_ok", |c| c.baseline_ok.to_string()),
            ("time_ns", |c| c.time.as_ns().to_string()),
            ("recovery_ns", |c| c.proto.recovery_ns.to_string()),
            ("epoch_drops", |c| c.net.epoch_drops().to_string()),
            ("proc_crashes", |c| c.proto.proc_crashes.to_string()),
            ("recovery_refetches", |c| {
                c.proto.recovery_refetches.to_string()
            }),
            ("failover_promotions", |c| {
                c.proto.failover_promotions.to_string()
            }),
        ],
    };
}

impl ChaosReport {
    /// Every gate a cell fails, one line each (empty = sweep passed).
    pub fn failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        for c in &self.cells {
            let mut fail = |what: &str| fails.push(format!("{} under {}: {what}", c.app, c.case));
            if !c.ok {
                fail(&format!("verification failed: {}", c.detail));
            }
            if !c.replay_ok {
                fail(
                    "re-running the scenario did not reproduce the run, or its journal does \
                     not sum to the chaos counters",
                );
            }
            if !c.baseline_ok {
                fail("fault-free run differs from the plain run");
            }
            if !c.fired {
                fail("fault never fired");
            }
        }
        fails
    }

    /// Human-readable summary table.
    pub fn summary_table(&self) -> String {
        let layout = self.sweep;
        let protocol = layout
            .protocol
            .map_or(String::new(), |p| format!(", {p} protocol"));
        let (title, columns) = (layout.title, layout.table);
        let mut s = format!(
            "{title} — {} procs, {} scale{protocol}\n",
            self.nprocs, self.scale
        );
        s += &table_line(
            columns,
            columns.iter().map(|col| col.0.to_string()),
            "gates",
        );
        for c in &self.cells {
            let gate = |pass, g| if pass { g } else { 'x' };
            let gates = [
                gate(c.ok, 'V'),
                gate(c.replay_ok, 'R'),
                gate(c.baseline_ok, 'B'),
            ];
            let texts = columns.iter().map(|col| (col.2)(c));
            s += &table_line(columns, texts, &String::from_iter(gates));
        }
        s
    }

    /// Serialises the sweep to its file's schema.
    pub fn to_json(&self) -> String {
        let layout = self.sweep;
        let mut header = vec![
            ("bench", quoted(layout.bench)),
            ("scale", quoted(&self.scale.to_string())),
            ("nprocs", self.nprocs.to_string()),
        ];
        header.extend(layout.protocol.map(|p| ("protocol", quoted(p.name()))));
        write_json(&header, &self.cells, layout.json)
    }
}

/// One summary-table line: each text padded to its column's width,
/// then `tail`.
fn table_line(columns: &[TableColumn], texts: impl Iterator<Item = String>, tail: &str) -> String {
    let padded: Vec<String> = columns
        .iter()
        .zip(texts)
        .map(|(&(_, w, _), text)| {
            let width = w.unsigned_abs();
            if w < 0 {
                format!("{text:<width$}")
            } else {
                format!("{text:>width$}")
            }
        })
        .collect();
    format!("{}  {tail}\n", padded.join(" "))
}

/// A chaos sweep file: the header pairs, then one object per cell with
/// the columns' keys in order. Values are JSON text already.
fn write_json(header: &[(&str, String)], cells: &[ChaosCell], columns: &[Column]) -> String {
    let mut s = String::from("{\n");
    for (key, value) in header {
        let _ = writeln!(s, "  \"{key}\": {value},");
    }
    s += "  \"cells\": [\n";
    for (i, c) in cells.iter().enumerate() {
        let fields: Vec<String> = columns
            .iter()
            .map(|(key, value)| format!("      \"{key}\": {}", value(c)))
            .collect();
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\n{}\n    }}{comma}", fields.join(",\n"));
    }
    s += "  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(names: &[&str]) -> Vec<Case> {
        let mut cases = Case::corpus();
        cases.retain(|c| names.contains(&c.name.as_str()));
        cases
    }

    #[test]
    fn scenario_smoke_cells_pass_all_gates() {
        let picks = corpus(&["perfect", "lossy-1pct"]);
        let report = run_sweep(&Sweep::SCENARIOS, 4, Scale::Tiny, &[App::Sor], &picks);
        assert_eq!(report.cells.len(), 2);
        let fails = report.failures();
        assert!(fails.is_empty(), "{fails:?}");
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"scenarios\""));
        assert!(json.contains("\"lossy-1pct\""));
    }

    #[test]
    fn crash_smoke_cells_pass_all_gates() {
        let report = run_sweep(&Sweep::CRASH, 4, Scale::Tiny, &[App::Sor], &Case::crashes());
        assert_eq!(report.cells.len(), 3);
        let fails = report.failures();
        assert!(fails.is_empty(), "{fails:?}");
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"crash\""));
        assert!(json.contains("\"home-failover\""));
        assert!(json.contains("\"recovery_ns\""));
    }

    /// Gate B was vacuous for `bursty-loss` while it compared only the
    /// fault-free corpus scenario: with its loss bursts emptied, the
    /// scenario's perfect links must equal the plain run, and a plain
    /// run that is not this cell's (another protocol's) must fail B.
    #[test]
    fn bursty_loss_with_its_schedule_emptied_is_a_plain_run() {
        let bursty = &corpus(&["bursty-loss"])[0];
        let plain =
            |protocol| run_app_tuned(App::Sor, protocol, 4, Scale::Tiny, &RunOptions::default());
        let cell = run_cell(4, Scale::Tiny, App::Sor, bursty, &plain(CORPUS_PROTOCOL));
        assert!(cell.net.dropped_msgs() > 0, "the bursts must bite");
        assert!(cell.ok && cell.replay_ok && cell.baseline_ok && cell.fired);
        let wrong = run_cell(4, Scale::Tiny, App::Sor, bursty, &plain(ProtocolKind::Mw));
        assert!(!wrong.baseline_ok);
    }

    #[test]
    fn a_crash_scheduled_past_the_end_never_fires() {
        let late = Case {
            name: "crash-late".to_string(),
            protocol: ProtocolKind::Wfs,
            scenario: Box::new(|t, nprocs| Scenario {
                faults: vec![Fault {
                    at: SimTime::from_ns(t.as_ns() * 4),
                    duration: SimTime::ZERO,
                    kind: FaultKind::ProcCrash {
                        proc: nprocs as u32 - 1,
                    },
                }],
                ..Scenario::perfect()
            }),
        };
        let report = run_sweep(&Sweep::CRASH, 4, Scale::Tiny, &[App::Sor], &[late]);
        assert!(!report.cells[0].fired);
        assert_eq!(
            report.failures(),
            ["SOR under crash-late: fault never fired"]
        );
    }
}
