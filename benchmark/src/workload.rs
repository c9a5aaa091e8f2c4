//! The four workloads: which cells each runs, on which backend, and why
//! it exists. A *cell* is one verified application run,
//! `run_app_tuned(app, protocol, nprocs, scale, &opts)`; a *pass* runs
//! every cell of a workload once, one at a time, so the only threads
//! alive are the modelled cluster's own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use adsm_apps::{run_app_tuned, App, RunOptions, Scale};
use adsm_core::{ExecBackend, NsHistogram, ProtocolKind, RunReport, Scenario};

/// One app × protocol cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub app: App,
    pub protocol: ProtocolKind,
}

/// The corpus profile `chaos8_sim` re-seeds from `--seed`.
pub const CHAOS_PROFILE: &str = "lossy-10pct-reorder";

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (copied into BENCHMARK.json).
    pub why: &'static str,
    pub nprocs: usize,
    pub scale: Scale,
    pub backend: ExecBackend,
    /// Route every message through the seeded lossy delivery layer.
    pub chaos: bool,
    pub cells: Vec<Cell>,
}

fn matrix(apps: &[App], protocols: &[ProtocolKind], skip: &[Cell]) -> Vec<Cell> {
    apps.iter()
        .flat_map(|&app| {
            protocols
                .iter()
                .map(move |&protocol| Cell { app, protocol })
        })
        .filter(|c| !skip.contains(c))
        .collect()
}

/// The paper's Figure 2 column order.
const PAPER4: [ProtocolKind; 4] = [
    ProtocolKind::Mw,
    ProtocolKind::Sw,
    ProtocolKind::Wfs,
    ProtocolKind::WfsWg,
];

/// The four workloads, in the order they run.
pub fn all() -> Vec<Workload> {
    // TSP's branch-and-bound does schedule-dependent amounts of work:
    // on real threads 105–208 vs ~2 000 messages, under re-seeded loss
    // its messages vary by 10–18 % from seed to seed where every other
    // app stays within 2.5 %. And Water × WFS loses an update in ~10 %
    // of threads runs (README.md, "Excluded cells"). Either would turn
    // a steady workload into a coin flip.
    let without_tsp: Vec<App> = App::ALL.into_iter().filter(|a| *a != App::Tsp).collect();
    let water_wfs = Cell {
        app: App::Water,
        protocol: ProtocolKind::Wfs,
    };
    vec![
        Workload {
            name: "paper8_sim",
            why: "The paper's Figure 2 / Table 3-4 matrix (8 apps x MW, SW, WFS, WFS+WG, 8 procs, Small) on the simulator, one CPU: exact paper-fidelity numbers; host wall is engine turn handoff.",
            nprocs: 8,
            scale: Scale::Small,
            backend: ExecBackend::Sim,
            chaos: false,
            cells: matrix(&App::ALL, &PAPER4, &[]),
        },
        Workload {
            name: "paper8_threads",
            why: "The same apps on real OS threads, one CPU (7 apps x 4 protocols less Water/WFS, 8 procs, Paper): handoff is ~10 ns here, so protocol ops under the world mutex, twin/diff work and parking set the wall.",
            nprocs: 8,
            scale: Scale::Paper,
            backend: ExecBackend::Threads,
            chaos: false,
            cells: matrix(&without_tsp, &PAPER4, &[water_wfs]),
        },
        Workload {
            name: "scale64_sim",
            why: "SOR, IS, Barnes x MW, WFS+WG at 64 procs (Large) on the simulator: O(P) wake-ups per turn, 64-wide vector clocks, combining-tree barriers, sharded directory.",
            nprocs: 64,
            scale: Scale::Large,
            backend: ExecBackend::Sim,
            chaos: false,
            cells: matrix(
                &[App::Sor, App::Is, App::Barnes],
                &[ProtocolKind::Mw, ProtocolKind::WfsWg],
                &[],
            ),
        },
        Workload {
            name: "chaos8_sim",
            why: "7 apps x MW, WFS+WG, HLRC under 10% loss + reordering seeded from --seed: the one workload where delivery leaves its clean fast path (retransmissions, time-outs) and HLRC home flushes run.",
            nprocs: 8,
            scale: Scale::Small,
            backend: ExecBackend::Sim,
            chaos: true,
            cells: matrix(
                &without_tsp,
                &[ProtocolKind::Mw, ProtocolKind::WfsWg, ProtocolKind::Hlrc],
                &[],
            ),
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The chaos scenario for `seed`: the corpus profile with its PRNG
/// re-seeded, so the same seed draws the same message fates.
pub fn chaos_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::from_corpus(CHAOS_PROFILE).expect("corpus profile exists");
    s.seed = seed;
    s
}

impl Workload {
    /// Run options for this workload: every option at its default
    /// except the backend, the chaos scenario, and — in the traced pass
    /// only — the host-cost histograms.
    pub fn options(&self, seed: u64, measure_host_costs: bool) -> RunOptions {
        RunOptions {
            backend: self.backend,
            scenario: self.chaos.then(|| chaos_scenario(seed)),
            measure_host_costs,
            ..RunOptions::default()
        }
    }

    /// Distinct apps of the workload, in first-appearance order.
    pub fn apps(&self) -> Vec<App> {
        distinct(self.cells.iter().map(|c| c.app))
    }

    /// Distinct protocols of the workload, in first-appearance order.
    pub fn protocols(&self) -> Vec<ProtocolKind> {
        distinct(self.cells.iter().map(|c| c.protocol))
    }
}

fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// Metric-name spelling of an app (`3D-FFT` is not a valid name).
pub fn app_key(app: App) -> &'static str {
    match app {
        App::Fft3d => "FFT3D",
        other => other.name(),
    }
}

/// Metric-name spelling of a protocol (`WFS+WG` is not a valid name).
pub fn protocol_key(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::WfsWg => "WFSWG",
        other => other.name(),
    }
}

/// The simulated statistics of one run that the benchmark sums,
/// digests or reports — copied out so the run's memory image can be
/// dropped at once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellStats {
    pub time_ns: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub retransmissions: u64,
    pub timeout_waits: u64,
    pub peak_storage_bytes: u64,
    pub read_faults: u64,
    pub write_faults: u64,
    pub twins_created: u64,
    pub diffs_created: u64,
    pub diffs_applied: u64,
    pub diff_bytes: u64,
    pub pages_transferred: u64,
    pub ownership_refusals: u64,
    pub switches_to_mw: u64,
    pub switches_to_sw: u64,
    pub gc_runs: u64,
    pub pool_created: u64,
    pub pool_reused: u64,
    /// Host-cost histograms; empty unless `measure_host_costs` was on.
    pub validate_wall: NsHistogram,
    pub barrier_fanin_wall: NsHistogram,
}

impl CellStats {
    pub fn from_report(r: &RunReport) -> Self {
        CellStats {
            time_ns: r.time.as_ns(),
            msgs: r.net.total_messages(),
            bytes: r.net.total_bytes(),
            retransmissions: r.net.retransmissions(),
            timeout_waits: r.net.timeout_waits(),
            peak_storage_bytes: r.proto.peak_storage_bytes,
            read_faults: r.proto.read_faults,
            write_faults: r.proto.write_faults,
            twins_created: r.proto.twins_created,
            diffs_created: r.proto.diffs_created,
            diffs_applied: r.proto.diffs_applied,
            diff_bytes: r.proto.diff_bytes_created,
            pages_transferred: r.proto.pages_transferred,
            ownership_refusals: r.proto.ownership_refusals,
            switches_to_mw: r.proto.switches_to_mw,
            switches_to_sw: r.proto.switches_to_sw,
            gc_runs: r.proto.gc_runs,
            pool_created: r.proto.pool_pages_created,
            pool_reused: r.proto.pool_pages_reused,
            validate_wall: r.proto.validate_wall.clone(),
            barrier_fanin_wall: r.proto.barrier_fanin_wall.clone(),
        }
    }

    /// Simulated protocol events: messages + faults + diffs made and
    /// applied (the denominator of `core.host_ns_per_event`).
    pub fn sim_events(&self) -> u64 {
        self.msgs + self.read_faults + self.write_faults + self.diffs_created + self.diffs_applied
    }

    /// The words `virt_digest` hashes for this cell.
    pub fn digest_words(&self) -> [u64; 7] {
        [
            self.time_ns,
            self.msgs,
            self.bytes,
            self.read_faults,
            self.write_faults,
            self.diffs_created,
            self.diffs_applied,
        ]
    }
}

/// One execution of one cell.
#[derive(Clone, Debug)]
pub struct CellSample {
    pub wall_ns: u64,
    /// `None` when the run panicked or deadlocked.
    pub stats: Option<CellStats>,
    /// Verification detail or panic message; `None` when the run's
    /// output matched its sequential reference.
    pub failure: Option<String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

/// Runs one cell and checks it against its sequential reference. The
/// wall time covers the whole `run_app_tuned` call: allocation, the
/// run, and the verification every caller of that function pays.
pub fn run_cell(cell: Cell, nprocs: usize, scale: Scale, opts: &RunOptions) -> CellSample {
    let start = Instant::now();
    // The apps `expect` their run: a deadlock or an application panic
    // arrives here as an unwind and counts as a failed cell.
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_app_tuned(cell.app, cell.protocol, nprocs, scale, opts)
    }));
    let wall_ns = start.elapsed().as_nanos() as u64;
    match result {
        Ok(run) => CellSample {
            wall_ns,
            stats: Some(CellStats::from_report(&run.outcome.report)),
            failure: (!run.ok).then(|| format!("verification failed: {}", run.detail)),
        },
        Err(payload) => CellSample {
            wall_ns,
            stats: None,
            failure: Some(format!("panicked: {}", panic_message(payload))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_tables_have_the_documented_shapes() {
        let ws = all();
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["paper8_sim", "paper8_threads", "scale64_sim", "chaos8_sim"]
        );
        let cells: Vec<usize> = ws.iter().map(|w| w.cells.len()).collect();
        assert_eq!(cells, [32, 27, 6, 21]);
        let threads = &ws[1];
        assert_eq!(threads.backend, ExecBackend::Threads);
        assert!(ws.iter().filter(|w| w.backend == ExecBackend::Sim).count() == 3);
        assert!(threads.cells.iter().all(|c| c.app != App::Tsp));
        assert!(!threads
            .cells
            .iter()
            .any(|c| c.app == App::Water && c.protocol == ProtocolKind::Wfs));
        for w in &ws {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(ws[3].apps().len(), 7);
        assert!(ws[3].cells.iter().all(|c| c.app != App::Tsp));
    }

    #[test]
    fn chaos_scenario_is_a_function_of_the_seed() {
        assert_eq!(chaos_scenario(7), chaos_scenario(7));
        assert_ne!(chaos_scenario(7), chaos_scenario(8));
        assert!(chaos_scenario(7).is_chaotic());
        let w = by_name("chaos8_sim").unwrap();
        assert_eq!(w.options(7, false).scenario, Some(chaos_scenario(7)));
        assert_eq!(
            by_name("paper8_sim").unwrap().options(7, false).scenario,
            None
        );
    }

    #[test]
    fn a_failed_verification_and_a_panic_are_both_failures() {
        // Raw on two processors is an invalid configuration: the app's
        // `expect` turns the RunError into a panic.
        let opts = RunOptions::default();
        let bad = run_cell(
            Cell {
                app: App::Sor,
                protocol: ProtocolKind::Raw,
            },
            2,
            Scale::Tiny,
            &opts,
        );
        assert!(bad.stats.is_none());
        assert!(bad.failure.unwrap().starts_with("panicked:"));
        let good = run_cell(
            Cell {
                app: App::Sor,
                protocol: ProtocolKind::Wfs,
            },
            2,
            Scale::Tiny,
            &opts,
        );
        assert!(good.failure.is_none() && good.stats.unwrap().msgs > 0);
    }
}
