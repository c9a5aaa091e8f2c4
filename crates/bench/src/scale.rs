//! Processor-count scale sweep: the high-P regression bench behind
//! `repro bench-scale`.
//!
//! Runs [`SCALE_APPS`] at 8 → 256 processors on both execution
//! backends and records the **per-arrival barrier fan-in cost**
//! sampled by `ProtocolStats::barrier_fanin_wall`. An
//! arrival only records itself (integration is the last arriver's
//! completion), so the figure should not move with the processor
//! count; the `--check` gate fails when the 64-processor p50 reaches
//! [`GROWTH_LIMIT`] × the 8-processor p50, which is what per-arrival
//! O(P) work coming back would do (≈8×). Emitted as `BENCH_scale.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use adsm_apps::{run_app_tuned, App, RunOptions, Scale};
use adsm_core::{ExecBackend, NsHistogram, ProtocolKind};

/// Processor counts of the full sweep.
pub const SCALE_PROCS: [usize; 4] = [8, 64, 128, 256];
/// Processor counts of the CI smoke sweep — enough for the 8 → 64
/// growth gate.
pub const SCALE_PROCS_SMOKE: [usize; 2] = [8, 64];
/// The growth gate: p50 fan-in at 64 procs must stay under this factor
/// of the 8-proc p50 (measured ≈ 0.8×; O(P) work per arrival reads ≈ 8×).
pub const GROWTH_LIMIT: f64 = 4.0;
/// Where the simulator's host cost per simulated event is compared with
/// its cost at 8 processors: the top of the smoke sweep and of the full
/// one.
pub const GROWTH_REPORTED_AT: [usize; 2] = [64, 256];
/// The sweep's apps: SOR (barrier-only stencil), IS (locks and whole-page
/// migration), and Barnes — the one whose every processor reads the whole
/// shared array each step, so host work replicated per processor shows in
/// its ns per event before it shows anywhere else.
pub const SCALE_APPS: [App; 3] = [App::Sor, App::Is, App::Barnes];
/// The sweep's protocol: MW is the diff- and barrier-heavy extreme,
/// the one the sharded directory exists for.
pub const SCALE_PROTOCOL: ProtocolKind = ProtocolKind::Mw;

/// One `(app, backend, nprocs)` cell of the sweep.
pub struct ScalePoint {
    pub app: App,
    pub backend: ExecBackend,
    pub nprocs: usize,
    pub wall_ms: f64,
    pub sim_events: u64,
    /// Barrier arrivals sampled (one fan-in sample per arrival).
    pub arrivals: u64,
    pub fanin_p50_ns: u64,
    pub fanin_p90_ns: u64,
    pub fanin_p99_ns: u64,
    pub fanin_mean_ns: f64,
}

/// Merged-across-apps fan-in distribution for one `(backend, nprocs)`
/// sweep column — what the growth gate reads.
pub struct ScaleAggregate {
    pub backend: ExecBackend,
    pub nprocs: usize,
    pub arrivals: u64,
    pub fanin_p50_ns: u64,
    pub fanin_p90_ns: u64,
    pub fanin_p99_ns: u64,
    pub fanin_mean_ns: f64,
}

/// The sweep plus the settings that produced it.
pub struct ScaleReport {
    pub scale: Scale,
    pub proc_counts: Vec<usize>,
    pub points: Vec<ScalePoint>,
    pub aggregates: Vec<ScaleAggregate>,
    /// The gate factor the report was collected under (recorded in the
    /// JSON so the artifact is self-describing).
    pub growth_limit: f64,
}

impl ScaleReport {
    fn aggregate(&self, backend: ExecBackend, nprocs: usize) -> Option<&ScaleAggregate> {
        self.aggregates
            .iter()
            .find(|a| a.backend == backend && a.nprocs == nprocs)
    }

    /// How much dearer a simulated event gets on the simulator backend
    /// from 8 to `nprocs` processors: `wall_ms / sim_events` at `nprocs`
    /// over the same at 8, for the app where that ratio is worst. `None`
    /// unless the sweep ran the simulator at both ends (`--smoke` stops
    /// at 64, so it has the 8 -> 64 figure and not the 8 -> 256 one).
    /// Reported, not gated: each cell is one unpinned sample.
    pub fn sim_ns_per_event_growth_from_8(&self, nprocs: usize) -> Option<f64> {
        let sim_at = |nprocs: usize| {
            self.points.iter().filter(move |p| {
                p.backend == ExecBackend::Sim && p.nprocs == nprocs && p.sim_events > 0
            })
        };
        let ns_per_event = |p: &ScalePoint| p.wall_ms * 1e6 / p.sim_events as f64;
        sim_at(nprocs)
            .filter_map(|big| {
                let base = sim_at(8).find(|p| p.app == big.app)?;
                Some(ns_per_event(big) / ns_per_event(base))
            })
            .reduce(f64::max)
    }

    /// The growth gate: for every measured backend, the 64-proc p50
    /// fan-in must stay under `growth_limit` × the 8-proc p50, and
    /// every 64+-proc point must actually have run (arrivals > 0).
    /// Returns the failures (empty = pass).
    pub fn failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        for p in &self.points {
            if p.nprocs >= 64 && p.arrivals == 0 {
                fails.push(format!(
                    "{} @{} {} procs: no barrier arrivals sampled",
                    p.app,
                    p.backend.name(),
                    p.nprocs
                ));
            }
        }
        let backends: Vec<ExecBackend> = [ExecBackend::Sim, ExecBackend::Threads]
            .into_iter()
            .filter(|b| self.aggregates.iter().any(|a| a.backend == *b))
            .collect();
        for b in backends {
            let (Some(base), Some(big)) = (self.aggregate(b, 8), self.aggregate(b, 64)) else {
                fails.push(format!(
                    "backend {}: sweep is missing the 8- or 64-proc column",
                    b.name()
                ));
                continue;
            };
            if base.fanin_p50_ns == 0 {
                fails.push(format!("backend {}: zero 8-proc p50 fan-in", b.name()));
                continue;
            }
            let ratio = big.fanin_p50_ns as f64 / base.fanin_p50_ns as f64;
            if ratio >= self.growth_limit {
                fails.push(format!(
                    "backend {}: barrier fan-in p50 grew {ratio:.2}x from 8 to 64 procs \
                     (gate {:.1}x; {} ns -> {} ns) — super-linear fan-in",
                    b.name(),
                    self.growth_limit,
                    base.fanin_p50_ns,
                    big.fanin_p50_ns
                ));
            }
        }
        fails
    }

    /// Renders the report as a JSON document (`BENCH_scale.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"scale\",");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"protocol\": \"{}\",", SCALE_PROTOCOL.name());
        let _ = writeln!(
            s,
            "  \"proc_counts\": [{}],",
            self.proc_counts
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(s, "  \"fanin_growth_limit\": {:.1},", self.growth_limit);
        for to in GROWTH_REPORTED_AT {
            if let Some(growth) = self.sim_ns_per_event_growth_from_8(to) {
                let _ = writeln!(s, "  \"sim_ns_per_event_growth_8_to_{to}\": {growth:.2},");
            }
        }
        let _ = writeln!(s, "  \"columns\": [");
        for (i, a) in self.aggregates.iter().enumerate() {
            let trail = if i + 1 == self.aggregates.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                s,
                "    {{\"backend\": \"{}\", \"nprocs\": {}, \"arrivals\": {}, \
                 \"fanin_p50_ns\": {}, \"fanin_p90_ns\": {}, \"fanin_p99_ns\": {}, \
                 \"fanin_mean_ns\": {:.0}}}{trail}",
                a.backend.name(),
                a.nprocs,
                a.arrivals,
                a.fanin_p50_ns,
                a.fanin_p90_ns,
                a.fanin_p99_ns,
                a.fanin_mean_ns
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let trail = if i + 1 == self.points.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"app\": \"{}\", \"backend\": \"{}\", \"nprocs\": {}, \
                 \"wall_ms\": {:.1}, \"sim_events\": {}, \"arrivals\": {}, \
                 \"fanin_p50_ns\": {}, \"fanin_p90_ns\": {}, \"fanin_p99_ns\": {}, \
                 \"fanin_mean_ns\": {:.0}}}{trail}",
                p.app.name(),
                p.backend.name(),
                p.nprocs,
                p.wall_ms,
                p.sim_events,
                p.arrivals,
                p.fanin_p50_ns,
                p.fanin_p90_ns,
                p.fanin_p99_ns,
                p.fanin_mean_ns
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = write!(s, "}}");
        s
    }
}

/// Renders a human-readable sweep table next to the JSON.
pub fn summary_table(r: &ScaleReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scale sweep — per-arrival barrier fan-in ({} scale, {} protocol)",
        r.scale,
        SCALE_PROTOCOL.name()
    );
    let _ = writeln!(
        out,
        "{:<8} {:<8} {:>6} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "App", "Backend", "procs", "wall ms", "arrivals", "p50 ns", "p99 ns", "mean ns"
    );
    for p in &r.points {
        let _ = writeln!(
            out,
            "{:<8} {:<8} {:>6} {:>9.1} {:>10} {:>10} {:>10} {:>10.0}",
            p.app.name(),
            p.backend.name(),
            p.nprocs,
            p.wall_ms,
            p.arrivals,
            p.fanin_p50_ns,
            p.fanin_p99_ns,
            p.fanin_mean_ns
        );
    }
    for b in [ExecBackend::Sim, ExecBackend::Threads] {
        let (Some(base), Some(big)) = (r.aggregate(b, 8), r.aggregate(b, 64)) else {
            continue;
        };
        if base.fanin_p50_ns > 0 {
            let _ = writeln!(
                out,
                "{}: p50 fan-in 8 -> 64 procs: {} ns -> {} ns ({:.2}x, gate < {:.1}x)",
                b.name(),
                base.fanin_p50_ns,
                big.fanin_p50_ns,
                big.fanin_p50_ns as f64 / base.fanin_p50_ns as f64,
                r.growth_limit
            );
        }
    }
    for to in GROWTH_REPORTED_AT {
        if let Some(growth) = r.sim_ns_per_event_growth_from_8(to) {
            let _ = writeln!(
                out,
                "sim: host ns per simulated event 8 -> {to} procs, worst app: {growth:.2}x"
            );
        }
    }
    out
}

/// Runs the sweep: each app × backend × processor count under
/// [`SCALE_PROTOCOL`] at [`Scale::Large`], every run verified against
/// the app's sequential reference. Fan-in histograms are merged across
/// apps per `(backend, nprocs)` column for the growth gate.
pub fn measure_scale(proc_counts: &[usize], apps: &[App], backends: &[ExecBackend]) -> ScaleReport {
    let scale = Scale::Large;
    let mut points = Vec::new();
    let mut merged: BTreeMap<(String, usize), NsHistogram> = BTreeMap::new();
    for &backend in backends {
        for &nprocs in proc_counts {
            for &app in apps {
                eprintln!(
                    "  [scale] {app} {} ({}) at {nprocs} procs...",
                    SCALE_PROTOCOL.name(),
                    backend.name()
                );
                let opts = RunOptions {
                    measure_host_costs: true,
                    backend,
                    ..RunOptions::default()
                };
                let t0 = Instant::now();
                let run = run_app_tuned(app, SCALE_PROTOCOL, nprocs, scale, &opts);
                let wall = t0.elapsed();
                assert!(
                    run.ok,
                    "{app} under {} ({}) at {nprocs} procs failed: {}",
                    SCALE_PROTOCOL.name(),
                    backend.name(),
                    run.detail
                );
                let report = &run.outcome.report;
                let fw = &report.proto.barrier_fanin_wall;
                merged
                    .entry((backend.name().to_string(), nprocs))
                    .or_default()
                    .merge(fw);
                points.push(ScalePoint {
                    app,
                    backend,
                    nprocs,
                    wall_ms: wall.as_secs_f64() * 1e3,
                    sim_events: report.net.total_messages()
                        + report.proto.read_faults
                        + report.proto.write_faults
                        + report.proto.diffs_created
                        + report.proto.diffs_applied,
                    arrivals: fw.count(),
                    fanin_p50_ns: fw.percentile_ns(0.50),
                    fanin_p90_ns: fw.percentile_ns(0.90),
                    fanin_p99_ns: fw.percentile_ns(0.99),
                    fanin_mean_ns: fw.mean_ns(),
                });
            }
        }
    }
    let aggregates = merged
        .iter()
        .map(|((bname, nprocs), h)| ScaleAggregate {
            backend: if bname == "threads" {
                ExecBackend::Threads
            } else {
                ExecBackend::Sim
            },
            nprocs: *nprocs,
            arrivals: h.count(),
            fanin_p50_ns: h.percentile_ns(0.50),
            fanin_p90_ns: h.percentile_ns(0.90),
            fanin_p99_ns: h.percentile_ns(0.99),
            fanin_mean_ns: h.mean_ns(),
        })
        .collect();
    ScaleReport {
        scale,
        proc_counts: proc_counts.to_vec(),
        points,
        aggregates,
        growth_limit: GROWTH_LIMIT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_measures_and_gates() {
        // A fast sub-grid: the structural properties (per-column merge,
        // JSON shape, gate arithmetic) don't need the full 256-proc
        // sweep.
        let r = measure_scale(&[8, 64], &[App::Sor], &[ExecBackend::Sim]);
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.aggregates.len(), 2);
        for p in &r.points {
            assert!(p.arrivals > 0, "{} procs", p.nprocs);
            assert!(p.sim_events > 0);
        }
        let fails = r.failures();
        assert!(fails.is_empty(), "growth gate failed: {fails:?}");
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"scale\""));
        assert!(json.contains("\"fanin_growth_limit\": 4.0"));
        assert!(json.contains("\"nprocs\": 64"));
        assert!(summary_table(&r).contains("p50 fan-in 8 -> 64 procs"));
        // What `--smoke` emits: the 8 -> 64 figure; with no 256-proc
        // column the 8 -> 256 one is left out, not faked.
        assert!(json.contains("\"sim_ns_per_event_growth_8_to_64\": "));
        assert!(!json.contains("sim_ns_per_event_growth_8_to_256"));
    }

    #[test]
    fn ns_per_event_growth_takes_the_worst_app_on_the_simulator() {
        let point = |app, backend, nprocs, wall_ms, sim_events| ScalePoint {
            app,
            backend,
            nprocs,
            wall_ms,
            sim_events,
            arrivals: 1,
            fanin_p50_ns: 1,
            fanin_p90_ns: 1,
            fanin_p99_ns: 1,
            fanin_mean_ns: 1.0,
        };
        let r = ScaleReport {
            scale: Scale::Large,
            proc_counts: vec![8, 256],
            points: vec![
                point(App::Sor, ExecBackend::Sim, 8, 10.0, 1_000), // 10 us/event
                point(App::Sor, ExecBackend::Sim, 256, 120.0, 4_000), // 30 us: 3x
                point(App::Is, ExecBackend::Sim, 8, 2.0, 1_000),
                point(App::Is, ExecBackend::Sim, 256, 3.0, 1_000), // 1.5x
                point(App::Sor, ExecBackend::Threads, 8, 1.0, 1_000),
                point(App::Sor, ExecBackend::Threads, 256, 90.0, 1_000), // not sim
            ],
            aggregates: Vec::new(),
            growth_limit: GROWTH_LIMIT,
        };
        assert_eq!(r.sim_ns_per_event_growth_from_8(256), Some(3.0));
        assert_eq!(r.sim_ns_per_event_growth_from_8(64), None);
        let json = r.to_json();
        assert!(json.contains("\"sim_ns_per_event_growth_8_to_256\": 3.00,"));
        assert!(!json.contains("sim_ns_per_event_growth_8_to_64"));
    }

    #[test]
    fn gate_flags_superlinear_growth() {
        let mk = |nprocs: usize, p50: u64| ScaleAggregate {
            backend: ExecBackend::Sim,
            nprocs,
            arrivals: 100,
            fanin_p50_ns: p50,
            fanin_p90_ns: p50,
            fanin_p99_ns: p50,
            fanin_mean_ns: p50 as f64,
        };
        let mut r = ScaleReport {
            scale: Scale::Large,
            proc_counts: vec![8, 64],
            points: Vec::new(),
            aggregates: vec![mk(8, 1000), mk(64, 7900)],
            growth_limit: GROWTH_LIMIT,
        };
        // 7.9x growth (O(P) work per arrival) must fail the 4x gate…
        assert!(!r.failures().is_empty());
        // …while 2x passes.
        r.aggregates[1].fanin_p50_ns = 2000;
        assert!(r.failures().is_empty());
    }
}
