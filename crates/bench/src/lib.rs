//! Reproduction harness for the paper's evaluation section.
//!
//! Each function regenerates one table or figure of
//! *Amza et al., "Software DSM Protocols that Adapt between Single
//! Writer and Multiple Writer", HPCA 1997*, printing the measured values
//! next to the paper's published numbers where the scanned text is
//! legible (see EXPERIMENTS.md for provenance notes). The `repro` binary
//! wraps these.
//!
//! Absolute numbers are not expected to match the paper — the substrate
//! is a calibrated simulator and the inputs are scaled — but the *shape*
//! (which protocol wins, by roughly what factor, where the crossovers
//! fall) is asserted by [`fig2_shape_checks`].

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

use adsm_apps::{kernels, run_app_tuned, App, RunOptions, Scale};
use adsm_core::{ProtocolKind, RunReport, SimTime};

mod ablation;
pub mod chaos;
pub mod scale;

pub use ablation::{
    ablation_gc, ablation_network, ablation_quantum, ablation_wg, related, scaling, sensitivity,
};
pub use chaos::{run_sweep, Case, ChaosCell, ChaosReport, Sweep};
pub use scale::{measure_scale, ScaleReport};

/// The four protocols in the paper's presentation order (Fig. 2).
pub const PROTOCOLS: [ProtocolKind; 4] = ProtocolKind::EVALUATED;

/// A grid of measured cells: every application run under every protocol
/// of the grid with the same [`RunOptions`], plus each application's
/// sequential baseline under those options — enough to regenerate
/// Tables 1-4 and Figures 2-3, and every beyond-the-paper table, without
/// re-running anything.
pub struct Matrix {
    /// Cluster size used for the parallel runs.
    pub nprocs: usize,
    /// Input scale.
    pub scale: Scale,
    /// Sequential (Raw, 1-processor) times per app.
    pub sequential: BTreeMap<App, SimTime>,
    /// Parallel runs: `(app, protocol) -> report`.
    pub reports: BTreeMap<(App, ProtocolKind), RunReport>,
}

impl Matrix {
    /// Runs every app of `apps` under every protocol of `protocols` on
    /// `nprocs` processors, and under Raw on one for its sequential
    /// time, all under `opts`; every run must verify. The sequential
    /// time is memoised for the life of the process
    /// (`sequential_time`), so sweeps over settings it does not read
    /// pay one Raw run per app. The paper's grid at `Scale::Small` takes
    /// on the order of a minute, at `Scale::Paper` several.
    pub fn collect(
        nprocs: usize,
        scale: Scale,
        apps: &[App],
        protocols: &[ProtocolKind],
        opts: &RunOptions,
    ) -> Matrix {
        let run = |app, proto, nprocs| {
            eprintln!("  [matrix] {app} {proto}...");
            let run = run_app_tuned(app, proto, nprocs, scale, opts);
            assert!(
                run.ok,
                "{app} under {proto} failed verification: {}",
                run.detail
            );
            run.outcome.report
        };
        let mut sequential = BTreeMap::new();
        let mut reports = BTreeMap::new();
        for &app in apps {
            let time = sequential_time(app, scale, opts, || run(app, ProtocolKind::Raw, 1).time);
            sequential.insert(app, time);
            for &proto in protocols {
                reports.insert((app, proto), run(app, proto, nprocs));
            }
        }
        Matrix {
            nprocs,
            scale,
            sequential,
            reports,
        }
    }

    /// The apps present in this matrix, in paper order.
    pub fn apps(&self) -> Vec<App> {
        App::ALL
            .iter()
            .copied()
            .filter(|a| self.sequential.contains_key(a))
            .collect()
    }

    fn report(&self, app: App, proto: ProtocolKind) -> &RunReport {
        &self.reports[&(app, proto)]
    }

    /// Speedup of `app` under `proto` relative to the sequential time.
    pub fn speedup(&self, app: App, proto: ProtocolKind) -> f64 {
        self.report(app, proto).speedup(self.sequential[&app])
    }
}

/// What a one-processor Raw run's time depends on besides the app and
/// its input: it sends no message and takes no fault, so of the cost
/// model it reads only the access charges.
type SequentialKey = (App, Scale, SimTime, u64);

static SEQUENTIAL: Mutex<BTreeMap<SequentialKey, SimTime>> = Mutex::new(BTreeMap::new());

/// `app`'s sequential time at `scale` under `opts`: `raw` (a verified
/// Raw run) the first time this process asks for the app, scale and
/// access charges of `opts`, the remembered time after that. The
/// ablations sweep the ownership quantum, the WG and GC thresholds, the
/// network and the home policy, none of which a Raw run reads
/// (`ablation::tests::raw_time_reads_only_the_access_charges`).
fn sequential_time(
    app: App,
    scale: Scale,
    opts: &RunOptions,
    raw: impl FnOnce() -> SimTime,
) -> SimTime {
    let key = (
        app,
        scale,
        opts.cost.shared_access,
        opts.cost.mem_per_byte_ns,
    );
    let memo = || SEQUENTIAL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&time) = memo().get(&key) {
        return time;
    }
    let time = raw();
    memo().insert(key, time);
    time
}

/// Paper values used in comparison columns. `None` where the scanned
/// text of the paper is not legible enough to quote a number.
pub struct PaperRef;

impl PaperRef {
    /// Fig. 2 speedups explicitly quoted in §6.1 prose.
    pub fn fig2(app: App, proto: ProtocolKind) -> Option<f64> {
        use App::*;
        use ProtocolKind::*;
        match (app, proto) {
            (Is, Sw) => Some(1.9),
            (Is, Mw) => Some(1.2),
            (Fft3d, Sw) => Some(4.3),
            (Fft3d, Mw) => Some(3.5),
            (Barnes, Mw) => Some(3.7),
            (Barnes, Sw) => Some(1.4),
            (Ilink, Mw) => Some(5.1),
            (Ilink, Sw) => Some(2.8),
            _ => None,
        }
    }

    /// Table 2: percentage of shared pages that are write-write falsely
    /// shared.
    pub fn table2_ww_pct(app: App) -> Option<f64> {
        match app {
            App::Sor => Some(0.0),
            App::Is => Some(0.0),
            App::Fft3d => Some(0.03),
            App::Tsp => None, // "low"
            App::Water => Some(3.5),
            App::Shallow => Some(13.9),
            App::Barnes => Some(61.9),
            App::Ilink => Some(58.3),
        }
    }

    /// Table 2: prevailing write granularity.
    pub fn table2_grain(app: App) -> &'static str {
        match app {
            App::Sor => "variable",
            App::Is => "large",
            App::Fft3d => "large",
            App::Tsp => "small",
            App::Water => "medium",
            App::Shallow => "med-large",
            App::Barnes => "small",
            App::Ilink => "small",
        }
    }

    /// Table 4 rows that are unambiguous in the scanned text
    /// (messages in thousands, data in MB) — Barnes only.
    pub fn table4_barnes(proto: ProtocolKind) -> Option<(f64, f64)> {
        match proto {
            ProtocolKind::Mw => Some((224.49, 132.24)),
            ProtocolKind::WfsWg => Some((196.90, 155.62)),
            ProtocolKind::Wfs => Some((196.84, 156.86)),
            ProtocolKind::Sw => Some((831.83, 1286.60)),
            _ => None,
        }
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "   --".into(), |x| format!("{x:5.2}"))
}

/// Table 1: applications, input sizes, synchronisation, sequential time.
pub fn table1(m: &Matrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — applications, inputs ({} scale), synchronisation, sequential time",
        m.scale
    );
    let _ = writeln!(
        out,
        "{:<8} {:<26} {:<6} {:>12}",
        "App", "Input", "Sync", "Seq time"
    );
    for app in m.apps() {
        let _ = writeln!(
            out,
            "{:<8} {:<26} {:<6} {:>12}",
            app.name(),
            app.input_desc(m.scale),
            app.sync_style(),
            format!("{}", m.sequential[&app]),
        );
    }
    out
}

/// Table 2: write granularity and % of write-write falsely shared pages
/// (measured from the MW run's sharing profile).
pub fn table2(m: &Matrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — write granularity and write-write false sharing (MW run, {} procs)",
        m.nprocs
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>12} | {:>10} {:>10} | {:>9} {:>10}",
        "App", "grain", "mean B", "ww-pages", "%ww", "paper", "paper-%ww"
    );
    for app in m.apps() {
        let prof = &m.report(app, ProtocolKind::Mw).profile;
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>12.0} | {:>10} {:>10.1} | {:>9} {:>10}",
            app.name(),
            prof.grain_class.to_string(),
            prof.mean_write_grain,
            prof.ww_false_shared_pages,
            prof.pct_ww_false_shared,
            PaperRef::table2_grain(app),
            fmt_opt(PaperRef::table2_ww_pct(app)),
        );
    }
    out
}

/// Figure 2: speedups of the four protocols.
pub fn fig2(m: &Matrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2 — speedup on {} processors (paper values in parentheses where quoted)",
        m.nprocs
    );
    let _ = writeln!(
        out,
        "{:<8} {:>14} {:>14} {:>14} {:>14}",
        "App", "MW", "WFS+WG", "WFS", "SW"
    );
    for app in m.apps() {
        let cell = |proto: ProtocolKind| {
            let s = m.speedup(app, proto);
            match PaperRef::fig2(app, proto) {
                Some(p) => format!("{s:5.2} ({p:3.1})"),
                None => format!("{s:5.2}      "),
            }
        };
        let _ = writeln!(
            out,
            "{:<8} {:>14} {:>14} {:>14} {:>14}",
            app.name(),
            cell(ProtocolKind::Mw),
            cell(ProtocolKind::WfsWg),
            cell(ProtocolKind::Wfs),
            cell(ProtocolKind::Sw),
        );
    }
    out
}

/// The paper's qualitative claims about Figure 2, checked against the
/// measured matrix. Returns (passed, failed) descriptions.
pub fn fig2_shape_checks(m: &Matrix) -> (Vec<String>, Vec<String>) {
    let mut pass = Vec::new();
    let mut fail = Vec::new();
    let mut check = |desc: String, ok: bool| {
        if ok {
            pass.push(desc);
        } else {
            fail.push(desc);
        }
    };
    let apps = m.apps();
    let have = |a: App| apps.contains(&a);

    // SW beats MW where false sharing is absent and granularity large.
    for app in [App::Is, App::Fft3d] {
        if have(app) {
            check(
                format!("SW >= MW on {app} (no false sharing, whole pages)"),
                m.speedup(app, ProtocolKind::Sw) >= m.speedup(app, ProtocolKind::Mw) * 0.98,
            );
        }
    }
    // MW beats SW where false sharing is heavy.
    for app in [App::Shallow, App::Barnes, App::Ilink] {
        if have(app) {
            check(
                format!("MW >= SW on {app} (heavy false sharing)"),
                m.speedup(app, ProtocolKind::Mw) >= m.speedup(app, ProtocolKind::Sw) * 0.98,
            );
        }
    }
    // Adaptive protocols match or exceed the best non-adaptive protocol
    // on at least 7 of 8 applications (paper: 7 of 8, within 9%).
    for proto in [ProtocolKind::Wfs, ProtocolKind::WfsWg] {
        let good = apps
            .iter()
            .filter(|&&app| {
                let best = m
                    .speedup(app, ProtocolKind::Mw)
                    .max(m.speedup(app, ProtocolKind::Sw));
                m.speedup(app, proto) >= best * 0.91
            })
            .count();
        check(
            format!(
                "{proto} within 9% of the best non-adaptive protocol on >= {} of {} apps",
                apps.len().saturating_sub(1),
                apps.len()
            ),
            good + 1 >= apps.len(),
        );
    }
    (pass, fail)
}

/// Table 3: twin + diff memory for the three diff-capable protocols.
pub fn table3(m: &Matrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3 — twin+diff memory, cumulative MB (peak alive MB in parentheses)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>18} {:>18} {:>18}",
        "App", "MW", "WFS+WG", "WFS"
    );
    for app in m.apps() {
        let cell = |proto: ProtocolKind| {
            let s = &m.report(app, proto).proto;
            format!(
                "{:8.2} ({:6.2})",
                s.storage_bytes_created() as f64 / 1e6,
                s.peak_storage_bytes as f64 / 1e6
            )
        };
        let _ = writeln!(
            out,
            "{:<8} {:>18} {:>18} {:>18}",
            app.name(),
            cell(ProtocolKind::Mw),
            cell(ProtocolKind::WfsWg),
            cell(ProtocolKind::Wfs),
        );
    }
    let _ = writeln!(out, "(SW uses no twins or diffs: 0 MB for every app.)");
    out
}

/// Table 4: messages, ownership requests, and data for the four
/// protocols.
pub fn table4(m: &Matrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4 — messages (10^3), ownership requests (10^3), data (MB)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<7} {:>10} {:>10} {:>10} {:>18}",
        "App", "Proto", "Msgs", "OwnReq", "Data", "paper(msgs,data)"
    );
    for app in m.apps() {
        for proto in PROTOCOLS {
            let r = m.report(app, proto);
            let paper = if app == App::Barnes {
                PaperRef::table4_barnes(proto)
                    .map(|(msg, mb)| format!("({msg:7.1}, {mb:7.1})"))
                    .unwrap_or_default()
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{:<8} {:<7} {:>10.2} {:>10.2} {:>10.2} {:>18}",
                app.name(),
                proto.name(),
                r.net.total_messages() as f64 / 1e3,
                r.net.ownership_requests() as f64 / 1e3,
                r.net.total_bytes() as f64 / 1e6,
                paper,
            );
        }
    }
    out
}

/// Figure 3: cluster-wide diff population over time for 3D-FFT under MW,
/// WFS+WG and WFS, rendered as an ASCII chart plus the raw series.
///
/// The paper ran 64^3 against a 1 MB per-processor GC threshold; the
/// threshold here is scaled with the grid (same threshold-to-data
/// ratio), so the MW saw-tooth appears at the same point of the run.
pub fn fig3(nprocs: usize, scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3 — diffs alive over time, 3D-FFT ({scale} scale, {nprocs} procs)"
    );
    let mut cost = adsm_core::CostModel::sparc_atm();
    cost.gc_threshold_bytes =
        adsm_apps::fft3d::fig3_gc_threshold(adsm_apps::fft3d::FftParams::new(scale));
    let opts = RunOptions {
        cost,
        ..RunOptions::default()
    };
    let protos = [ProtocolKind::Mw, ProtocolKind::WfsWg, ProtocolKind::Wfs];
    let m = Matrix::collect(nprocs, scale, &[App::Fft3d], &protos, &opts);
    let peak = protos
        .iter()
        .flat_map(|&proto| &m.report(App::Fft3d, proto).diffs_alive)
        .map(|&(_, n)| n)
        .fold(1, u64::max);
    for proto in protos {
        let report = m.report(App::Fft3d, proto);
        let pts = &report.diffs_alive;
        let _ = writeln!(
            out,
            "\n{} — peak {} diffs, {} garbage collections",
            proto.name(),
            pts.iter().map(|&(_, n)| n).max().unwrap_or(0),
            report.proto.gc_runs
        );
        let _ = writeln!(out, "  |{}|", sparkline(pts, peak));
        if let (Some(first), Some(last)) = (pts.first(), pts.last()) {
            let _ = writeln!(
                out,
                "  t: {} .. {}  (diffs {} .. {})",
                first.0, last.0, first.1, last.1
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(Paper: MW saw-tooths against the 1 MB GC threshold; WFS stays near\nzero; WFS+WG rises with MW for the first iterations, then flattens\nonce large diffs push the pages to SW mode.)"
    );
    out
}

/// A 64-column ASCII sparkline of a `(time, diffs alive)` series,
/// uniform in *time* like the paper's x axis: each column shows the last
/// sample taken at or before its instant, as a level out of `peak`. The
/// series is in push order, and each sample carries the clock of the
/// processor that took it, so it is read from a stably time-sorted copy.
fn sparkline(series: &[(SimTime, u64)], peak: u64) -> String {
    let mut pts = series.to_vec();
    pts.sort_by_key(|&(t, _)| t);
    let end = pts.last().map_or(1, |p| p.0.as_ns()).max(1);
    (0..64u64)
        .map(|col| {
            let t = end * (col + 1) / 64;
            let before = pts.partition_point(|p| p.0.as_ns() <= t);
            let v = before.checked_sub(1).map_or(0, |i| pts[i].1);
            let level = (v * 8 / peak.max(1)).min(8) as usize;
            ['.', '1', '2', '3', '4', '5', '6', '7', '8'][level]
        })
        .collect()
}

/// Per-message-kind traffic breakdown — the evidence behind §6.3's
/// discussion: ownership requests are the adaptive protocols' overhead,
/// garbage collection is MW's ("For Shallow, Barnes and 3D-FFT, the
/// adaptive protocols ... send fewer messages than MW, because of the
/// high number of messages exchanged during MW garbage collection").
pub fn traffic(m: &Matrix, apps: &[App]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Traffic breakdown by message kind (messages / KB), {} procs",
        m.nprocs
    );
    for &app in apps {
        if !m.sequential.contains_key(&app) {
            continue;
        }
        let _ = writeln!(out, "\n{}:", app.name());
        let _ = write!(out, "{:<12}", "kind");
        for proto in PROTOCOLS {
            let _ = write!(out, " {:>16}", proto.name());
        }
        let _ = writeln!(out);
        // Union of kinds any protocol used.
        let mut kinds: Vec<adsm_core::MsgKind> = Vec::new();
        for proto in PROTOCOLS {
            for (k, _, _) in m.report(app, proto).net.iter() {
                if !kinds.contains(&k) {
                    kinds.push(k);
                }
            }
        }
        for kind in kinds {
            let _ = write!(out, "{:<12}", kind.label());
            for proto in PROTOCOLS {
                let net = &m.report(app, proto).net;
                let _ = write!(
                    out,
                    " {:>8}/{:>7.1}",
                    net.messages(kind),
                    net.bytes(kind) as f64 / 1e3
                );
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Figure 1 (behavioural): what each protocol does on the three access
/// patterns — producer-consumer, migratory, write-write false sharing.
pub fn fig1(nprocs: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1 — protocol behaviour per access pattern ({nprocs} procs; \
         the paper's three patterns plus the 3.2 diff-accumulation pattern)"
    );
    let _ = writeln!(
        out,
        "{:<18} {:<7} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "Pattern", "Proto", "OwnReq", "Refused", "Twins", "Diffs", "Data MB"
    );
    let params = kernels::KernelParams {
        nprocs,
        ..kernels::KernelParams::default()
    };
    type KernelFn = fn(ProtocolKind, kernels::KernelParams) -> adsm_core::RunOutcome;
    let patterns: [(&str, KernelFn); 4] = [
        ("producer-consumer", kernels::producer_consumer),
        ("migratory", kernels::migratory),
        ("false-sharing", kernels::false_sharing),
        ("diff-accum (3.2)", kernels::diff_accumulation),
    ];
    for (name, f) in patterns {
        for proto in PROTOCOLS {
            let r = f(proto, params).report;
            let _ = writeln!(
                out,
                "{:<18} {:<7} {:>8} {:>8} {:>8} {:>8} {:>10.3}",
                name,
                proto.name(),
                r.net.ownership_requests(),
                r.proto.ownership_refusals,
                r.proto.twins_created,
                r.proto.diffs_created,
                r.net.total_bytes() as f64 / 1e6,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_runs_and_reports() {
        let s = fig1(2);
        assert!(s.contains("producer-consumer"));
        assert!(s.contains("WFS+WG"));
    }

    #[test]
    fn tiny_matrix_tables_render() {
        let m = Matrix::collect(
            2,
            Scale::Tiny,
            &[App::Sor, App::Is],
            &PROTOCOLS,
            &RunOptions::default(),
        );
        assert!(table1(&m).contains("SOR"));
        assert!(table2(&m).contains("ww-pages"));
        assert!(fig2(&m).contains("WFS"));
        assert!(table3(&m).contains("MW"));
        assert!(table4(&m).contains("OwnReq"));
        let t = traffic(&m, &[App::Is]);
        assert!(t.contains("IS:"));
        assert!(t.contains("lock-req"), "IS uses locks: {t}");
    }

    /// Every `"key":` an emitter writes, from a report with one row of
    /// everything.
    fn emitted_keys(json: &str) -> std::collections::BTreeSet<String> {
        let mut parts = json.split('"');
        let mut keys = std::collections::BTreeSet::new();
        parts.next();
        while let (Some(quoted), Some(after)) = (parts.next(), parts.next()) {
            if after.starts_with(':') {
                keys.insert(quoted.to_string());
            }
        }
        keys
    }

    /// The backticked names in the first column of every table of one
    /// `## <file>` section of `docs/BENCH_SCHEMA.md`.
    fn documented_keys(file: &str) -> std::collections::BTreeSet<String> {
        let doc = include_str!("../../../docs/BENCH_SCHEMA.md");
        let section = doc
            .split("\n## ")
            .find(|s| s.starts_with(file))
            .unwrap_or_else(|| panic!("docs/BENCH_SCHEMA.md has no section {file}"));
        section
            .lines()
            .filter(|l| l.starts_with("| `"))
            .flat_map(|l| l.split('|').nth(1).unwrap().split('`').skip(1).step_by(2))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn bench_schema_lists_exactly_the_emitted_keys() {
        use adsm_core::ExecBackend;
        let point = |nprocs| scale::ScalePoint {
            app: App::Sor,
            backend: ExecBackend::Sim,
            nprocs,
            wall_ms: 1.0,
            sim_events: 1,
            arrivals: 1,
            fanin_p50_ns: 1,
            fanin_p90_ns: 1,
            fanin_p99_ns: 1,
            fanin_mean_ns: 1.0,
        };
        let scale_json = ScaleReport {
            scale: Scale::Large,
            proc_counts: vec![8, 64, 256],
            // The base, the smoke sweep's top and the full sweep's, so
            // both optional growth keys are there.
            points: vec![point(8), point(64), point(256)],
            aggregates: vec![scale::ScaleAggregate {
                backend: ExecBackend::Sim,
                nprocs: 8,
                arrivals: 1,
                fanin_p50_ns: 1,
                fanin_p90_ns: 1,
                fanin_p99_ns: 1,
                fanin_mean_ns: 1.0,
            }],
            growth_limit: scale::GROWTH_LIMIT,
            turn_ns: [1.0, 1.0],
        }
        .to_json();
        let cell = |case: &str| ChaosCell {
            app: App::Sor,
            case: case.to_string(),
            protocol: ProtocolKind::Wfs,
            time: SimTime::ZERO,
            net: Default::default(),
            proto: Default::default(),
            journal_events: 0,
            ok: true,
            detail: String::new(),
            replay_ok: true,
            baseline_ok: true,
            fired: true,
        };
        let chaos_json = |sweep, case| {
            ChaosReport {
                sweep,
                nprocs: 4,
                scale: Scale::Tiny,
                cells: vec![cell(case)],
            }
            .to_json()
        };
        let scenarios_json = chaos_json(&Sweep::SCENARIOS, "perfect");
        let crash_json = chaos_json(&Sweep::CRASH, "crash-instant");
        for (file, json) in [
            ("BENCH_scale.json", scale_json),
            ("BENCH_scenarios.json", scenarios_json),
            ("BENCH_crash.json", crash_json),
        ] {
            assert_eq!(
                emitted_keys(&json),
                documented_keys(file),
                "{file}: emitted keys (left) vs docs/BENCH_SCHEMA.md (right)"
            );
        }
    }

    /// A sample pushed after a later one still counts from its own
    /// instant on: columns 15..31 (t = 50..96 of 200) show it, and the
    /// column at t = 100 shows the later sample, not the earlier one.
    #[test]
    fn sparkline_reads_an_out_of_order_series_by_time() {
        let at = SimTime::from_ns;
        let series = [(at(100), 8), (at(50), 4), (at(200), 0)];
        let want = format!("{}{}{}.", ".".repeat(15), "4".repeat(16), "8".repeat(32));
        assert_eq!(sparkline(&series, 8), want);
    }

    #[test]
    fn paper_refs_are_stable() {
        assert_eq!(PaperRef::fig2(App::Is, ProtocolKind::Sw), Some(1.9));
        assert_eq!(PaperRef::table2_ww_pct(App::Barnes), Some(61.9));
        assert!(PaperRef::table4_barnes(ProtocolKind::Sw).is_some());
    }
}
