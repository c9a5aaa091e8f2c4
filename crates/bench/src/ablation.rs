//! Beyond-the-paper harnesses: the §7 related-work comparison (SC and
//! home-based LRC) and ablations of the design constants the paper fixes
//! by measurement (ownership quantum, write-granularity threshold, diff
//! GC threshold) or sketches as future work (migratory ownership
//! transfer).
//!
//! Each generator returns its report as a string; the `repro` binary
//! prints them (`repro related ablations sensitivity scaling`).

use std::fmt::Write as _;

use adsm_apps::{run_app_tuned, sequential_time, App, RunOptions, Scale};
use adsm_core::{CostModel, HomePolicy, ProtocolKind, SimTime};

/// One measured cell of a comparison table.
struct Cell {
    speedup: f64,
    msgs: f64,
    data_mb: f64,
}

fn run_cell(
    app: App,
    protocol: ProtocolKind,
    nprocs: usize,
    scale: Scale,
    seq: SimTime,
    opts: &RunOptions,
) -> Cell {
    let run = run_app_tuned(app, protocol, nprocs, scale, opts);
    assert!(run.ok, "{app} under {protocol}: {}", run.detail);
    let r = &run.outcome.report;
    Cell {
        speedup: r.speedup(seq),
        msgs: r.net.total_messages() as f64 / 1e3,
        data_mb: r.net.total_bytes() as f64 / 1e6,
    }
}

/// §7 related-work comparison: the paper's SW/MW/WFS against the
/// sequentially-consistent comparator (SC) and home-based LRC under a
/// sweep of home placements (round-robin, first-touch, all-on-p0,
/// all-on-last).
///
/// The two claims under test, both from the paper's related work:
///
/// * Keleher (quoted in §7): LRC-over-SC gains exceed MW-over-SW gains.
///   Measured as `min(SW,MW) / SC` vs `max(SW,MW) / min(SW,MW)` speedup
///   ratios.
/// * Zhou et al. positioning: a home-based protocol's traffic depends on
///   where the homes land — *"this avoids unnecessary message traffic if
///   the home node is poorly chosen"* — while WFS carries no such knob.
///   Measured as worst-placement data over best-placement data.
///
/// Meaningful at `--scale small` or larger; at tiny scale communication
/// swamps the scaled-down compute and the speedup ratios are noise.
pub fn related(nprocs: usize, scale: Scale, apps: &[App]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Related-work comparison ({} procs, {} scale): speedup / msgs(10^3) / data(MB)",
        nprocs, scale
    );
    let placements: [(&str, HomePolicy); 4] = [
        ("rr", HomePolicy::RoundRobin),
        ("ft", HomePolicy::FirstTouch),
        ("p0", HomePolicy::Fixed(0)),
        ("pN", HomePolicy::Fixed(nprocs.saturating_sub(1))),
    ];
    let mut header = format!(
        "{:<8} {:>18} {:>18} {:>18} {:>18}",
        "App", "SW", "MW", "WFS", "SC"
    );
    for (name, _) in placements {
        let _ = write!(header, " {:>18}", format!("HLRC({name})"));
    }
    let _ = writeln!(out, "{header}");

    let base = RunOptions::default();
    let total = apps.len();
    let mut sc_wins = 0usize;
    let mut consistency_benefit = 1.0f64; // product of SW/SC ratios
    let mut writer_benefit = 1.0f64; // product of max(SW,MW)/SW ratios
    let mut home_ratios: Vec<(App, f64)> = Vec::new();

    for &app in apps {
        let seq = sequential_time(app, scale);
        let mut cells: Vec<Cell> = vec![
            run_cell(app, ProtocolKind::Sw, nprocs, scale, seq, &base),
            run_cell(app, ProtocolKind::Mw, nprocs, scale, seq, &base),
            run_cell(app, ProtocolKind::Wfs, nprocs, scale, seq, &base),
            run_cell(app, ProtocolKind::Sc, nprocs, scale, seq, &base),
        ];
        for (_, policy) in placements {
            let opts = RunOptions {
                home_policy: policy,
                ..RunOptions::default()
            };
            cells.push(run_cell(app, ProtocolKind::Hlrc, nprocs, scale, seq, &opts));
        }
        let mut row = format!("{:<8}", app.name());
        for c in &cells {
            let _ = write!(
                row,
                " {:>6.2}/{:>5.1}/{:>5.1}",
                c.speedup, c.msgs, c.data_mb
            );
        }
        let _ = writeln!(out, "{row}");

        let (sw, mw, sc) = (cells[0].speedup, cells[1].speedup, cells[3].speedup);
        if sc > sw.max(mw) * 1.02 {
            sc_wins += 1;
        }
        consistency_benefit *= sw / sc;
        writer_benefit *= sw.max(mw) / sw;
        let hlrc_data: Vec<f64> = cells[4..].iter().map(|c| c.data_mb).collect();
        let best = hlrc_data.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = hlrc_data.iter().copied().fold(0.0f64, f64::max);
        home_ratios.push((app, worst / best.max(1e-9)));
    }

    let n = total.max(1) as f64;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "SC vs LRC: SC beats the best LRC protocol (by >2%) on {sc_wins}/{total} apps;\n\
         \x20 geomean consistency benefit (SW over SC)     = {:.2}x\n\
         \x20 geomean concurrent-writer benefit (best/SW)  = {:.2}x\n\
         \x20 (Keleher's LRC-over-SC claim holds where false sharing is mild; heavy\n\
         \x20  false sharing makes the writer benefit dominate — the paper's own point.)",
        consistency_benefit.powf(1.0 / n),
        writer_benefit.powf(1.0 / n),
    );
    let mut ratios = String::new();
    for (app, r) in &home_ratios {
        let _ = write!(ratios, " {}={:.2}x", app.name(), r);
    }
    let _ = writeln!(
        out,
        "Home-placement sensitivity (worst/best data over {{rr,ft,p0,pN}}):{ratios}\n\
         \x20 (WFS carries no placement knob — the §7 positioning.)"
    );
    out
}

/// Ownership-quantum ablation (§2.3): the paper guarantees a new owner a
/// 1 ms quantum against ping-ponging and reports that *"the results do
/// not appear to be sensitive to the exact value of the quantum."* The
/// sweep runs the quantum from zero to 4 ms under SW (where the quantum
/// lives) and WFS (which inherits it for SW-mode pages).
pub fn ablation_quantum(nprocs: usize, scale: Scale, apps: &[App]) -> String {
    let quanta_us: [u64; 5] = [0, 250, 1_000, 2_000, 4_000];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — SW ownership quantum ({} procs, {} scale): speedups",
        nprocs, scale
    );
    let mut header = format!("{:<8} {:<6}", "App", "Proto");
    for q in quanta_us {
        let _ = write!(header, " {:>9}", format!("{}us", q));
    }
    let _ = writeln!(out, "{header}   (paper default 1000us)");
    for &app in apps {
        let seq = sequential_time(app, scale);
        for protocol in [ProtocolKind::Sw, ProtocolKind::Wfs] {
            let mut row = format!("{:<8} {:<6}", app.name(), protocol.name());
            for q in quanta_us {
                let mut cost = CostModel::sparc_atm();
                cost.ownership_quantum = SimTime::from_us(q);
                let opts = RunOptions {
                    cost: Some(cost),
                    ..RunOptions::default()
                };
                let cell = run_cell(app, protocol, nprocs, scale, seq, &opts);
                let _ = write!(row, " {:>9.2}", cell.speedup);
            }
            let _ = writeln!(out, "{row}");
        }
    }
    out
}

/// Write-granularity-threshold ablation (§3.2, §4): the paper derives a
/// conservative 3 KB threshold from micro-measurements and reports that
/// *"the results are not very dependent on the exact value of the
/// threshold."* The sweep runs WFS+WG from 0.5 KB to 8 KB.
pub fn ablation_wg(nprocs: usize, scale: Scale, apps: &[App]) -> String {
    let thresholds: [usize; 5] = [512, 1024, 3 * 1024, 4 * 1024, 8 * 1024];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — WFS+WG diff-size threshold ({} procs, {} scale): speedups",
        nprocs, scale
    );
    let mut header = format!("{:<8}", "App");
    for t in thresholds {
        let _ = write!(header, " {:>9}", format!("{}B", t));
    }
    let _ = writeln!(out, "{header}   (paper default 3072B)");
    for &app in apps {
        let seq = sequential_time(app, scale);
        let mut row = format!("{:<8}", app.name());
        for t in thresholds {
            let mut cost = CostModel::sparc_atm();
            cost.wg_threshold_bytes = t;
            let opts = RunOptions {
                cost: Some(cost),
                ..RunOptions::default()
            };
            let cell = run_cell(app, ProtocolKind::WfsWg, nprocs, scale, seq, &opts);
            let _ = write!(row, " {:>9.2}", cell.speedup);
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Diff-GC-threshold ablation (Fig. 3): the 1 MB per-processor diff
/// space of the paper's Figure 3 controls how often MW garbage-collects.
/// The sweep shows collections growing as the threshold shrinks while
/// the adaptive protocol stays at zero collections throughout.
pub fn ablation_gc(nprocs: usize, scale: Scale) -> String {
    let thresholds: [usize; 4] = [64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — diff GC threshold, 3D-FFT ({} procs, {} scale): GC runs / peak diff MB / speedup",
        nprocs, scale
    );
    let seq = sequential_time(App::Fft3d, scale);
    let _ = writeln!(out, "{:<10} {:>18} {:>18}", "Threshold", "MW", "WFS");
    for t in thresholds {
        let mut cost = CostModel::sparc_atm();
        cost.gc_threshold_bytes = t;
        let opts = RunOptions {
            cost: Some(cost),
            ..RunOptions::default()
        };
        let mut row = format!("{:<10}", format!("{}KB", t >> 10));
        for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs] {
            let run = run_app_tuned(App::Fft3d, protocol, nprocs, scale, &opts);
            assert!(run.ok, "3D-FFT under {protocol}: {}", run.detail);
            let r = &run.outcome.report;
            let _ = write!(
                row,
                " {:>6}/{:>5.2}/{:>5.2}",
                r.proto.gc_runs,
                r.proto.peak_storage_bytes as f64 / 1e6,
                r.speedup(seq),
            );
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Migratory-ownership ablation (§7 future work): WFS with and without
/// read-miss ownership transfer on the migratory applications. Reports
/// ownership requests, total messages and speedup.
pub fn ablation_migratory(nprocs: usize, scale: Scale, apps: &[App]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — §7 migratory ownership transfer under WFS ({} procs, {} scale)",
        nprocs, scale
    );
    let _ = writeln!(
        out,
        "{:<8} {:<5} {:>10} {:>10} {:>10} {:>10}",
        "App", "Opt", "OwnReq", "MigGrants", "Msgs(10^3)", "Speedup"
    );
    for &app in apps {
        let seq = sequential_time(app, scale);
        for migratory_opt in [false, true] {
            let opts = RunOptions {
                migratory_opt,
                ..RunOptions::default()
            };
            let run = run_app_tuned(app, ProtocolKind::Wfs, nprocs, scale, &opts);
            assert!(run.ok, "{app}: {}", run.detail);
            let r = &run.outcome.report;
            let _ = writeln!(
                out,
                "{:<8} {:<5} {:>10} {:>10} {:>10.2} {:>10.2}",
                app.name(),
                if migratory_opt { "on" } else { "off" },
                r.net.ownership_requests(),
                r.proto.migratory_grants,
                r.net.total_messages() as f64 / 1e3,
                r.speedup(seq),
            );
        }
    }
    out
}

/// Eager-vs-lazy diffing ablation. This reproduction defaults to eager
/// per-interval diffing (a documented substitution — DESIGN.md §2);
/// TreadMarks itself encodes diffs lazily, retaining twins until the
/// first request. The sweep measures what the substitution costs: lazy
/// never creates *more* diffs (unrequested intervals never encode), at
/// the price of retained-twin memory.
pub fn ablation_diffing(nprocs: usize, scale: Scale, apps: &[App]) -> String {
    use adsm_core::DiffStrategy;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — eager vs lazy diff creation, MW protocol ({} procs, {} scale)",
        nprocs, scale
    );
    let _ = writeln!(
        out,
        "{:<8} {:<6} {:>8} {:>11} {:>11} {:>10} {:>9}",
        "App", "Mode", "Diffs", "DiffMB", "PeakMB", "TwinsLeft", "Speedup"
    );
    for &app in apps {
        let seq = sequential_time(app, scale);
        for strategy in [DiffStrategy::Eager, DiffStrategy::Lazy] {
            let opts = RunOptions {
                diff_strategy: strategy,
                ..RunOptions::default()
            };
            let run = run_app_tuned(app, ProtocolKind::Mw, nprocs, scale, &opts);
            assert!(run.ok, "{app} under {strategy} MW: {}", run.detail);
            let r = &run.outcome.report;
            let _ = writeln!(
                out,
                "{:<8} {:<6} {:>8} {:>11.2} {:>11.2} {:>10} {:>9.2}",
                app.name(),
                strategy.to_string(),
                r.proto.diffs_created,
                r.proto.diff_bytes_created as f64 / 1e6,
                r.proto.peak_storage_bytes as f64 / 1e6,
                r.proto.twins_alive,
                r.speedup(seq),
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(Lazy == TreadMarks; eager is this reproduction's default because the\n\
         adaptive protocols' write-granularity test needs close-time diff sizes.\n\
         TwinsLeft counts twins still retained at run end — lazy's memory cost.)"
    );
    out
}

/// Network-bandwidth ablation (§3.2: *"Besides the write granularity of
/// the application, this tradeoff is highly dependent on the network
/// bandwidth"*). Reruns the protocol comparison on a 10x faster
/// interconnect: cheaper whole-page transfers shrink the region where
/// diffs win, so MW's advantage on small-granularity applications (TSP)
/// narrows and the whole-page protocols gain ground.
pub fn ablation_network(nprocs: usize, scale: Scale, apps: &[App]) -> String {
    let networks: [(&str, CostModel); 2] = [
        ("ATM-155", CostModel::sparc_atm()),
        ("fast-10x", CostModel::fast_network()),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — network bandwidth ({} procs, {} scale): speedups",
        nprocs, scale
    );
    let _ = writeln!(
        out,
        "{:<8} {:<9} {:>8} {:>8} {:>8} {:>8}",
        "App", "Network", "MW", "WFS+WG", "WFS", "SW"
    );
    for &app in apps {
        for (name, cost) in &networks {
            // The sequential basis shares the network's cost model (it
            // only affects local charges, but keeps ratios comparable).
            let opts = RunOptions {
                cost: Some(cost.clone()),
                ..RunOptions::default()
            };
            let seq = run_app_tuned(app, ProtocolKind::Raw, 1, scale, &opts)
                .outcome
                .report
                .time;
            let mut row = format!("{:<8} {:<9}", app.name(), name);
            for protocol in [
                ProtocolKind::Mw,
                ProtocolKind::WfsWg,
                ProtocolKind::Wfs,
                ProtocolKind::Sw,
            ] {
                let cell = run_cell(app, protocol, nprocs, scale, seq, &opts);
                let _ = write!(row, " {:>8.2}", cell.speedup);
            }
            let _ = writeln!(out, "{row}");
        }
    }
    let _ = writeln!(
        out,
        "\n(§3.2: on the fast network whole-page transfers are relatively cheaper,\n\
         so the whole-page protocols close on — or pass — MW where small diffs\n\
         carried it, and WFS+WG's higher threshold keeps fewer pages in MW mode.)"
    );
    out
}

/// Input-set sensitivity (the paper's Table 2 note: *"Some applications
/// (e.g., SOR, Water and Shallow) show variation in write granularity
/// and write-write false sharing behavior depending on the input
/// set."*). Two SOR inputs — page-aligned rows (the paper's layout, no
/// false sharing) and unaligned rows (band boundaries inside pages) —
/// and two Shallow grids, each profiled under MW and raced MW / WFS /
/// SW. The adaptive protocol must track the winner on *both* inputs of
/// each app.
pub fn sensitivity(nprocs: usize) -> String {
    use adsm_apps::{shallow, sor};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Input-set sensitivity ({} procs): Table-2 profile + speedups per input",
        nprocs
    );
    let _ = writeln!(
        out,
        "{:<26} {:>7} {:>7} | {:>7} {:>7} {:>7} {:>10}",
        "Input", "%ww", "grain", "MW", "WFS", "SW", "WFS result"
    );

    struct Row {
        label: String,
        mw: adsm_apps::AppRun,
        wfs: adsm_apps::AppRun,
        sw: adsm_apps::AppRun,
        seq: SimTime,
    }

    let mut rows: Vec<Row> = Vec::new();

    // SOR: the paper's page-aligned layout vs. rows of 448 doubles
    // (3.5 KB), which puts every band boundary inside a shared page.
    for (label, cols) in [
        ("SOR 66x512 (aligned)", 512usize),
        ("SOR 66x448 (unaligned)", 448),
    ] {
        let params = sor::SorParams {
            rows: 66,
            cols,
            iters: 8,
            ns_per_elem: 2_000,
        };
        let seq = sor::run_with(ProtocolKind::Raw, 1, params)
            .outcome
            .report
            .time;
        rows.push(Row {
            label: label.into(),
            mw: sor::run_with(ProtocolKind::Mw, nprocs, params),
            wfs: sor::run_with(ProtocolKind::Wfs, nprocs, params),
            sw: sor::run_with(ProtocolKind::Sw, nprocs, params),
            seq,
        });
    }

    // Shallow: the paper-style staggered grid (rows of n+1 doubles, so
    // band boundaries fall inside shared pages) vs. a grid whose rows are
    // exactly one page (n = 511 → 512 doubles), which page-aligns the
    // bands and removes the false sharing.
    for (label, m, n) in [
        ("Shallow 96x64 (staggered)", 96usize, 64usize),
        ("Shallow 24x511 (aligned)", 24, 511),
    ] {
        let params = shallow::ShallowParams {
            m,
            n,
            steps: 8,
            ns_per_elem: 10_000,
        };
        let seq = shallow::run_with(ProtocolKind::Raw, 1, params)
            .outcome
            .report
            .time;
        rows.push(Row {
            label: label.into(),
            mw: shallow::run_with(ProtocolKind::Mw, nprocs, params),
            wfs: shallow::run_with(ProtocolKind::Wfs, nprocs, params),
            sw: shallow::run_with(ProtocolKind::Sw, nprocs, params),
            seq,
        });
    }

    let mut adaptive_ok = 0usize;
    for row in &rows {
        for run in [&row.mw, &row.wfs, &row.sw] {
            assert!(run.ok, "{}: {}", row.label, run.detail);
        }
        let prof = &row.mw.outcome.report.profile;
        let (mw, wfs, sw) = (
            row.mw.outcome.report.speedup(row.seq),
            row.wfs.outcome.report.speedup(row.seq),
            row.sw.outcome.report.speedup(row.seq),
        );
        let tracked = wfs >= mw.max(sw) * 0.91;
        if tracked {
            adaptive_ok += 1;
        }
        let _ = writeln!(
            out,
            "{:<26} {:>7.1} {:>7} | {:>7.2} {:>7.2} {:>7.2} {:>10}",
            row.label,
            prof.pct_ww_false_shared,
            prof.grain_class.to_string(),
            mw,
            wfs,
            sw,
            if tracked { "tracks" } else { "LAGS" },
        );
    }
    let _ = writeln!(
        out,
        "\nWFS within 9% of the best non-adaptive protocol on {adaptive_ok}/{} inputs —\n\
         per-page adaptation absorbs the input-set sensitivity the paper notes\n\
         under Table 2.",
        rows.len()
    );
    out
}

/// Speedup-vs-cluster-size scaling for MW / WFS / SW (the paper reports
/// 8 processors only; this extends Figure 2 along the processor axis).
pub fn scaling(scale: Scale, apps: &[App]) -> String {
    let sizes: [usize; 3] = [2, 4, 8];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Speedup scaling ({} scale): processors 2 / 4 / 8",
        scale
    );
    let mut header = format!("{:<8} {:<6}", "App", "Proto");
    for s in sizes {
        let _ = write!(header, " {:>7}", format!("x{s}"));
    }
    let _ = writeln!(out, "{header}");
    for &app in apps {
        let seq = sequential_time(app, scale);
        for protocol in [ProtocolKind::Mw, ProtocolKind::Wfs, ProtocolKind::Sw] {
            let mut row = format!("{:<8} {:<6}", app.name(), protocol.name());
            for nprocs in sizes {
                let run = run_app_tuned(app, protocol, nprocs, scale, &RunOptions::default());
                assert!(run.ok, "{app}/{protocol} x{nprocs}: {}", run.detail);
                let _ = write!(row, " {:>7.2}", run.outcome.report.speedup(seq));
            }
            let _ = writeln!(out, "{row}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_renders_and_adaptive_tracks() {
        let s = sensitivity(4);
        assert!(s.contains("unaligned"));
        assert!(s.contains("4/4 inputs") || s.contains("3/4 inputs"), "{s}");
    }

    #[test]
    fn scaling_renders() {
        let s = scaling(Scale::Tiny, &[App::Sor]);
        assert!(s.contains("x8"));
    }

    #[test]
    fn network_sweep_renders() {
        let s = ablation_network(2, Scale::Tiny, &[App::Tsp]);
        assert!(s.contains("fast-10x"));
        assert!(s.contains("ATM-155"));
    }

    #[test]
    fn diffing_sweep_renders() {
        let s = ablation_diffing(2, Scale::Tiny, &[App::Is]);
        assert!(s.contains("eager"));
        assert!(s.contains("lazy"));
    }

    #[test]
    fn related_renders_and_checks() {
        let s = related(2, Scale::Tiny, &[App::Sor, App::Is]);
        assert!(s.contains("HLRC(p0)"));
        assert!(s.contains("SC vs LRC"));
        assert!(s.contains("Home-placement sensitivity"));
    }

    #[test]
    fn quantum_sweep_renders() {
        let s = ablation_quantum(2, Scale::Tiny, &[App::Is]);
        assert!(s.contains("1000us"));
        assert!(s.contains("WFS"));
    }

    #[test]
    fn wg_sweep_renders() {
        let s = ablation_wg(2, Scale::Tiny, &[App::Tsp]);
        assert!(s.contains("3072B"));
    }

    #[test]
    fn gc_sweep_renders() {
        let s = ablation_gc(2, Scale::Tiny);
        assert!(s.contains("64KB"));
    }

    #[test]
    fn migratory_sweep_renders() {
        let s = ablation_migratory(2, Scale::Tiny, &[App::Is]);
        assert!(s.contains("MigGrants"));
    }
}
