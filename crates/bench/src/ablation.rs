//! Beyond-the-paper harnesses: the §7 related-work comparison (SC and
//! home-based LRC) and ablations of the design constants the paper fixes
//! by measurement (ownership quantum, write-granularity threshold, diff
//! GC threshold) or argues from (network bandwidth).
//!
//! Each generator returns its report as a string; the `repro` binary
//! prints them (`repro related ablations sensitivity scaling`). Every
//! grid of preset-input cells runs through [`Matrix::collect`]; only
//! the sensitivity study, whose inputs are not presets, calls the apps
//! directly.

use std::fmt::Write as _;

use adsm_apps::{App, RunOptions, Scale};
use adsm_core::{CostModel, HomePolicy, ProtocolKind, SimTime};

use crate::{Matrix, PROTOCOLS};

/// The ownership quanta [`ablation_quantum`] sweeps, in µs.
const QUANTA_US: [u64; 5] = [0, 250, 1_000, 2_000, 4_000];
/// The diff-size thresholds [`ablation_wg`] sweeps, in bytes.
const WG_THRESHOLDS: [usize; 5] = [512, 1024, 3 * 1024, 4 * 1024, 8 * 1024];
/// The diff-space thresholds [`ablation_gc`] sweeps, in bytes.
const GC_THRESHOLDS: [usize; 4] = [64 << 10, 256 << 10, 1 << 20, 4 << 20];

/// The interconnects [`ablation_network`] compares.
fn networks() -> [(&'static str, CostModel); 2] {
    [
        ("ATM-155", CostModel::sparc_atm()),
        ("fast-10x", CostModel::fast_network()),
    ]
}

/// Default run options with the cost model changed by `tweak`.
fn tuned(tweak: impl FnOnce(&mut CostModel)) -> RunOptions {
    let mut cost = CostModel::sparc_atm();
    tweak(&mut cost);
    RunOptions {
        cost,
        ..RunOptions::default()
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

    let lrc_sc = [
        ProtocolKind::Sw,
        ProtocolKind::Mw,
        ProtocolKind::Wfs,
        ProtocolKind::Sc,
    ];
    let base = Matrix::collect(nprocs, scale, apps, &lrc_sc, &RunOptions::default());
    let homes = placements.map(|(_, home_policy)| {
        let opts = RunOptions {
            home_policy,
            ..RunOptions::default()
        };
        Matrix::collect(nprocs, scale, apps, &[ProtocolKind::Hlrc], &opts)
    });
    let cells = lrc_sc
        .iter()
        .map(|&proto| (&base, proto))
        .chain(homes.iter().map(|m| (m, ProtocolKind::Hlrc)));

    let total = apps.len();
    let mut sc_wins = 0usize;
    let mut consistency_benefit = 1.0f64; // product of SW/SC ratios
    let mut writer_benefit = 1.0f64; // product of max(SW,MW)/SW ratios
    let mut home_ratios: Vec<(App, f64)> = Vec::new();

    for &app in apps {
        let mut row = format!("{:<8}", app.name());
        for (m, proto) in cells.clone() {
            let net = &m.report(app, proto).net;
            let _ = write!(
                row,
                " {:>6.2}/{:>5.1}/{:>5.1}",
                m.speedup(app, proto),
                net.total_messages() as f64 / 1e3,
                net.total_bytes() as f64 / 1e6
            );
        }
        let _ = writeln!(out, "{row}");

        let [sw, mw, _, sc] = lrc_sc.map(|proto| base.speedup(app, proto));
        if sc > sw.max(mw) * 1.02 {
            sc_wins += 1;
        }
        consistency_benefit *= sw / sc;
        writer_benefit *= sw.max(mw) / sw;
        let hlrc_data: Vec<f64> = homes
            .iter()
            .map(|m| m.report(app, ProtocolKind::Hlrc).net.total_bytes() as f64 / 1e6)
            .collect();
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
    let protocols = [ProtocolKind::Sw, ProtocolKind::Wfs];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — SW ownership quantum ({} procs, {} scale): speedups",
        nprocs, scale
    );
    let mut header = format!("{:<8} {:<6}", "App", "Proto");
    for q in QUANTA_US {
        let _ = write!(header, " {:>9}", format!("{}us", q));
    }
    let _ = writeln!(out, "{header}   (paper default 1000us)");
    let grids = QUANTA_US.map(|q| {
        let opts = tuned(|cost| cost.ownership_quantum = SimTime::from_us(q));
        Matrix::collect(nprocs, scale, apps, &protocols, &opts)
    });
    for &app in apps {
        for protocol in protocols {
            let mut row = format!("{:<8} {:<6}", app.name(), protocol.name());
            for m in &grids {
                let _ = write!(row, " {:>9.2}", m.speedup(app, protocol));
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
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — WFS+WG diff-size threshold ({} procs, {} scale): speedups",
        nprocs, scale
    );
    let mut header = format!("{:<8}", "App");
    for t in WG_THRESHOLDS {
        let _ = write!(header, " {:>9}", format!("{}B", t));
    }
    let _ = writeln!(out, "{header}   (paper default 3072B)");
    let grids = WG_THRESHOLDS.map(|t| {
        let opts = tuned(|cost| cost.wg_threshold_bytes = t);
        Matrix::collect(nprocs, scale, apps, &[ProtocolKind::WfsWg], &opts)
    });
    for &app in apps {
        let mut row = format!("{:<8}", app.name());
        for m in &grids {
            let _ = write!(row, " {:>9.2}", m.speedup(app, ProtocolKind::WfsWg));
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
    let protocols = [ProtocolKind::Mw, ProtocolKind::Wfs];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — diff GC threshold, 3D-FFT ({} procs, {} scale): GC runs / peak diff MB / speedup",
        nprocs, scale
    );
    let _ = writeln!(out, "{:<10} {:>18} {:>18}", "Threshold", "MW", "WFS");
    for t in GC_THRESHOLDS {
        let opts = tuned(|cost| cost.gc_threshold_bytes = t);
        let m = Matrix::collect(nprocs, scale, &[App::Fft3d], &protocols, &opts);
        let mut row = format!("{:<10}", format!("{}KB", t >> 10));
        for protocol in protocols {
            let r = m.report(App::Fft3d, protocol);
            let _ = write!(
                row,
                " {:>6}/{:>5.2}/{:>5.2}",
                r.proto.gc_runs,
                r.proto.peak_storage_bytes as f64 / 1e6,
                m.speedup(App::Fft3d, protocol),
            );
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Network-bandwidth ablation (§3.2: *"Besides the write granularity of
/// the application, this tradeoff is highly dependent on the network
/// bandwidth"*). Reruns the protocol comparison on a 10x faster
/// interconnect: cheaper whole-page transfers shrink the region where
/// diffs win, so MW's advantage on small-granularity applications (TSP)
/// narrows and the whole-page protocols gain ground. The sequential
/// basis shares each network's cost model (it only affects local
/// charges, but keeps ratios comparable).
pub fn ablation_network(nprocs: usize, scale: Scale, apps: &[App]) -> String {
    let networks = networks();
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
    let grids = networks.each_ref().map(|(_, cost)| {
        let opts = RunOptions {
            cost: cost.clone(),
            ..RunOptions::default()
        };
        Matrix::collect(nprocs, scale, apps, &PROTOCOLS, &opts)
    });
    for &app in apps {
        for ((name, _), m) in networks.iter().zip(&grids) {
            let mut row = format!("{:<8} {:<9}", app.name(), name);
            for protocol in PROTOCOLS {
                let _ = write!(row, " {:>8.2}", m.speedup(app, protocol));
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
    let opts = RunOptions::default();

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
        let seq = sor::run(ProtocolKind::Raw, 1, params, &opts)
            .outcome
            .report
            .time;
        rows.push(Row {
            label: label.into(),
            mw: sor::run(ProtocolKind::Mw, nprocs, params, &opts),
            wfs: sor::run(ProtocolKind::Wfs, nprocs, params, &opts),
            sw: sor::run(ProtocolKind::Sw, nprocs, params, &opts),
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
        let seq = shallow::run(ProtocolKind::Raw, 1, params, &opts)
            .outcome
            .report
            .time;
        rows.push(Row {
            label: label.into(),
            mw: shallow::run(ProtocolKind::Mw, nprocs, params, &opts),
            wfs: shallow::run(ProtocolKind::Wfs, nprocs, params, &opts),
            sw: shallow::run(ProtocolKind::Sw, nprocs, params, &opts),
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
    let protocols = [ProtocolKind::Mw, ProtocolKind::Wfs, ProtocolKind::Sw];
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
    let grids = sizes
        .map(|nprocs| Matrix::collect(nprocs, scale, apps, &protocols, &RunOptions::default()));
    for &app in apps {
        for protocol in protocols {
            let mut row = format!("{:<8} {:<6}", app.name(), protocol.name());
            for m in &grids {
                let _ = write!(row, " {:>7.2}", m.speedup(app, protocol));
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

    /// What makes `Matrix::collect`'s memoised sequential time sound:
    /// under every setting a sweep varies, at both ends of the sweep,
    /// each app's Raw run takes exactly as long as under the default
    /// settings with the same access charges (the memo's key).
    #[test]
    fn raw_time_reads_only_the_access_charges() {
        fn ends<T: Copy>(sweep: &[T]) -> [T; 2] {
            [sweep[0], sweep[sweep.len() - 1]]
        }
        let mut swept: Vec<(String, RunOptions)> = Vec::new();
        for q in ends(&QUANTA_US) {
            let opts = tuned(|cost| cost.ownership_quantum = SimTime::from_us(q));
            swept.push((format!("quantum {q}us"), opts));
        }
        for t in ends(&WG_THRESHOLDS) {
            swept.push((
                format!("WG {t}B"),
                tuned(|cost| cost.wg_threshold_bytes = t),
            ));
        }
        for t in ends(&GC_THRESHOLDS) {
            swept.push((
                format!("GC {t}B"),
                tuned(|cost| cost.gc_threshold_bytes = t),
            ));
        }
        for (name, cost) in networks() {
            swept.push((
                name.to_string(),
                RunOptions {
                    cost,
                    ..RunOptions::default()
                },
            ));
        }
        for home_policy in [HomePolicy::FirstTouch, HomePolicy::Fixed(1)] {
            swept.push((
                format!("{home_policy:?}"),
                RunOptions {
                    home_policy,
                    ..RunOptions::default()
                },
            ));
        }
        let raw_time = |app, opts: &RunOptions| {
            let run = adsm_apps::run_app_tuned(app, ProtocolKind::Raw, 1, Scale::Tiny, opts);
            assert!(
                run.ok,
                "{app} under Raw failed verification: {}",
                run.detail
            );
            run.outcome.report.time
        };
        for app in App::ALL {
            for (name, opts) in &swept {
                let same_access = tuned(|cost| {
                    cost.shared_access = opts.cost.shared_access;
                    cost.mem_per_byte_ns = opts.cost.mem_per_byte_ns;
                });
                assert_eq!(
                    raw_time(app, opts),
                    raw_time(app, &same_access),
                    "{app}: the Raw time under {name} differs from the default's"
                );
            }
        }
    }
}
