//! The paper's Figure 3: diff creation and garbage collection over time
//! in 3D-FFT, under MW, WFS+WG and WFS.
//!
//! ```text
//! cargo run --release --example diff_trace
//! ```
//!
//! MW accumulates diffs until the GC threshold forces a garbage
//! collection at the next barrier (the saw-tooth); the threshold is the
//! paper's 1 MB per processor scaled to the grid, as `repro fig3` runs it. WFS uses
//! diffs only for the one falsely-shared page, so its curve hugs zero.
//! WFS+WG initially diffs everything (measuring write granularity),
//! then switches the large-diff pages to single-writer mode and
//! flattens — the behaviour of the paper's Figure 3.

use adsm::apps::fft3d::{self, FftParams};
use adsm::{CostModel, ProtocolKind, RunOptions, Scale};

fn main() {
    println!("3D-FFT diff population over virtual time (small scale, 8 procs)\n");
    let protos = [ProtocolKind::Mw, ProtocolKind::WfsWg, ProtocolKind::Wfs];
    let mut runs = Vec::new();
    let mut peak = 1u64;
    let params = FftParams::new(Scale::Small);
    let opts = RunOptions {
        cost: CostModel {
            gc_threshold_bytes: fft3d::fig3_gc_threshold(params),
            ..CostModel::sparc_atm()
        },
        ..RunOptions::default()
    };
    for proto in protos {
        let run = fft3d::run(proto, 8, params, &opts);
        assert!(run.ok, "{proto}: {}", run.detail);
        peak = peak.max(peak_of(&run.outcome.report.diffs_alive));
        runs.push((proto, run));
    }
    for (proto, run) in &runs {
        let report = &run.outcome.report;
        let series = &report.diffs_alive;
        println!(
            "{:<7} peak {:>5} diffs | {:>2} GCs | cumulative diff bytes {:>9.2} KB",
            proto.name(),
            peak_of(series),
            report.proto.gc_runs,
            report.proto.diff_bytes_created as f64 / 1e3,
        );
        // At most 72 evenly spaced samples, first and last included.
        let cols = series.len().min(72);
        let mut line = String::from("  |");
        for i in 0..cols {
            let at = if cols == series.len() {
                i
            } else {
                (i as f64 * (series.len() - 1) as f64 / (cols - 1) as f64).round() as usize
            };
            let lvl = (series[at].1 * 8 / peak).min(8) as usize;
            line.push(" 12345678#".as_bytes()[lvl] as char);
        }
        line.push('|');
        println!("{line}\n");
    }
    println!("(Columns are evenly spaced sample indices; height is diffs alive,");
    println!(" normalised to the MW peak of {peak}.)");
}

/// The highest diff population of a run's Figure 3 series.
fn peak_of(series: &[(adsm::SimTime, u64)]) -> u64 {
    series.iter().map(|&(_, n)| n).max().unwrap_or(0)
}
