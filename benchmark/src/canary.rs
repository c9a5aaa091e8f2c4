//! Race canaries: the two threads-backend cells the workloads leave out
//! because they fail verification on some schedules. Reported, never
//! gated — the number a fix drives to zero.

use adsm_apps::{App, RunOptions, Scale};
use adsm_core::{ExecBackend, ProtocolKind};

use crate::metric::Metric;
use crate::workload::{run_cell, Cell};

/// Runs per canary.
pub const RUNS: usize = 100;

/// The excluded cells: metric name, app, protocol.
pub const CANARIES: [(&str, App, ProtocolKind); 2] = [
    (
        "canary.water_wfs_threads_fail_share",
        App::Water,
        ProtocolKind::Wfs,
    ),
    (
        "canary.sor_sc_threads_fail_share",
        App::Sor,
        ProtocolKind::Sc,
    ),
];

/// Runs every canary `runs` times at 8 processors, `Small`, on real
/// threads. Returns the fail shares and, per canary, the first failure
/// line seen (the sample the README quotes).
pub fn run_all(runs: usize) -> (Vec<Metric>, Vec<String>) {
    let opts = RunOptions {
        backend: ExecBackend::Threads,
        ..RunOptions::default()
    };
    let mut metrics = Vec::new();
    let mut samples = Vec::new();
    for (name, app, protocol) in CANARIES {
        let mut failed = 0usize;
        for _ in 0..runs {
            let s = run_cell(Cell { app, protocol }, 8, Scale::Small, &opts);
            if let Some(why) = s.failure {
                if failed == 0 {
                    samples.push(format!("{app} {protocol}: {why}"));
                }
                failed += 1;
            }
        }
        metrics
            .push(Metric::new(name, failed as f64 / runs as f64, "share").with("n", runs as f64));
    }
    (metrics, samples)
}
