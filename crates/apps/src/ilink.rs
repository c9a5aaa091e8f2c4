//! ILINK — genetic linkage analysis (§5, §6.4).
//!
//! The production ILINK code and its pedigree inputs are proprietary, so
//! this is a **synthetic workload with the paper's stated access
//! structure** (see DESIGN.md): the main data structure is a pool of
//! sparse arrays ("genarrays"); a master processor assigns the nonzero
//! elements to all processors round-robin; each processor updates its
//! share in place; then the master sums the contributions. Round-robin
//! assignment scatters each processor's small writes over the whole
//! pool, so most pages holding nonzeros are write-write falsely shared —
//! the paper measures 58.3% with small-to-medium write granularity.
//!
//! Access-layer note: ILINK's accesses are genuinely scalar and sparse
//! (scattered nonzeros), so it runs on the span machinery through the
//! per-element `get`/`set`/`update` paths — batching them into wider
//! span views would erase exactly the fine-grained scatter the paper's
//! false-sharing numbers come from.

use std::sync::Arc;

use adsm_core::{Dsm, ProtocolKind, SharedVec};

use crate::support::{compare_f64, mix64, work, Oracle};
use crate::{AppRun, RunOptions, Scale};

/// ILINK input parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IlinkParams {
    /// Number of genarrays in the pool.
    pub narrays: usize,
    /// Slots per genarray.
    pub slots: usize,
    /// Mean nonzeros per page (sparsity; ~2 reproduces the paper's 58%
    /// falsely-shared pages under round-robin assignment).
    pub nnz_per_page: f64,
    /// Optimisation iterations (gradient-like updates).
    pub iters: usize,
    /// Instance seed.
    pub seed: u64,
    /// Modelled compute per nonzero update, in nanoseconds.
    pub ns_per_nnz: u64,
}

impl IlinkParams {
    /// Parameters for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => IlinkParams {
                narrays: 4,
                slots: 2048,
                nnz_per_page: 2.0,
                iters: 3,
                seed: 0x111_417,
                ns_per_nnz: 800,
            },
            Scale::Small => IlinkParams {
                narrays: 4,
                slots: 4096,
                nnz_per_page: 2.0,
                iters: 6,
                seed: 0x111_417,
                ns_per_nnz: 20_000_000,
            },
            // Paper: a production genetics run (820s sequential); the
            // synthetic pool is scaled to benchmark budgets.
            Scale::Paper => IlinkParams {
                narrays: 8,
                slots: 8192,
                nnz_per_page: 2.0,
                iters: 8,
                seed: 0x111_417,
                ns_per_nnz: 20_000_000,
            },
            // A wide slot pool (32 pages per genarray) so 64+
            // processors all own slot bands, at tiny-scale compute.
            Scale::Large => IlinkParams {
                narrays: 4,
                slots: 16384,
                nnz_per_page: 2.0,
                iters: 3,
                seed: 0x111_417,
                ns_per_nnz: 800,
            },
        }
    }

    fn pool(&self) -> usize {
        self.narrays * self.slots
    }

    /// The deterministic nonzero pattern: slot indices, sorted.
    fn nonzeros(&self) -> Vec<usize> {
        let slots_per_page = adsm_core::PAGE_SIZE / 8;
        let expected =
            (self.pool() as f64 / slots_per_page as f64 * self.nnz_per_page).round() as usize;
        let mut idx: Vec<usize> = (0..expected)
            .map(|k| (mix64(self.seed ^ (k as u64 + 0x9000)) as usize) % self.pool())
            .collect();
        idx.sort_unstable();
        idx.dedup();
        idx
    }
}

/// One gradient-like update of a nonzero value given the global
/// parameter `theta`.
fn update_value(v: f64, theta: f64, slot: usize) -> f64 {
    let weight = 1.0 + (slot % 97) as f64 / 97.0;
    0.9 * v + 0.1 * theta * weight + 0.01
}

/// Sequential reference: final pool contents and final theta, computed
/// once per input.
pub fn reference(params: &IlinkParams) -> Arc<(Vec<f64>, f64)> {
    static ORACLE: Oracle<IlinkParams, (Vec<f64>, f64)> = Oracle::new();
    ORACLE.get(params, sequential)
}

fn sequential(params: &IlinkParams) -> (Vec<f64>, f64) {
    let nnz = params.nonzeros();
    let mut pool = vec![0.0f64; params.pool()];
    let mut theta = 1.0f64;
    for &i in &nnz {
        pool[i] = 0.5;
    }
    for _ in 0..params.iters {
        for &i in &nnz {
            pool[i] = update_value(pool[i], theta, i);
        }
        let sum: f64 = nnz.iter().map(|&i| pool[i]).sum();
        theta = 1.0 + sum / (nnz.len().max(1) as f64 * 10.0);
    }
    (pool, theta)
}

/// Runs ILINK under `protocol` and `opts` and verifies pool and theta.
pub fn run(
    protocol: ProtocolKind,
    nprocs: usize,
    params: IlinkParams,
    opts: &RunOptions,
) -> AppRun {
    let want = reference(&params);
    let mut dsm = Dsm::builder(protocol)
        .nprocs(nprocs)
        .options(opts.clone())
        .build();
    let pool: SharedVec<f64> = dsm.alloc_page_aligned::<f64>(params.pool());
    let theta: SharedVec<f64> = dsm.alloc_page_aligned::<f64>(1);

    let outcome = dsm
        .run(move |p| {
            let nnz = params.nonzeros();
            let np = p.nprocs();
            // Master initialises the pool's nonzeros and theta.
            if p.index() == 0 {
                for &i in &nnz {
                    pool.set(p, i, 0.5);
                }
                theta.set(p, 0, 1.0);
            }
            p.barrier();

            // Round-robin assignment, as the paper describes.
            let mine: Vec<usize> = nnz
                .iter()
                .copied()
                .enumerate()
                .filter(|(k, _)| k % np == p.index())
                .map(|(_, i)| i)
                .collect();

            for _ in 0..params.iters {
                let th = theta.get(p, 0);
                for &i in &mine {
                    pool.update(p, i, |v| update_value(v, th, i));
                }
                p.compute(work(mine.len(), params.ns_per_nnz));
                p.barrier();

                // Master sums the contributions and updates theta.
                if p.index() == 0 {
                    let mut sum = 0.0;
                    for &i in &nnz {
                        sum += pool.get(p, i);
                    }
                    p.compute(work(nnz.len(), 25));
                    theta.set(p, 0, 1.0 + sum / (nnz.len().max(1) as f64 * 10.0));
                }
                p.barrier();
            }
        })
        .expect("ILINK run failed");

    let got_theta = outcome.read_elem(&theta, 0);
    let (want_pool, want_theta) = &*want;
    let mut check = compare_f64(outcome.elems(&pool), want_pool, 1e-12);
    if check.is_ok() && (got_theta - want_theta).abs() > 1e-9 {
        check = Err(format!("theta {got_theta}, want {want_theta}"));
    }
    AppRun::verified(outcome, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_app, App};

    #[test]
    fn nonzero_pattern_is_sparse_and_deterministic() {
        let params = IlinkParams::new(Scale::Tiny);
        let a = params.nonzeros();
        let b = params.nonzeros();
        assert_eq!(a, b);
        assert!(a.len() < params.pool() / 100, "pattern must be sparse");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
    }

    #[test]
    fn reference_converges_to_finite_theta() {
        let (pool, theta) = &*reference(&IlinkParams::new(Scale::Tiny));
        assert!(theta.is_finite() && *theta > 1.0);
        assert!(pool.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn parallel_matches_reference_all_protocols() {
        for protocol in [
            ProtocolKind::Mw,
            ProtocolKind::Sw,
            ProtocolKind::Wfs,
            ProtocolKind::WfsWg,
        ] {
            let run = run_app(App::Ilink, protocol, 4, Scale::Tiny);
            assert!(run.ok, "{protocol}: {}", run.detail);
        }
    }

    #[test]
    fn ilink_is_dominated_by_false_sharing() {
        let run = run_app(App::Ilink, ProtocolKind::Mw, 4, Scale::Small);
        let prof = &run.outcome.report.profile;
        assert!(
            prof.pct_ww_false_shared > 35.0,
            "round-robin scattering must falsely share many pages, got {}%",
            prof.pct_ww_false_shared
        );
        assert!(
            prof.mean_write_grain < 512.0,
            "small writes, got {}",
            prof.mean_write_grain
        );
    }
}
