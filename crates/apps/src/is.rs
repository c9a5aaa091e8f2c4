//! NAS IS — integer sort by bucket counting (§5, §6.4).
//!
//! The keys are divided among the processors. Each iteration, every
//! processor counts its keys into private buckets and then adds them
//! into the shared bucket array under a lock; a barrier ends the
//! iteration and the master validates the histogram total.
//!
//! Sharing pattern: **migratory** — the shared bucket pages pass from
//! processor to processor under the lock, each one overwriting the pages
//! completely (every bucket count changes). There is no write-write
//! false sharing and the write granularity is large: SW-style whole-page
//! handling wins, which is what the adaptive protocols discover.

use std::sync::Arc;

use adsm_core::{Dsm, ProtocolKind, SharedVec};

use crate::support::{band, compare_u64, mix64, work, Oracle};
use crate::{AppRun, RunOptions, Scale};

/// IS input parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsParams {
    /// log2 of the number of keys.
    pub log_keys: u32,
    /// log2 of the number of buckets (key range).
    pub log_buckets: u32,
    /// Ranking iterations.
    pub iters: usize,
    /// Modelled compute per key, in nanoseconds.
    pub ns_per_key: u64,
    /// Random seed for key generation.
    pub seed: u64,
}

impl IsParams {
    /// Parameters for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => IsParams {
                log_keys: 12,
                log_buckets: 10,
                iters: 3,
                ns_per_key: 40,
                seed: 0x15_0001,
            },
            Scale::Small => IsParams {
                log_keys: 17,
                log_buckets: 11,
                iters: 8,
                ns_per_key: 4_000,
                seed: 0x15_0001,
            },
            // Paper: NAS IS with 2^20-key-class inputs; scaled to keep
            // the simulator within a benchmark budget.
            Scale::Paper => IsParams {
                log_keys: 18,
                log_buckets: 12,
                iters: 10,
                ns_per_key: 4_000,
                seed: 0x15_0001,
            },
            // 2^14 keys: 64 keys per processor at 256-way, with
            // tiny-scale modelled compute.
            Scale::Large => IsParams {
                log_keys: 14,
                log_buckets: 10,
                iters: 3,
                ns_per_key: 40,
                seed: 0x15_0001,
            },
        }
    }

    fn nkeys(&self) -> usize {
        1 << self.log_keys
    }

    fn nbuckets(&self) -> usize {
        1 << self.log_buckets
    }

    /// Key `i` for iteration `it` (keys are regenerated per iteration,
    /// as NAS IS perturbs its sequence).
    fn key(&self, it: usize, i: usize) -> usize {
        (mix64(self.seed ^ ((it as u64) << 40) ^ i as u64) as usize) & (self.nbuckets() - 1)
    }
}

/// Sequential reference: the accumulated histogram over all iterations,
/// computed once per input.
pub fn reference(params: &IsParams) -> Arc<Vec<u64>> {
    static ORACLE: Oracle<IsParams, Vec<u64>> = Oracle::new();
    ORACLE.get(params, sequential)
}

fn sequential(params: &IsParams) -> Vec<u64> {
    let mut buckets = vec![0u64; params.nbuckets()];
    for it in 0..params.iters {
        for i in 0..params.nkeys() {
            buckets[params.key(it, i)] += 1;
        }
    }
    buckets
}

/// Runs IS under `protocol` and `opts` and verifies the final histogram.
pub fn run(protocol: ProtocolKind, nprocs: usize, params: IsParams, opts: &RunOptions) -> AppRun {
    let want = reference(&params);
    let mut dsm = Dsm::builder(protocol)
        .nprocs(nprocs)
        .options(opts.clone())
        .build();
    let buckets: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(params.nbuckets());
    let checksum: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(1);

    let outcome = dsm
        .run(move |p| {
            let nb = params.nbuckets();
            let (k0, k1) = band(params.nkeys(), p.nprocs(), p.index());
            let mut private = vec![0u64; nb];
            let mut shared = vec![0u64; nb];
            for it in 0..params.iters {
                // Phase 1: count private keys (local work only).
                for slot in private.iter_mut() {
                    *slot = 0;
                }
                for i in k0..k1 {
                    private[params.key(it, i)] += 1;
                }
                p.compute(work(k1 - k0, params.ns_per_key));

                // Phase 2: merge into the shared buckets inside the
                // critical section (the migratory whole-page update —
                // one read span and one write span over the array).
                p.critical(0, |p| {
                    buckets.read_into(p, 0, &mut shared);
                    for (s, v) in shared.iter_mut().zip(&private) {
                        *s += v;
                    }
                    buckets.write_from(p, 0, &shared);
                    p.compute(work(nb, 15));
                });

                p.barrier();
                // Phase 3: the master checks the running total.
                if p.index() == 0 {
                    buckets.read_into(p, 0, &mut shared);
                    let total: u64 = shared.iter().sum();
                    checksum.set(p, 0, total);
                    p.compute(work(nb, 5));
                }
                p.barrier();
            }
        })
        .expect("IS run failed");

    let mut check = compare_u64(outcome.elems(&buckets), &want);
    if check.is_ok() {
        let total = outcome.read_elem(&checksum, 0);
        let expect = (params.nkeys() * params.iters) as u64;
        if total != expect {
            check = Err(format!("checksum {total}, want {expect}"));
        }
    }
    AppRun::verified(outcome, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_app, App};

    #[test]
    fn reference_counts_every_key() {
        let params = IsParams::new(Scale::Tiny);
        let buckets = reference(&params);
        let total: u64 = buckets.iter().sum();
        assert_eq!(total, (params.nkeys() * params.iters) as u64);
    }

    #[test]
    fn parallel_matches_reference_all_protocols() {
        for protocol in [
            ProtocolKind::Mw,
            ProtocolKind::Sw,
            ProtocolKind::Wfs,
            ProtocolKind::WfsWg,
        ] {
            let run = run_app(App::Is, protocol, 4, Scale::Tiny);
            assert!(run.ok, "{protocol}: {}", run.detail);
        }
    }

    #[test]
    fn is_has_no_write_write_false_sharing() {
        let run = run_app(App::Is, ProtocolKind::Mw, 4, Scale::Tiny);
        assert_eq!(run.outcome.report.profile.ww_false_shared_pages, 0);
    }

    #[test]
    fn wfs_keeps_is_buckets_in_sw_mode() {
        // Migratory data with whole-page writes: WFS should never need
        // twins for the bucket pages.
        let run = run_app(App::Is, ProtocolKind::Wfs, 4, Scale::Tiny);
        assert!(run.ok, "{}", run.detail);
        assert_eq!(
            run.outcome.report.proto.ownership_refusals, 0,
            "lock-ordered writes are not falsely shared"
        );
    }
}
