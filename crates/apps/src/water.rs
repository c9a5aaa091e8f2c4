//! SPLASH Water — molecular dynamics with an O(n²) pairwise force
//! computation and a cutoff radius (§5, §6.4).
//!
//! The molecule array is allocated contiguously and partitioned among
//! the processors. Each molecule record is 85 doubles (680 bytes), so
//! about six records share a page — the paper's layout. Force
//! contributions to other processors' molecules are accumulated locally
//! and added under per-owner locks; position updates write each owner's
//! own records. Partition boundaries fall inside pages, so a small
//! fraction of pages (the paper measures 3.5%) is write-write falsely
//! shared.

use std::sync::Arc;

use adsm_core::{Dsm, ProtocolKind, SharedVec};

use crate::support::{band, compare_f64, unit_f64, work, Oracle};
use crate::{AppRun, RunOptions, Scale};

/// Doubles per molecule record (positions, velocities, forces, per-
/// contributor force slots, and the predictor/corrector state of the
/// full SPLASH record).
pub const MOL_WORDS: usize = 85;

const POS: usize = 0;
const VEL: usize = 3;
const FRC: usize = 6;
/// Per-contributor partial-force slots (3 doubles each, up to
/// [`MAX_PROCS`] contributors). The owner reduces them in processor
/// order, which makes the floating-point sum independent of lock-grant
/// timing — bit-identical to the sequential reference.
const SLOT: usize = 9;
/// Maximum cluster size Water supports (slot space in the record).
pub const MAX_PROCS: usize = 16;

/// Water input parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaterParams {
    /// Number of molecules.
    pub nmol: usize,
    /// Timesteps.
    pub steps: usize,
    /// Instance seed.
    pub seed: u64,
    /// Modelled compute per interacting pair, in nanoseconds.
    pub ns_per_pair: u64,
}

impl WaterParams {
    /// Parameters for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => WaterParams {
                nmol: 48,
                steps: 2,
                seed: 0xAA_7E4,
                ns_per_pair: 300,
            },
            Scale::Small => WaterParams {
                nmol: 192,
                steps: 4,
                seed: 0xAA_7E4,
                ns_per_pair: 60_000,
            },
            // Paper: 512 molecules.
            Scale::Paper => WaterParams {
                nmol: 512,
                steps: 5,
                seed: 0xAA_7E4,
                ns_per_pair: 60_000,
            },
            // Two molecules per processor at 256-way.
            Scale::Large => WaterParams {
                nmol: 512,
                steps: 2,
                seed: 0xAA_7E4,
                ns_per_pair: 300,
            },
        }
    }
}

const CUTOFF: f64 = 0.35;
const DT: f64 = 0.002;
const STIFF: f64 = 25.0;
/// Softening keeps near-contact forces bounded, so floating-point
/// reduction-order differences stay within the verification tolerance.
const SOFT: f64 = 0.05;

/// Deterministic initial positions in the unit box; zero velocities.
fn initial_positions(params: &WaterParams) -> Vec<[f64; 3]> {
    (0..params.nmol)
        .map(|i| {
            [
                unit_f64(params.seed ^ (i as u64 * 3 + 1)),
                unit_f64(params.seed ^ (i as u64 * 3 + 2)),
                unit_f64(params.seed ^ (i as u64 * 3 + 3)),
            ]
        })
        .collect()
}

/// Soft repulsive pair force on molecule `a` from molecule `b`:
/// `STIFF * (CUTOFF - r)^2` along the separation, zero beyond the
/// cutoff. Deterministic and numerically tame.
fn pair_force(pa: &[f64; 3], pb: &[f64; 3]) -> Option<[f64; 3]> {
    let d = [pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 >= CUTOFF * CUTOFF || r2 == 0.0 {
        return None;
    }
    let r = r2.sqrt();
    let mag = STIFF * (CUTOFF - r) * (CUTOFF - r) / (r + SOFT);
    Some([d[0] * mag / r, d[1] * mag / r, d[2] * mag / r])
}

/// Sequential reference: the flattened final positions, computed once
/// per input.
pub fn reference(params: &WaterParams) -> Arc<Vec<f64>> {
    static ORACLE: Oracle<WaterParams, Vec<f64>> = Oracle::new();
    ORACLE.get(params, sequential)
}

fn sequential(params: &WaterParams) -> Vec<f64> {
    let n = params.nmol;
    let mut pos = initial_positions(params);
    let mut vel = vec![[0.0f64; 3]; n];
    for _ in 0..params.steps {
        let mut force = vec![[0.0f64; 3]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(f) = pair_force(&pos[i], &pos[j]) {
                    for k in 0..3 {
                        force[i][k] += f[k];
                        force[j][k] -= f[k];
                    }
                }
            }
        }
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] += force[i][k] * DT;
                pos[i][k] += vel[i][k] * DT;
            }
        }
    }
    pos.into_iter().flatten().collect()
}

/// Runs Water under `protocol` and `opts` and verifies final positions.
///
/// # Panics
///
/// Panics if `nprocs` exceeds [`MAX_PROCS`] (the contributor-slot space
/// in the molecule record).
pub fn run(
    protocol: ProtocolKind,
    nprocs: usize,
    params: WaterParams,
    opts: &RunOptions,
) -> AppRun {
    assert!(
        nprocs <= MAX_PROCS,
        "Water supports at most {MAX_PROCS} processors"
    );
    let n = params.nmol;
    let want = reference(&params);
    let mut dsm = Dsm::builder(protocol)
        .nprocs(nprocs)
        .options(opts.clone())
        .build();
    let mol: SharedVec<f64> = dsm.alloc_page_aligned::<f64>(n * MOL_WORDS);

    let outcome = dsm
        .run(move |p| {
            let np = p.nprocs();
            let owner_of = move |i: usize| {
                (0..np)
                    .find(|&k| {
                        let (s, e) = band(n, np, k);
                        i >= s && i < e
                    })
                    .expect("molecule owned")
            };
            let (m0, m1) = band(n, np, p.index());

            if p.index() == 0 {
                let pos = initial_positions(&params);
                for (i, q) in pos.iter().enumerate() {
                    mol.write_from(p, i * MOL_WORDS + POS, q);
                }
            }
            p.barrier();

            let mut positions = vec![[0.0f64; 3]; n];
            for _ in 0..params.steps {
                // Read all positions (everyone reads the whole array —
                // the O(n^2) interaction needs them all).
                for (i, q) in positions.iter_mut().enumerate() {
                    // One span view per molecule position: three doubles
                    // decoded in place, no per-gather vector.
                    let s = i * MOL_WORDS + POS;
                    mol.view(p, s..s + 3).copy_to_slice(q);
                }

                // Pair forces for pairs whose lower index is ours;
                // contributions accumulate in a private scratch.
                let mut scratch = vec![[0.0f64; 3]; n];
                let mut pairs = 0usize;
                for i in m0..m1 {
                    for j in (i + 1)..n {
                        pairs += 1;
                        if let Some(f) = pair_force(&positions[i], &positions[j]) {
                            for k in 0..3 {
                                scratch[i][k] += f[k];
                                scratch[j][k] -= f[k];
                            }
                        }
                    }
                }
                p.compute(work(pairs, params.ns_per_pair));

                // Deposit the partial sums into this contributor's slots
                // of the affected molecule records, one owner's region at
                // a time under that owner's lock (the paper's
                // lock-protected force updates).
                let my_slot = SLOT + 3 * p.index();
                for owner in 0..np {
                    let (s, e) = band(n, np, owner);
                    let touched: Vec<usize> = (s..e).filter(|&i| scratch[i] != [0.0; 3]).collect();
                    if touched.is_empty() {
                        continue;
                    }
                    p.critical(100 + owner as u64, |p| {
                        for &i in &touched {
                            mol.write_from(p, i * MOL_WORDS + my_slot, &scratch[i]);
                        }
                    });
                }
                let _ = owner_of;
                p.barrier();

                // Update own molecules: reduce the contributor slots in
                // processor order (deterministic float sum), integrate,
                // and clear the slots for the next step.
                for i in m0..m1 {
                    let base = i * MOL_WORDS;
                    let mut rec = mol.read_range(p, base, base + SLOT + 3 * np);
                    for k in 0..3 {
                        let mut f = 0.0f64;
                        for c in 0..np {
                            f += rec[SLOT + 3 * c + k];
                        }
                        rec[FRC + k] = f;
                        rec[VEL + k] += f * DT;
                        rec[POS + k] += rec[VEL + k] * DT;
                    }
                    for c in 0..np {
                        for k in 0..3 {
                            rec[SLOT + 3 * c + k] = 0.0;
                        }
                    }
                    mol.write_from(p, base, &rec);
                }
                p.compute(work((m1 - m0) * np, 40));
                p.barrier();
            }
        })
        .expect("Water run failed");

    // Gather final positions from the records.
    let got = (0..n).flat_map(|i| (0..3).map(move |k| i * MOL_WORDS + POS + k));
    // Force contributions accumulate under per-owner locks, in an order
    // that differs from the sequential sweep; the floating-point
    // differences compound slightly over the timestep feedback.
    let check = compare_f64(got.map(|j| outcome.read_elem(&mol, j)), &want, 1e-6);
    AppRun::verified(outcome, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_app, App};

    #[test]
    fn pair_force_is_antisymmetric_and_cut() {
        let a = [0.1, 0.1, 0.1];
        let b = [0.2, 0.1, 0.1];
        let fab = pair_force(&a, &b).expect("within cutoff");
        let fba = pair_force(&b, &a).expect("within cutoff");
        for k in 0..3 {
            assert!((fab[k] + fba[k]).abs() < 1e-15);
        }
        let far = [0.9, 0.9, 0.9];
        assert!(pair_force(&a, &far).is_none());
    }

    #[test]
    fn reference_moves_molecules() {
        let params = WaterParams::new(Scale::Tiny);
        let pos0: Vec<f64> = initial_positions(&params).into_iter().flatten().collect();
        let pos1 = reference(&params);
        assert_ne!(pos0, *pos1);
        assert!(pos1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn parallel_matches_reference_all_protocols() {
        for protocol in [
            ProtocolKind::Mw,
            ProtocolKind::Sw,
            ProtocolKind::Wfs,
            ProtocolKind::WfsWg,
        ] {
            let run = run_app(App::Water, protocol, 4, Scale::Tiny);
            assert!(run.ok, "{protocol}: {}", run.detail);
        }
    }

    #[test]
    fn water_has_modest_false_sharing() {
        // Boundary pages between molecule bands are falsely shared; the
        // bulk of pages has a single writer.
        let run = run_app(App::Water, ProtocolKind::Mw, 4, Scale::Small);
        let prof = &run.outcome.report.profile;
        assert!(prof.ww_false_shared_pages > 0);
        assert!(
            prof.pct_ww_false_shared < 50.0,
            "got {}%",
            prof.pct_ww_false_shared
        );
    }
}
