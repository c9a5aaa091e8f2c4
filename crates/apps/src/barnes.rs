//! SPLASH Barnes-Hut — hierarchical O(n log n) n-body simulation (§5,
//! §6.4).
//!
//! The body array is shared; the octree cells are **private** (each
//! processor builds its own tree over all bodies every timestep, as in
//! the version the paper uses). Bodies are assigned to processors in
//! spatial (Morton) order for load balance, so each processor's writes
//! scatter across the body array — both reads and writes are fine
//! grained, and most body pages end up write-write falsely shared (the
//! paper measures 61.9%).
//!
//! Private in the *model*: every processor reads the whole body array
//! through the DSM and is charged for a tree build. On the host, P
//! processors that read bit-identical masses and positions would build
//! P bit-identical trees and Morton orders, so a run computes them once
//! per distinct reading and shares the result (`StepShared`).

use std::sync::{Arc, Mutex, PoisonError};

use adsm_core::{ProtocolKind, SharedVec};

use crate::support::{band, compare_f64, unit_f64, work, Oracle};
use crate::{AppRun, RunOptions, Scale};

/// Doubles per body record: mass, position, velocity, acceleration.
pub const BODY_WORDS: usize = 10;

const MASS: usize = 0;
const POS: usize = 1;
const VEL: usize = 4;
const ACC: usize = 7;

/// Barnes-Hut input parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarnesParams {
    /// Number of bodies.
    pub nbodies: usize,
    /// Timesteps.
    pub steps: usize,
    /// Instance seed.
    pub seed: u64,
    /// Modelled compute per body-cell interaction, in nanoseconds.
    pub ns_per_interaction: u64,
}

impl BarnesParams {
    /// Parameters for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => BarnesParams {
                nbodies: 96,
                steps: 2,
                seed: 0xBA_121,
                ns_per_interaction: 250,
            },
            Scale::Small => BarnesParams {
                nbodies: 512,
                steps: 3,
                seed: 0xBA_121,
                ns_per_interaction: 8_000,
            },
            // Paper: 32K bodies.
            Scale::Paper => BarnesParams {
                nbodies: 2048,
                steps: 4,
                seed: 0xBA_121,
                ns_per_interaction: 8_000,
            },
            // Four bodies per processor at 256-way.
            Scale::Large => BarnesParams {
                nbodies: 1024,
                steps: 2,
                seed: 0xBA_121,
                ns_per_interaction: 250,
            },
        }
    }
}

const THETA: f64 = 0.6;
const DT: f64 = 0.01;
const SOFTENING: f64 = 1e-3;

/// A private octree over the unit cube.
struct Octree {
    /// (center, half-size, total mass, centre of mass, children start or
    /// body id).
    nodes: Vec<Node>,
}

#[derive(Clone, Debug)]
struct Node {
    center: [f64; 3],
    half: f64,
    mass: f64,
    com: [f64; 3],
    /// Leaf: Some(body); internal: children at `kids[k]` (usize::MAX =
    /// absent).
    body: Option<usize>,
    kids: Option<Box<[usize; 8]>>,
}

impl Octree {
    /// Builds the tree over `positions` (masses in `masses`), inserting
    /// bodies in index order — deterministic for every processor.
    fn build(positions: &[[f64; 3]], masses: &[f64]) -> Octree {
        let mut tree = Octree {
            nodes: vec![Node {
                center: [0.5, 0.5, 0.5],
                half: 0.5,
                mass: 0.0,
                com: [0.0; 3],
                body: None,
                kids: None,
            }],
        };
        for i in 0..positions.len() {
            tree.insert(0, i, positions);
        }
        tree.summarize(0, positions, masses);
        tree
    }

    fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
        (usize::from(p[0] >= center[0]))
            | (usize::from(p[1] >= center[1]) << 1)
            | (usize::from(p[2] >= center[2]) << 2)
    }

    fn child_center(center: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
        let q = half / 2.0;
        [
            center[0] + if oct & 1 != 0 { q } else { -q },
            center[1] + if oct & 2 != 0 { q } else { -q },
            center[2] + if oct & 4 != 0 { q } else { -q },
        ]
    }

    fn insert(&mut self, node: usize, body: usize, positions: &[[f64; 3]]) {
        // Descend iteratively to avoid deep recursion.
        let mut cur = node;
        let pending = body;
        loop {
            if self.nodes[cur].kids.is_some() {
                let oct = Self::octant(&self.nodes[cur].center, &positions[pending]);
                let kid = self.ensure_child(cur, oct);
                cur = kid;
                continue;
            }
            match self.nodes[cur].body {
                None => {
                    self.nodes[cur].body = Some(pending);
                    return;
                }
                Some(existing) => {
                    if self.nodes[cur].half < 1e-9 {
                        // Coincident bodies: keep the first, drop into a
                        // pseudo-leaf list by merging masses later.
                        // (Random inputs never hit this.)
                        return;
                    }
                    self.nodes[cur].body = None;
                    self.nodes[cur].kids = Some(Box::new([usize::MAX; 8]));
                    let oct_e = Self::octant(&self.nodes[cur].center, &positions[existing]);
                    let kid_e = self.ensure_child(cur, oct_e);
                    self.nodes[kid_e].body = Some(existing);
                    // Re-loop to place the pending body.
                }
            }
        }
    }

    fn ensure_child(&mut self, node: usize, oct: usize) -> usize {
        let existing = self.nodes[node].kids.as_ref().expect("internal")[oct];
        if existing != usize::MAX {
            return existing;
        }
        let center = Self::child_center(&self.nodes[node].center, self.nodes[node].half, oct);
        let half = self.nodes[node].half / 2.0;
        let id = self.nodes.len();
        self.nodes.push(Node {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            body: None,
            kids: None,
        });
        self.nodes[node].kids.as_mut().expect("internal")[oct] = id;
        id
    }

    /// Computes mass and centre of mass bottom-up.
    fn summarize(
        &mut self,
        node: usize,
        positions: &[[f64; 3]],
        masses: &[f64],
    ) -> (f64, [f64; 3]) {
        if let Some(b) = self.nodes[node].body {
            let m = masses[b];
            self.nodes[node].mass = m;
            self.nodes[node].com = positions[b];
            return (m, positions[b]);
        }
        let kids = match &self.nodes[node].kids {
            Some(k) => **k,
            None => {
                return (0.0, self.nodes[node].center);
            }
        };
        let mut m = 0.0;
        let mut com = [0.0f64; 3];
        for kid in kids.into_iter().filter(|&k| k != usize::MAX) {
            let (km, kcom) = self.summarize(kid, positions, masses);
            m += km;
            for x in 0..3 {
                com[x] += km * kcom[x];
            }
        }
        if m > 0.0 {
            for x in com.iter_mut() {
                *x /= m;
            }
        }
        self.nodes[node].mass = m;
        self.nodes[node].com = com;
        (m, com)
    }

    /// Barnes-Hut force on `body`; returns (acc, interactions). `stack`
    /// is the traversal's scratch, the caller's so that one allocation
    /// serves every body of a phase; its contents on entry are ignored.
    fn accel(
        &self,
        body: usize,
        positions: &[[f64; 3]],
        stack: &mut Vec<usize>,
    ) -> ([f64; 3], usize) {
        let mut acc = [0.0f64; 3];
        let mut count = 0usize;
        stack.clear();
        stack.push(0);
        let bp = positions[body];
        while let Some(node) = stack.pop() {
            let nd = &self.nodes[node];
            if nd.mass == 0.0 {
                continue;
            }
            if nd.body == Some(body) {
                continue;
            }
            let d = [nd.com[0] - bp[0], nd.com[1] - bp[1], nd.com[2] - bp[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFTENING;
            let r = r2.sqrt();
            let leaf = nd.body.is_some();
            if leaf || (2.0 * nd.half / r) < THETA {
                let f = nd.mass / (r2 * r);
                for x in 0..3 {
                    acc[x] += f * d[x];
                }
                count += 1;
            } else if let Some(kids) = &nd.kids {
                for kid in kids.iter().copied().filter(|&k| k != usize::MAX) {
                    stack.push(kid);
                }
            }
        }
        (acc, count)
    }
}

/// Morton (z-order) key of a position, 10 bits per axis.
fn morton(p: &[f64; 3]) -> u64 {
    fn spread(x: u64) -> u64 {
        let mut x = x & 0x3FF;
        x = (x | (x << 16)) & 0x30000FF;
        x = (x | (x << 8)) & 0x300F00F;
        x = (x | (x << 4)) & 0x30C30C3;
        x = (x | (x << 2)) & 0x9249249;
        x
    }
    let q = |v: f64| ((v.clamp(0.0, 1.0) * 1023.0) as u64).min(1023);
    spread(q(p[0])) | (spread(q(p[1])) << 1) | (spread(q(p[2])) << 2)
}

/// Body indices in `(morton, index)` order. Processor `k` owns the
/// `band(n, nprocs, k)` slice of it: a contiguous chunk of the
/// space-filling curve (the SPLASH costzone flavour of partitioning).
fn morton_order(positions: &[[f64; 3]]) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = positions
        .iter()
        .enumerate()
        .map(|(i, p)| (morton(p), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Everything a timestep derives from the body array — from its mass
/// and position words, the only ones the derivation reads — the same
/// on every processor that read the same masses and positions.
struct StepShared {
    masses: Vec<f64>,
    positions: Vec<[f64; 3]>,
    tree: Octree,
    order: Vec<usize>,
}

impl StepShared {
    fn derive(snapshot: &[f64]) -> StepShared {
        let bodies = snapshot.chunks_exact(BODY_WORDS);
        let masses: Vec<f64> = bodies.clone().map(|b| b[MASS]).collect();
        let positions: Vec<[f64; 3]> = bodies.map(|b| [b[POS], b[POS + 1], b[POS + 2]]).collect();
        let tree = Octree::build(&positions, &masses);
        let order = morton_order(&positions);
        StepShared {
            masses,
            positions,
            tree,
            order,
        }
    }

    /// Would [`StepShared::derive`] read from `snapshot` exactly the bits
    /// it read for `self`? Bit patterns, not values: `0.0` is not `-0.0`.
    /// Velocity and acceleration words are not compared — the tree and
    /// the order do not depend on them, and they are where a neighbour's
    /// force-phase writes show up early under SW and SC.
    fn derived_from(&self, snapshot: &[f64]) -> bool {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        snapshot.len() == self.masses.len() * BODY_WORDS
            && snapshot
                .chunks_exact(BODY_WORDS)
                .zip(self.masses.iter().zip(&self.positions))
                .all(|(b, (&m, pos))| same(b[MASS], m) && (0..3).all(|k| same(b[POS + k], pos[k])))
    }
}

/// The latest [`StepShared`] of one run. One slot is enough: two
/// barriers separate a timestep's tree phase from the next one's, so
/// no processor can ask for step `t + 1` while another still asks for
/// step `t`.
type StepSlot = Mutex<Option<Arc<StepShared>>>;

/// The derived state of `snapshot` — the body array the calling
/// processor has just read through the DSM: the slot's, iff that was
/// derived from bit-for-bit the same masses and positions, else derived
/// here and put in the slot. A processor that was served a stale
/// position therefore shares nothing and goes on to fail verification
/// as it would have alone.
///
/// Derivation runs under the host lock, so racing processors compute a
/// snapshot once. The lock must never be held across a DSM operation:
/// a turn point under it would park the simulator's one carrier thread
/// on a lock that only another coroutine of that thread can release.
/// Taking no `Proc` makes that unrepresentable here.
fn step_shared(slot: &StepSlot, snapshot: &[f64]) -> Arc<StepShared> {
    // A `derive` that panicked left the slot as it was.
    let mut held = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(s) = held.as_ref().filter(|s| s.derived_from(snapshot)) {
        return Arc::clone(s);
    }
    let fresh = Arc::new(StepShared::derive(snapshot));
    *held = Some(Arc::clone(&fresh));
    fresh
}

fn initial_state(params: &BarnesParams) -> (Vec<f64>, Vec<[f64; 3]>) {
    let n = params.nbodies;
    let masses: Vec<f64> = (0..n)
        .map(|i| 0.5 + unit_f64(params.seed ^ (i as u64 * 7 + 5)))
        .collect();
    let positions: Vec<[f64; 3]> = (0..n)
        .map(|i| {
            [
                unit_f64(params.seed ^ (i as u64 * 7 + 1)),
                unit_f64(params.seed ^ (i as u64 * 7 + 2)),
                unit_f64(params.seed ^ (i as u64 * 7 + 3)),
            ]
        })
        .collect();
    (masses, positions)
}

/// Sequential reference: flattened final positions, computed once per
/// input.
pub fn reference(params: &BarnesParams) -> Arc<Vec<f64>> {
    static ORACLE: Oracle<BarnesParams, Vec<f64>> = Oracle::new();
    ORACLE.get(params, sequential)
}

fn sequential(params: &BarnesParams) -> Vec<f64> {
    let n = params.nbodies;
    let (masses, mut pos) = initial_state(params);
    let mut vel = vec![[0.0f64; 3]; n];
    let mut stack = Vec::new();
    for _ in 0..params.steps {
        let tree = Octree::build(&pos, &masses);
        let acc: Vec<[f64; 3]> = (0..n).map(|i| tree.accel(i, &pos, &mut stack).0).collect();
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] += acc[i][k] * DT;
                pos[i][k] += vel[i][k] * DT;
            }
        }
    }
    pos.into_iter().flatten().collect()
}

/// Runs Barnes-Hut under `protocol` and verifies final positions.
pub fn run(protocol: ProtocolKind, nprocs: usize, scale: Scale) -> AppRun {
    run_tuned(protocol, nprocs, scale, &RunOptions::default())
}

/// As [`run`], honouring [`RunOptions`] protocol extensions.
pub fn run_tuned(protocol: ProtocolKind, nprocs: usize, scale: Scale, opts: &RunOptions) -> AppRun {
    let params = BarnesParams::new(scale);
    let n = params.nbodies;
    let want = reference(&params);
    let mut dsm = opts.builder(protocol, nprocs).build();
    let bodies: SharedVec<f64> = dsm.alloc_page_aligned::<f64>(n * BODY_WORDS);
    let slot = StepSlot::default();

    let outcome = dsm
        .run(move |p| {
            let np = p.nprocs();
            if p.index() == 0 {
                let (masses, pos) = initial_state(&params);
                for i in 0..n {
                    let mut rec = [0.0f64; BODY_WORDS];
                    rec[MASS] = masses[i];
                    rec[POS..POS + 3].copy_from_slice(&pos[i]);
                    bodies.write_from(p, i * BODY_WORDS, &rec);
                }
            }
            p.barrier();

            for _ in 0..params.steps {
                // Everyone reads the whole body array and is charged
                // for building a private tree over it (cells are
                // private, per the paper); the host builds one tree per
                // distinct set of masses and positions.
                let all = bodies.read_range(p, 0, n * BODY_WORDS);
                let shared = step_shared(&slot, &all);
                p.compute(work(n, 2_000)); // tree build cost

                // Force phase: compute and store accelerations for the
                // bodies assigned to us (Morton chunks: writes scatter
                // across the array pages). Positions are only *read*
                // this phase; they move in the separate update phase, as
                // in SPLASH.
                let (s, e) = band(n, np, p.index());
                let mine = &shared.order[s..e];
                let mut interactions = 0usize;
                let mut stack = Vec::new();
                for &i in mine {
                    let (acc, cnt) = shared.tree.accel(i, &shared.positions, &mut stack);
                    interactions += cnt;
                    bodies.write_from(p, i * BODY_WORDS + ACC, &acc);
                }
                p.compute(work(interactions, params.ns_per_interaction));
                p.barrier();

                // Update phase: integrate our bodies. One span view per
                // record — nine doubles decoded into a stack buffer, no
                // per-body vector.
                for &i in mine {
                    let b = i * BODY_WORDS;
                    let mut rec = [0.0f64; 9];
                    bodies.view(p, b + POS..b + ACC + 3).copy_to_slice(&mut rec);
                    let mut pos = [rec[0], rec[1], rec[2]];
                    let mut vel = [rec[3], rec[4], rec[5]];
                    let acc = [rec[6], rec[7], rec[8]];
                    for k in 0..3 {
                        vel[k] += acc[k] * DT;
                        pos[k] += vel[k] * DT;
                    }
                    bodies.write_from(p, b + POS, &pos);
                    bodies.write_from(p, b + VEL, &vel);
                }
                p.compute(work(mine.len(), 150));
                p.barrier();
            }
        })
        .expect("Barnes run failed");

    let all = outcome.read_vec(&bodies);
    let got: Vec<f64> = (0..n)
        .flat_map(|i| {
            let b = i * BODY_WORDS + POS;
            all[b..b + 3].to_vec()
        })
        .collect();
    AppRun::verified(outcome, compare_f64(&got, &want, 1e-12))
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use adsm_core::ExecBackend;

    use super::*;

    /// The body array as processor 0 writes it before the first step.
    fn initial_snapshot(params: &BarnesParams) -> Vec<f64> {
        let (masses, pos) = initial_state(params);
        let mut all = vec![0.0f64; params.nbodies * BODY_WORDS];
        for (i, rec) in all.chunks_exact_mut(BODY_WORDS).enumerate() {
            rec[MASS] = masses[i];
            rec[POS..POS + 3].copy_from_slice(&pos[i]);
        }
        all
    }

    #[test]
    fn tree_mass_is_conserved() {
        let params = BarnesParams::new(Scale::Tiny);
        let (masses, pos) = initial_state(&params);
        let tree = Octree::build(&pos, &masses);
        let total: f64 = masses.iter().sum();
        assert!((tree.nodes[0].mass - total).abs() < 1e-9);
    }

    #[test]
    fn two_body_accel_points_at_the_other_body() {
        let masses = vec![1.0, 1.0];
        let pos = vec![[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]];
        let tree = Octree::build(&pos, &masses);
        // The stack's contents on entry do not matter.
        let mut stack = vec![7, 7, 7];
        let (a0, _) = tree.accel(0, &pos, &mut stack);
        assert!(a0[0] > 0.0, "attraction along +x");
        assert!(a0[1].abs() < 1e-12 && a0[2].abs() < 1e-12);
        assert_eq!(tree.accel(0, &pos, &mut stack).0, a0);
    }

    /// The order every processor used to derive for itself: `0..n`
    /// stably sorted by `(morton, i)`.
    fn retired_order(positions: &[[f64; 3]]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..positions.len()).collect();
        order.sort_by_cached_key(|&i| (morton(&positions[i]), i));
        order
    }

    #[test]
    fn order_is_the_per_processor_sort_and_bands_partition_it() {
        let mut inputs: Vec<Vec<[f64; 3]>> = [Scale::Tiny, Scale::Small, Scale::Large]
            .into_iter()
            .map(|scale| initial_state(&BarnesParams::new(scale)).1)
            .collect();
        // 64 bodies on four lattice points: 16-way Morton-key collisions,
        // which only the index breaks.
        let collided: Vec<[f64; 3]> = (0..64)
            .map(|i| {
                [
                    0.25 + 0.5 * (i % 2) as f64,
                    0.25 + 0.5 * (i / 2 % 2) as f64,
                    0.5,
                ]
            })
            .collect();
        let keys: std::collections::BTreeSet<u64> = collided.iter().map(morton).collect();
        assert_eq!(keys.len(), 4);
        inputs.push(collided);
        for positions in &inputs {
            let n = positions.len();
            let order = morton_order(positions);
            assert_eq!(order, retired_order(positions), "n={n}");
            for np in [3, 8, 64] {
                let mut seen = vec![false; n];
                for k in 0..np {
                    let (s, e) = band(n, np, k);
                    for &i in &order[s..e] {
                        assert!(!seen[i], "body {i} assigned twice (n={n}, np={np})");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "n={n}, np={np}");
            }
        }
    }

    #[test]
    fn a_snapshot_differing_in_one_bit_is_derived_afresh() {
        let params = BarnesParams::new(Scale::Tiny);
        let first = initial_snapshot(&params);
        let slot = StepSlot::default();
        let a = step_shared(&slot, &first);
        assert!(Arc::ptr_eq(&a, &step_shared(&slot, &first)));

        // Body 5's x moves by one unit in the last place.
        let x5 = 5 * BODY_WORDS + POS;
        let mut nudged = first.clone();
        nudged[x5] = f64::from_bits(first[x5].to_bits() ^ 1);
        assert!((nudged[x5] - first[x5]).abs() < 1e-15);
        let b = step_shared(&slot, &nudged);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.positions[5][0].to_bits(), nudged[x5].to_bits());
        assert_eq!(a.positions[5][0].to_bits(), first[x5].to_bits());
        // The slot holds the newer one: the older is a miss again.
        assert!(Arc::ptr_eq(&b, &step_shared(&slot, &nudged)));
        assert!(!Arc::ptr_eq(&a, &step_shared(&slot, &first)));

        // A mass word too.
        let mut heavier = first.clone();
        heavier[7 * BODY_WORDS + MASS] = f64::from_bits(first[7 * BODY_WORDS + MASS].to_bits() ^ 1);
        let c = step_shared(&slot, &heavier);
        assert_eq!(
            c.masses[7].to_bits(),
            heavier[7 * BODY_WORDS + MASS].to_bits()
        );

        // Equal as values, different as bits: a coordinate of 0.0
        // against one of -0.0.
        let mut plus = first.clone();
        plus[x5] = 0.0;
        let mut minus = plus.clone();
        minus[x5] = -0.0;
        assert_eq!(plus, minus);
        let d = step_shared(&slot, &plus);
        let e = step_shared(&slot, &minus);
        assert!(!Arc::ptr_eq(&d, &e));
        assert!(d.positions[5][0].is_sign_positive() && e.positions[5][0].is_sign_negative());
    }

    /// Under SW and SC a reader can see a faster neighbour's force-phase
    /// writes already; the tree does not depend on them.
    #[test]
    fn velocity_and_acceleration_words_do_not_enter_the_key() {
        let first = initial_snapshot(&BarnesParams::new(Scale::Tiny));
        let slot = StepSlot::default();
        let a = step_shared(&slot, &first);
        let mut ahead = first.clone();
        for rec in ahead.chunks_exact_mut(BODY_WORDS).step_by(3) {
            rec[VEL..ACC + 3].fill(0.125);
        }
        assert!(Arc::ptr_eq(&a, &step_shared(&slot, &ahead)));
        // A shorter array is another input, whatever its prefix.
        let fewer = &first[..first.len() - BODY_WORDS];
        assert_eq!(
            step_shared(&slot, fewer).positions.len(),
            a.positions.len() - 1
        );
    }

    #[test]
    fn eight_threads_racing_on_a_cold_snapshot_derive_it_once() {
        let snapshot = initial_snapshot(&BarnesParams::new(Scale::Small));
        let slot = StepSlot::default();
        let start = Barrier::new(8);
        let got: Vec<Arc<StepShared>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        step_shared(&slot, &snapshot)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        // One `Octree::build`: everyone holds the same allocation.
        assert!(got.iter().all(|g| Arc::ptr_eq(g, &got[0])));
        assert_eq!(got[0].order, retired_order(&got[0].positions));
    }

    /// Every protocol at 4 processors, and `scale64_sim`'s pair at 64,
    /// where a `Tiny` band is one or two bodies and — on threads — 64
    /// workers meet at the host lock every step.
    #[test]
    fn parallel_matches_reference_on_both_backends() {
        use ProtocolKind::{Hlrc, Mw, Sc, Sw, Wfs, WfsWg};
        for backend in [ExecBackend::Sim, ExecBackend::Threads] {
            let opts = RunOptions {
                backend,
                ..RunOptions::default()
            };
            for (np, protocols) in [
                (4, &[Mw, Sw, Wfs, WfsWg, Sc, Hlrc][..]),
                (64, &[Mw, WfsWg][..]),
            ] {
                for &protocol in protocols {
                    let run = run_tuned(protocol, np, Scale::Tiny, &opts);
                    assert!(run.ok, "{protocol} x{np} on {backend:?}: {}", run.detail);
                }
            }
        }
    }

    #[test]
    fn barnes_is_heavily_falsely_shared() {
        let run = run(ProtocolKind::Mw, 4, Scale::Small);
        let prof = &run.outcome.report.profile;
        assert!(
            prof.pct_ww_false_shared > 40.0,
            "scattered Morton-order writes must falsely share most pages, got {}%",
            prof.pct_ww_false_shared
        );
    }
}
