//! TSP — branch-and-bound travelling salesman (§5, §6.4).
//!
//! A shared work queue of partial tours and a shared best-tour bound,
//! both lock-protected (TSP is the one lock-only application in the
//! suite). Processors pop partial tours, expand them breadth-first until
//! a split depth, then solve the subtree locally, updating the global
//! bound. Updates to the queue and bound modify a couple of words — the
//! paper's *small* write granularity, with little write-write false
//! sharing (the queue pages are lock-ordered).

use std::sync::Arc;

use adsm_core::{Dsm, ProtocolKind, SharedVec};

use crate::support::{unit_f64, work, Oracle};
use crate::{AppRun, RunOptions, Scale};

/// TSP input parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TspParams {
    /// Number of cities.
    pub ncities: usize,
    /// Depth up to which partial tours go through the shared queue.
    pub split_depth: usize,
    /// Instance seed.
    pub seed: u64,
    /// Modelled compute per expanded node, in nanoseconds.
    pub ns_per_node: u64,
}

impl TspParams {
    /// Parameters for a scale preset.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => TspParams {
                ncities: 9,
                split_depth: 3,
                seed: 0x75_90,
                ns_per_node: 900,
            },
            Scale::Small => TspParams {
                ncities: 11,
                split_depth: 3,
                seed: 0x75_90,
                ns_per_node: 150_000,
            },
            // Paper: 19 cities. Verification uses Held-Karp, whose
            // memory grows as n * 2^n, so the paper preset uses 13
            // cities (same queue/bound sharing pattern).
            Scale::Paper => TspParams {
                ncities: 13,
                split_depth: 3,
                seed: 0x75_90,
                ns_per_node: 150_000,
            },
            // Deeper split: more shared-queue items so 64+ workers all
            // find work.
            Scale::Large => TspParams {
                ncities: 11,
                split_depth: 4,
                seed: 0x75_90,
                ns_per_node: 900,
            },
        }
    }
}

/// Deterministic instance: cities on the unit square, scaled integer
/// Euclidean distances.
pub fn distance_matrix(params: &TspParams) -> Vec<u64> {
    let n = params.ncities;
    let xs: Vec<f64> = (0..n)
        .map(|i| unit_f64(params.seed ^ (i as u64 * 2 + 1)))
        .collect();
    let ys: Vec<f64> = (0..n)
        .map(|i| unit_f64(params.seed ^ (i as u64 * 2 + 2)))
        .collect();
    let mut d = vec![0u64; n * n];
    for i in 0..n {
        for j in 0..n {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            d[i * n + j] = ((dx * dx + dy * dy).sqrt() * 10_000.0) as u64;
        }
    }
    d
}

/// Sequential reference: the instance's optimal tour length by
/// Held-Karp, computed once per input.
pub fn reference(params: &TspParams) -> Arc<u64> {
    static ORACLE: Oracle<TspParams, u64> = Oracle::new();
    ORACLE.get(params, |p| held_karp(&distance_matrix(p), p.ncities))
}

/// Held-Karp exact solution.
pub fn held_karp(dist: &[u64], n: usize) -> u64 {
    let full = 1usize << n;
    const INF: u64 = u64::MAX / 4;
    // dp[mask][last] = min cost to start at 0, visit mask, end at last.
    let mut dp = vec![INF; full * n];
    dp[n] = 0;
    for mask in 1..full {
        if mask & 1 == 0 {
            continue;
        }
        for last in 0..n {
            if mask & (1 << last) == 0 {
                continue;
            }
            let cur = dp[mask * n + last];
            if cur >= INF {
                continue;
            }
            for next in 0..n {
                if mask & (1 << next) != 0 {
                    continue;
                }
                let nm = mask | (1 << next);
                let cand = cur + dist[last * n + next];
                if cand < dp[nm * n + next] {
                    dp[nm * n + next] = cand;
                }
            }
        }
    }
    (0..n)
        .map(|last| dp[(full - 1) * n + last].saturating_add(dist[last * n]))
        .min()
        .expect("at least one tour")
}

/// A partial tour record in the shared queue: [depth, length, mask,
/// path...] packed into u64 words.
const REC_WORDS: usize = 24;
const QUEUE_CAP: usize = 4096;

const LOCK_QUEUE: u64 = 0;
const LOCK_BEST: u64 = 1;

/// The instance as the search reads it, built once per run: the distance
/// matrix and, for every city, the other cities nearest first.
struct Cities {
    n: usize,
    dist: Vec<u64>,
    /// Row `c`, `n - 1` entries long: every city but `c`, ordered by
    /// (distance from `c`, index).
    near: Vec<u8>,
}

impl Cities {
    fn new(params: &TspParams) -> Self {
        let n = params.ncities;
        let dist = distance_matrix(params);
        let mut near = Vec::with_capacity(n * (n - 1));
        for c in 0..n {
            let row = near.len();
            near.extend((0..n as u8).filter(|&d| d as usize != c));
            near[row..].sort_unstable_by_key(|&d| (dist[c * n + d as usize], d));
        }
        Cities { n, dist, near }
    }
}

/// Cheap admissible lower bound: current length + the minimum outgoing
/// edge of every unvisited city (and of the last city), where an edge
/// may lead to an unvisited city or back to city 0. That edge is the
/// first qualifying entry of the city's nearest-first row, so the bound
/// costs a few probes per city instead of a scan of the matrix.
fn lower_bound(cities: &Cities, mask: u64, last: usize, len: u64) -> u64 {
    let n = cities.n;
    let to = !mask | 1;
    let mut from = (!mask & ((1 << n) - 1)) | (1 << last);
    let mut bound = len;
    while from != 0 {
        let c = from.trailing_zeros() as usize;
        from &= from - 1;
        let row = &cities.near[c * (n - 1)..(c + 1) * (n - 1)];
        if let Some(&d) = row.iter().find(|&&d| to & (1 << d) != 0) {
            bound += cities.dist[c * n + d as usize];
        }
    }
    bound
}

/// Sequential depth-first solver used for subtrees below the split
/// depth; counts the nodes it expands into `nodes`.
fn solve_local(cities: &Cities, mask: u64, last: usize, len: u64, best: &mut u64, nodes: &mut u64) {
    let n = cities.n;
    *nodes += 1;
    if mask == (1 << n) - 1 {
        let tour = len + cities.dist[last * n];
        if tour < *best {
            *best = tour;
        }
        return;
    }
    if lower_bound(cities, mask, last, len) >= *best {
        return;
    }
    for next in 1..n {
        if mask & (1 << next) != 0 {
            continue;
        }
        let nlen = len + cities.dist[last * n + next];
        solve_local(cities, mask | (1 << next), next, nlen, best, nodes);
    }
}

/// Runs TSP under `protocol` and `opts` and verifies the optimum
/// against Held-Karp.
pub fn run(protocol: ProtocolKind, nprocs: usize, params: TspParams, opts: &RunOptions) -> AppRun {
    let n = params.ncities;
    let cities = Cities::new(&params);
    let optimum = *reference(&params);

    let mut dsm = Dsm::builder(protocol)
        .nprocs(nprocs)
        .options(opts.clone())
        .build();
    // Queue: [0] = top, [1] = outstanding work items; records follow.
    let queue: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(2 + QUEUE_CAP * REC_WORDS);
    let best: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(1);

    let outcome = dsm
        .run(move |p| {
            let cities = &cities;
            if p.index() == 0 {
                best.set(p, 0, u64::MAX / 4);
                // Seed: the root tour at city 0.
                let rec_base = 2;
                queue.set(p, rec_base, 1); // depth
                queue.set(p, rec_base + 1, 0); // length
                queue.set(p, rec_base + 2, 1); // mask (city 0 visited)
                queue.set(p, rec_base + 3, 0); // path word: city 0
                queue.set(p, 0, 1); // top
                queue.set(p, 1, 1); // outstanding
            }
            p.barrier();

            let mut spins = 0u64;
            loop {
                // Pop one work item inside the queue's critical section;
                // `Err(done)` reports an empty queue.
                let popped = p.critical(LOCK_QUEUE, |p| {
                    let top = queue.get(p, 0);
                    let outstanding = queue.get(p, 1);
                    if top == 0 {
                        return Err(outstanding == 0);
                    }
                    let rec = 2 + ((top - 1) as usize) * REC_WORDS;
                    let depth = queue.get(p, rec) as usize;
                    let len = queue.get(p, rec + 1);
                    let mask = queue.get(p, rec + 2);
                    let mut path = Vec::with_capacity(n);
                    for d in 0..depth {
                        path.push(queue.get(p, rec + 3 + d) as u8);
                    }
                    queue.set(p, 0, top - 1);
                    Ok((depth, len, mask, path))
                });
                let (depth, len, mask, path) = match popped {
                    Err(true) => break, // global termination
                    Err(false) => {
                        spins += 1;
                        assert!(spins < 1_000_000, "TSP termination failure");
                        p.compute(work(200, params.ns_per_node));
                        continue;
                    }
                    Ok(item) => item,
                };

                let last = *path.last().expect("nonempty path") as usize;
                let cur_best = p.critical(LOCK_BEST, |p| best.get(p, 0));

                let mut pushed = 0u64;
                let mut local_best = cur_best;
                let mut nodes = 0u64;
                if lower_bound(cities, mask, last, len) < cur_best {
                    if depth < params.split_depth && depth < n {
                        // Expand children back into the shared queue.
                        for next in 1..n {
                            if mask & (1 << next) != 0 {
                                continue;
                            }
                            let nlen = len + cities.dist[last * n + next];
                            if lower_bound(cities, mask | (1 << next), next, nlen) >= cur_best {
                                continue;
                            }
                            p.critical(LOCK_QUEUE, |p| {
                                let t = queue.get(p, 0);
                                assert!((t as usize) < QUEUE_CAP, "TSP queue overflow");
                                let nrec = 2 + (t as usize) * REC_WORDS;
                                queue.set(p, nrec, (depth + 1) as u64);
                                queue.set(p, nrec + 1, nlen);
                                queue.set(p, nrec + 2, mask | (1 << next));
                                for (d, c) in path.iter().enumerate() {
                                    queue.set(p, nrec + 3 + d, *c as u64);
                                }
                                queue.set(p, nrec + 3 + depth, next as u64);
                                queue.set(p, 0, t + 1);
                                queue.update(p, 1, |o| o + 1);
                            });
                            pushed += 1;
                        }
                        nodes += 1;
                    } else {
                        // Solve the subtree locally.
                        solve_local(cities, mask, last, len, &mut local_best, &mut nodes);
                    }
                }
                p.compute(work(nodes as usize, params.ns_per_node));

                if local_best < cur_best {
                    p.critical(LOCK_BEST, |p| {
                        let b = best.get(p, 0);
                        if local_best < b {
                            best.set(p, 0, local_best);
                        }
                    });
                }

                // Account for the completed item (children were already
                // counted when pushed).
                let _ = pushed;
                p.critical(LOCK_QUEUE, |p| queue.update(p, 1, |o| o - 1));
            }
        })
        .expect("TSP run failed");

    let got = outcome.read_elem(&best, 0);
    let check = if got == optimum {
        Ok(())
    } else {
        Err(format!("best tour {got}, optimum {optimum}"))
    };
    AppRun::verified(outcome, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_app, App};

    #[test]
    fn held_karp_solves_a_triangle() {
        // 3 cities: the only tour length is d01+d12+d20.
        let params = TspParams {
            ncities: 3,
            split_depth: 1,
            seed: 7,
            ns_per_node: 10,
        };
        let d = distance_matrix(&params);
        let hk = held_karp(&d, 3);
        assert_eq!(hk, d[1] + d[3 + 2] + d[3 * 2]);
    }

    /// The bound as a scan of the whole distance matrix: the minimum the
    /// nearest-first rows must find.
    fn lower_bound_scan(dist: &[u64], n: usize, mask: u64, last: usize, len: u64) -> u64 {
        let mut bound = len;
        for c in 0..n {
            if c != last && mask & (1 << c) != 0 {
                continue;
            }
            let mut best = u64::MAX;
            for d in 0..n {
                if d != c && (mask & (1 << d) == 0 || d == 0) {
                    best = best.min(dist[c * n + d]);
                }
            }
            if best != u64::MAX {
                bound += best;
            }
        }
        bound
    }

    #[test]
    fn lower_bound_is_admissible() {
        let params = TspParams::new(Scale::Tiny);
        let cities = Cities::new(&params);
        let opt = held_karp(&cities.dist, params.ncities);
        // Bound at the root must not exceed the optimum.
        assert!(lower_bound(&cities, 1, 0, 0) <= opt);
    }

    #[test]
    fn nearest_first_bound_equals_the_scan() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper, Scale::Large] {
            let params = TspParams::new(scale);
            let cities = Cities::new(&params);
            let n = params.ncities;
            // Every mask that contains city 0, and every `last` in it.
            for mask in (1..1u64 << n).step_by(2) {
                for last in (0..n).filter(|&c| mask & (1 << c) != 0) {
                    assert_eq!(
                        lower_bound(&cities, mask, last, 0),
                        lower_bound_scan(&cities.dist, n, mask, last, 0),
                        "{scale:?}: mask {mask:#b}, last {last}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_finds_the_optimum_under_all_protocols() {
        for protocol in [
            ProtocolKind::Mw,
            ProtocolKind::Sw,
            ProtocolKind::Wfs,
            ProtocolKind::WfsWg,
        ] {
            let run = run_app(App::Tsp, protocol, 4, Scale::Tiny);
            assert!(run.ok, "{protocol}: {}", run.detail);
        }
    }

    #[test]
    fn single_proc_run_matches_optimum() {
        let run = run_app(App::Tsp, ProtocolKind::Mw, 1, Scale::Tiny);
        assert!(run.ok, "{}", run.detail);
    }
}
