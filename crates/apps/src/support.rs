//! Shared helpers for the application suite.

use std::sync::{Arc, Mutex, PoisonError};

use adsm_core::SimTime;

/// An application's sequential references, memoised per input: runs
/// sweep protocols, seeds and scenarios over a handful of inputs, and
/// the reference depends on the input alone. Four slots (one per
/// [`crate::Scale`] preset), most recently used first; `compute` runs
/// under the lock, so racing callers of a cold input compute it once.
/// Fetch before building the cluster: a long-lived block allocated
/// after it pins the heap top (DESIGN.md, "Verification oracles").
pub(crate) struct Oracle<P, T>(Mutex<Vec<(P, Arc<T>)>>);

impl<P: Copy + PartialEq, T> Oracle<P, T> {
    const SLOTS: usize = 4;

    pub(crate) const fn new() -> Self {
        Oracle(Mutex::new(Vec::new()))
    }

    /// The reference for `params`, from its slot or from `compute`.
    pub(crate) fn get(&self, params: &P, compute: impl FnOnce(&P) -> T) -> Arc<T> {
        // A `compute` that panicked left the slots as they were.
        let mut slots = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match slots.iter().position(|(p, _)| p == params) {
            Some(hit) => slots[..=hit].rotate_right(1),
            None => {
                let fresh = Arc::new(compute(params));
                slots.truncate(Self::SLOTS - 1);
                slots.insert(0, (*params, fresh));
            }
        }
        Arc::clone(&slots[0].1)
    }
}

/// Splits `n` items into `nprocs` contiguous chunks; returns the
/// `[start, end)` range of chunk `k` (remainders spread over the first
/// chunks, as the paper's banded codes do).
pub(crate) fn band(n: usize, nprocs: usize, k: usize) -> (usize, usize) {
    let base = n / nprocs;
    let rem = n % nprocs;
    let start = k * base + k.min(rem);
    let len = base + usize::from(k < rem);
    (start, start + len)
}

/// Deterministic 64-bit mixer (splitmix64) for seeded, allocation-free
/// pseudo-random streams inside application bodies.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from a mixed seed.
pub(crate) fn unit_f64(seed: u64) -> f64 {
    (mix64(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-element compute-time charge helper: `count` operations of
/// `ns_per_op` nanoseconds each.
pub(crate) fn work(count: usize, ns_per_op: u64) -> SimTime {
    SimTime::from_ns(count as u64 * ns_per_op)
}

/// Walks `got` against `want` in step: the first element `differs`
/// reports on, or a difference in length, is the error. `got` is
/// consumed as it is compared, so a result read in place
/// ([`RunOutcome::elems`](adsm_core::RunOutcome::elems)) is never
/// copied.
fn compare<T: Copy>(
    got: impl IntoIterator<Item = T>,
    want: &[T],
    differs: impl Fn(usize, T, T) -> Option<String>,
) -> Result<(), String> {
    let mut got = got.into_iter();
    for (i, &w) in want.iter().enumerate() {
        let g = got
            .next()
            .ok_or_else(|| format!("length mismatch: {i} vs {}", want.len()))?;
        if let Some(why) = differs(i, g, w) {
            return Err(why);
        }
    }
    match got.count() {
        0 => Ok(()),
        extra => Err(format!(
            "length mismatch: {} vs {}",
            want.len() + extra,
            want.len()
        )),
    }
}

/// Relative comparison against an f64 reference; returns the first
/// mismatch.
pub(crate) fn compare_f64(
    got: impl IntoIterator<Item = f64>,
    want: &[f64],
    tol: f64,
) -> Result<(), String> {
    compare(got, want, |i, g, w| {
        let scale = w.abs().max(g.abs()).max(1.0);
        ((g - w).abs() > tol * scale).then(|| format!("element {i}: got {g}, want {w} (tol {tol})"))
    })
}

/// Exact comparison against an integer reference.
pub(crate) fn compare_u64(got: impl IntoIterator<Item = u64>, want: &[u64]) -> Result<(), String> {
    compare(got, want, |i, g, w| {
        (g != w).then(|| format!("element {i}: got {g}, want {w}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_covers_everything_without_overlap() {
        for n in [0usize, 1, 7, 64, 100] {
            for nprocs in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_end = 0;
                for k in 0..nprocs {
                    let (s, e) = band(n, nprocs, k);
                    assert_eq!(s, prev_end, "n={n} nprocs={nprocs} k={k}");
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn band_sizes_differ_by_at_most_one() {
        for k in 0..8 {
            let (s, e) = band(100, 8, k);
            assert!(e - s == 12 || e - s == 13);
        }
    }

    #[test]
    fn unit_f64_in_range_and_deterministic() {
        for seed in 0..1000u64 {
            let v = unit_f64(seed);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, unit_f64(seed));
        }
    }

    #[test]
    fn compare_f64_tolerances() {
        assert!(compare_f64([1.0], &[1.0 + 1e-12], 1e-9).is_ok());
        assert!(compare_f64([1.0], &[1.1], 1e-9).is_err());
        assert!(compare_f64([1.0], &[1.0, 2.0], 1e-9).is_err());
        assert!(compare_f64([1.0, 2.0], &[1.0], 1e-9).is_err());
        assert!(compare_u64([3, 4], &[3, 4]).is_ok());
        assert!(compare_u64([3, 5], &[3, 4]).is_err());
    }

    #[test]
    fn work_multiplies() {
        assert_eq!(work(1000, 80), SimTime::from_us(80));
    }
}
