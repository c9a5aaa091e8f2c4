//! Order statistics, the `_hi` percentile rule, geometric means and
//! the digest the exact metrics are compared by.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) does, so a spread
/// printed here is the spread the acceptance check recomputes. With
/// fewer than two samples both quartiles are the sample itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis; like Python, the
        // neighbours are clamped to the data but the weight is not, so
        // very small samples extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the acceptance check bounds.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The percentiles a `_hi` figure may use, lowest first, each with the
/// `k` of "one sample in `k` lies beyond it".
const HI_LADDER: [(f64, u64); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The `_hi` rule: the highest percentile of the ladder that still has
/// at least ten samples beyond it (`n / k ≥ 10`). With fewer than
/// twenty samples none qualifies; the maximum (percentile 100) is
/// reported instead, and the percentile and sample count printed beside
/// the value say so.
pub fn hi_percentile(n: u64) -> f64 {
    HI_LADDER
        .iter()
        .rev()
        .find(|(_, k)| n >= 10 * k)
        .map_or(100.0, |(p, _)| *p)
}

/// Value at percentile `p` (0–100) of `xs`, nearest-rank.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean of positive values (1.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// splitmix64: the stateless mixer every seeded input of the benchmark
/// derives from (the same construction `netsim::Scenario` keys its
/// draws with).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of `u64`s: `virt_digest`. Not cryptographic;
/// it only has to change when any simulated statistic changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert!((spread(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(hi_percentile(5), 100.0);
        assert_eq!(hi_percentile(19), 100.0);
        assert_eq!(hi_percentile(20), 50.0);
        assert_eq!(hi_percentile(99), 50.0);
        assert_eq!(hi_percentile(100), 90.0);
        assert_eq!(hi_percentile(999), 90.0);
        assert_eq!(hi_percentile(1_000), 99.0);
        assert_eq!(hi_percentile(10_000), 99.9);
        assert_eq!(hi_percentile(5_000_000), 99.99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn digest_depends_on_every_word_and_their_order() {
        let d = |xs: &[u64]| {
            let mut d = Digest::default();
            xs.iter().for_each(|&x| d.push(x));
            d.hex()
        };
        assert_eq!(d(&[1, 2, 3]), d(&[1, 2, 3]));
        assert_ne!(d(&[1, 2, 3]), d(&[1, 3, 2]));
        assert_ne!(d(&[1, 2, 3]), d(&[1, 2, 4]));
        assert_eq!(d(&[]).len(), 16);
    }
}
