use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// All protocol costs and application compute charges advance `SimTime`
/// clocks; wall-clock time never enters the simulation, which is what
/// makes runs deterministic.
///
/// # Examples
///
/// ```
/// use adsm_netsim::SimTime;
///
/// let t = SimTime::from_us(1500) + SimTime::from_ms(1);
/// assert_eq!(t.as_ns(), 2_500_000);
/// assert_eq!(t.to_string(), "2.500ms");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Value in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Value in microseconds (floating point, for reports).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in milliseconds (floating point, for reports).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in seconds (floating point, for reports).
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating difference (`self - earlier`, or zero).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Multiplies a span by an integer count (e.g. per-byte costs).
    #[inline]
    pub fn times(self, n: u64) -> SimTime {
        SimTime(self.0 * n)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sum for SimTime {
    #[inline]
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_us(1).as_ns(), 1_000);
        assert_eq!(SimTime::from_ms(1).as_ns(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(SimTime::from_ms(2).as_ms(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(3);
        let b = SimTime::from_us(2);
        assert_eq!((a + b).as_ns(), 5_000);
        assert_eq!((a - b).as_ns(), 1_000);
        assert_eq!(b.saturating_since(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(b.times(3).as_ns(), 6_000);
    }

    #[test]
    fn sums() {
        let total: SimTime = (1..=4).map(SimTime::from_us).sum();
        assert_eq!(total, SimTime::from_us(10));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_us(1) - SimTime::from_us(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ns(5).to_string(), "5ns");
        assert_eq!(SimTime::from_us(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_ms(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
    }
}
