use std::fmt;

use crate::{CausalOrder, ProcId, VectorClock};

/// Identity of one interval: the processor it belongs to and its
/// per-processor sequence number (starting at 1).
///
/// # Examples
///
/// ```
/// use adsm_vclock::{IntervalId, ProcId};
/// let id = IntervalId::new(ProcId::new(2), 5);
/// assert_eq!(id.to_string(), "P2:5");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntervalId {
    /// Owning processor.
    pub proc: ProcId,
    /// 1-based sequence number within `proc`'s execution.
    pub seq: u32,
}

impl IntervalId {
    /// Creates an interval id.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is zero; interval sequence numbers are 1-based so
    /// that a vector-clock entry of zero means "no interval seen".
    #[inline]
    pub fn new(proc: ProcId, seq: u32) -> Self {
        assert!(seq > 0, "interval sequence numbers are 1-based");
        IntervalId { proc, seq }
    }
}

impl fmt::Display for IntervalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.proc, self.seq)
    }
}

/// One interval of a processor's execution together with the vector
/// timestamp at which it was **closed** (its end-of-interval knowledge).
///
/// Interval `a` happened before interval `b` iff `b`'s timestamp covers
/// `a`'s id. Two intervals neither of which covers the other are
/// concurrent — for write notices on the same page, that is exactly
/// write-write false sharing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    id: IntervalId,
    vc: VectorClock,
}

impl Interval {
    /// Creates an interval record.
    ///
    /// # Panics
    ///
    /// Panics if the clock does not cover the interval's own id (a
    /// processor always knows its own past).
    pub fn new(id: IntervalId, vc: VectorClock) -> Self {
        assert!(
            vc.covers(id),
            "an interval's closing timestamp must cover its own id"
        );
        Interval { id, vc }
    }

    /// The interval's identity.
    pub fn id(&self) -> IntervalId {
        self.id
    }

    /// The vector timestamp at which the interval closed.
    pub fn vc(&self) -> &VectorClock {
        &self.vc
    }

    /// Did `self` happen before `other` under happened-before-1?
    pub fn happened_before(&self, other: &Interval) -> bool {
        other.vc.covers(self.id) && self.id != other.id
    }

    /// Are the two intervals concurrent (neither happened before the
    /// other)?
    pub fn concurrent_with(&self, other: &Interval) -> bool {
        !self.happened_before(other) && !other.happened_before(self) && self.id != other.id
    }

    /// Causal comparison of the closing timestamps.
    pub fn causal_cmp(&self, other: &Interval) -> CausalOrder {
        self.vc.causal_cmp(&other.vc)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcId {
        ProcId::new(i)
    }

    fn interval(proc: usize, seq: u32, slots: &[u32]) -> Interval {
        let mut vc = VectorClock::new(slots.len());
        for (i, &s) in slots.iter().enumerate() {
            vc.set(p(i), s);
        }
        Interval::new(IntervalId::new(p(proc), seq), vc)
    }

    #[test]
    fn ordered_intervals() {
        // P0 closes interval 1; P1 acquires from P0, then closes its own.
        let a = interval(0, 1, &[1, 0]);
        let b = interval(1, 1, &[1, 1]);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        assert!(!a.concurrent_with(&b));
    }

    #[test]
    fn concurrent_intervals() {
        let a = interval(0, 1, &[1, 0]);
        let b = interval(1, 1, &[0, 1]);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
    }

    #[test]
    fn interval_not_before_itself() {
        let a = interval(0, 1, &[1, 0]);
        assert!(!a.happened_before(&a.clone()));
        assert!(!a.concurrent_with(&a.clone()));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rejects_zero_seq() {
        let _ = IntervalId::new(p(0), 0);
    }

    #[test]
    #[should_panic(expected = "cover its own id")]
    fn rejects_inconsistent_clock() {
        let _ = interval(0, 2, &[1, 0]);
    }
}
