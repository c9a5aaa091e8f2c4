use std::fmt;

use crate::{IntervalId, ProcId};

/// Result of comparing two [`VectorClock`]s under happened-before-1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CausalOrder {
    /// The clocks are identical.
    Equal,
    /// `self` happened strictly before the other clock.
    Before,
    /// `self` happened strictly after the other clock.
    After,
    /// Neither clock dominates the other: the events are concurrent.
    Concurrent,
}

impl fmt::Display for CausalOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CausalOrder::Equal => "equal",
            CausalOrder::Before => "before",
            CausalOrder::After => "after",
            CausalOrder::Concurrent => "concurrent",
        };
        f.write_str(s)
    }
}

/// A vector timestamp over a fixed-size cluster.
///
/// Entry `p` counts the intervals of processor `p` whose effects are known
/// (have *happened before* in the happened-before-1 order). Interval
/// sequence numbers start at 1, so a clock entry of `s` means intervals
/// `1..=s` of that processor are covered.
///
/// # Examples
///
/// ```
/// use adsm_vclock::{ProcId, VectorClock};
///
/// let mut vc = VectorClock::new(4);
/// let seq = vc.tick(ProcId::new(2));
/// assert_eq!(seq, 1);
/// assert_eq!(vc.get(ProcId::new(2)), 1);
/// assert_eq!(vc.get(ProcId::new(0)), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct VectorClock {
    slots: Vec<u32>,
}

impl VectorClock {
    /// Creates the zero clock for a cluster of `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        VectorClock {
            slots: vec![0; nprocs],
        }
    }

    /// Number of processors this clock covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` for a clock over an empty cluster.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Returns the entry for processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this clock.
    #[inline]
    pub fn get(&self, p: ProcId) -> u32 {
        self.slots[p.index()]
    }

    /// Sets the entry for processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this clock.
    #[inline]
    pub fn set(&mut self, p: ProcId, seq: u32) {
        self.slots[p.index()] = seq;
    }

    /// Advances processor `p`'s own entry by one and returns the new
    /// sequence number. Called when `p` opens a new interval.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this clock.
    #[inline]
    pub fn tick(&mut self, p: ProcId) -> u32 {
        let slot = &mut self.slots[p.index()];
        *slot += 1;
        *slot
    }

    /// Point-wise maximum with `other`; the receiving clock afterwards
    /// covers everything either clock covered. Called when an acquire
    /// brings in a releaser's knowledge.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn merge(&mut self, other: &VectorClock) {
        assert_eq!(
            self.slots.len(),
            other.slots.len(),
            "cannot merge clocks of different cluster sizes"
        );
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            *a = (*a).max(*b);
        }
    }

    /// Does this clock cover interval `id` (i.e. has that interval
    /// happened before the state this clock describes)?
    #[inline]
    pub fn covers(&self, id: IntervalId) -> bool {
        self.get(id.proc) >= id.seq
    }

    /// `true` iff every entry of `self` is `>=` the matching entry of
    /// `other`. Equal clocks dominate each other.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        assert_eq!(self.slots.len(), other.slots.len());
        self.slots.iter().zip(&other.slots).all(|(a, b)| a >= b)
    }

    /// Compares two clocks under happened-before-1.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn causal_cmp(&self, other: &VectorClock) -> CausalOrder {
        let fwd = self.dominates(other);
        let bwd = other.dominates(self);
        match (fwd, bwd) {
            (true, true) => CausalOrder::Equal,
            (true, false) => CausalOrder::After,
            (false, true) => CausalOrder::Before,
            (false, false) => CausalOrder::Concurrent,
        }
    }

    /// `true` iff the clocks are ordered neither way.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.causal_cmp(other) == CausalOrder::Concurrent
    }

    /// Iterates over `(proc, seq)` entries.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, u32)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, &s)| (ProcId::new(i), s))
    }

    /// Size in bytes of this clock when shipped in a message
    /// (one 32-bit word per processor).
    #[inline]
    pub fn wire_size(&self) -> usize {
        self.slots.len() * 4
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("⟨")?;
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{s}")?;
        }
        f.write_str("⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcId {
        ProcId::new(i)
    }

    #[test]
    fn zero_clock_is_equal_to_itself() {
        let a = VectorClock::new(3);
        assert_eq!(a.causal_cmp(&a.clone()), CausalOrder::Equal);
    }

    #[test]
    fn tick_orders_successive_intervals() {
        let mut a = VectorClock::new(2);
        let before = a.clone();
        a.tick(p(0));
        assert_eq!(before.causal_cmp(&a), CausalOrder::Before);
        assert_eq!(a.causal_cmp(&before), CausalOrder::After);
    }

    #[test]
    fn independent_ticks_are_concurrent() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(p(0));
        b.tick(p(1));
        assert_eq!(a.causal_cmp(&b), CausalOrder::Concurrent);
        assert!(a.concurrent_with(&b));
    }

    #[test]
    fn merge_establishes_order() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(p(0));
        b.merge(&a);
        b.tick(p(1));
        assert_eq!(a.causal_cmp(&b), CausalOrder::Before);
    }

    #[test]
    fn covers_tracks_interval_ids() {
        let mut a = VectorClock::new(2);
        let id1 = IntervalId::new(p(0), a.tick(p(0)));
        let id2 = IntervalId::new(p(0), 2);
        assert!(a.covers(id1));
        assert!(!a.covers(id2));
    }

    #[test]
    fn display_is_compact() {
        let mut a = VectorClock::new(3);
        a.tick(p(1));
        assert_eq!(a.to_string(), "⟨0,1,0⟩");
    }

    #[test]
    #[should_panic(expected = "different cluster sizes")]
    fn merge_rejects_size_mismatch() {
        let mut a = VectorClock::new(2);
        a.merge(&VectorClock::new(3));
    }

    #[test]
    fn wire_size_counts_words() {
        assert_eq!(VectorClock::new(8).wire_size(), 32);
    }
}
