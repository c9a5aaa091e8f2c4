use std::fmt;

/// Identifier of a processor (node) in the DSM cluster.
///
/// Processor ids are dense: a cluster of `n` processors uses ids
/// `0..n`. The id doubles as an index into per-processor tables, which is
/// why [`ProcId::index`] exists.
///
/// # Examples
///
/// ```
/// use adsm_vclock::ProcId;
///
/// let p = ProcId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(u16);

impl ProcId {
    /// Creates a processor id from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the id space (more than
    /// `u16::MAX` processors).
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(
            index <= u16::MAX as usize,
            "processor index {index} exceeds the supported id space"
        );
        ProcId(index as u16)
    }

    /// Returns the dense index of this processor, usable as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all processor ids of a cluster of size `nprocs`.
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_vclock::ProcId;
    /// let ids: Vec<_> = ProcId::all(3).collect();
    /// assert_eq!(ids, vec![ProcId::new(0), ProcId::new(1), ProcId::new(2)]);
    /// ```
    #[inline]
    pub fn all(nprocs: usize) -> impl Iterator<Item = ProcId> {
        (0..nprocs).map(ProcId::new)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<ProcId> for usize {
    fn from(p: ProcId) -> usize {
        p.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_index() {
        for i in [0usize, 1, 7, 65535] {
            assert_eq!(ProcId::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the supported id space")]
    fn rejects_oversized_index() {
        let _ = ProcId::new(usize::from(u16::MAX) + 1);
    }

    #[test]
    fn orders_by_index() {
        assert!(ProcId::new(1) < ProcId::new(2));
    }

    #[test]
    fn all_enumerates_cluster() {
        assert_eq!(ProcId::all(0).count(), 0);
        assert_eq!(ProcId::all(8).count(), 8);
    }
}
