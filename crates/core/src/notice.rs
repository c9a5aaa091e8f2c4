use std::fmt;
use std::sync::Arc;

use adsm_mempage::PageId;
use adsm_vclock::{IntervalId, VectorClock};

/// The two flavours of write notice (§2.3, §3.1.1).
///
/// * MW-mode writers produce **non-owner** notices: "I modified this page
///   in this interval; ask me for the diff".
/// * SW-mode owners produce **owner** notices carrying the page's version
///   number: "my copy as of this version is the page; fetch it whole".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NoticeKind {
    /// Owner write notice with the page's version number.
    Owner(u32),
    /// Non-owner (MW) write notice; the modification is a diff.
    NonOwner,
}

impl NoticeKind {
    /// Is this an owner write notice?
    pub fn is_owner(self) -> bool {
        matches!(self, NoticeKind::Owner(_))
    }

    /// The version number, for owner notices.
    pub fn version(self) -> Option<u32> {
        match self {
            NoticeKind::Owner(v) => Some(v),
            NoticeKind::NonOwner => None,
        }
    }
}

impl fmt::Display for NoticeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoticeKind::Owner(v) => write!(f, "owner(v{v})"),
            NoticeKind::NonOwner => f.write_str("non-owner"),
        }
    }
}

/// One write notice as carried in an interval record: the page and the
/// flavour of the modification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteNotice {
    /// The page the interval modified.
    pub page: PageId,
    /// Owner or non-owner.
    pub kind: NoticeKind,
}

/// The vector timestamp at which an interval closed, **delta-shared**
/// against the processor's previous close.
///
/// Between two consecutive closes of the same processor, the only entry
/// of its working clock guaranteed to change is its *own* (the tick that
/// names the new interval); the other entries move only when an acquire
/// or barrier merges a remote clock in. `CloseVc` exploits that: it
/// stores a shared `base` snapshot plus the closing interval's own
/// `(proc, seq)`, whose entry *overrides* the base's. A close whose base
/// is unchanged reuses the previous record's `Arc` — zero clock
/// allocation — while every read (`get`, `covers`, `sum`) still sees
/// the exact closing clock, entry for entry, that a full clone would
/// have produced. The override is never approximate: the happened-before
/// sort keys and domination tests built on these values are
/// order-critical (a stale own entry would mis-sort diff application).
///
/// The component sum those sort keys start with is fixed at close too:
/// the base's non-own entries are summed once per base allocation and
/// the figure travels with every record sharing that base, so
/// [`CloseVc::sum`] is one addition however wide the cluster.
#[derive(Clone, Debug)]
pub struct CloseVc {
    /// Shared snapshot; its entry for `own` is ignored (possibly stale).
    base: Arc<VectorClock>,
    /// Sum of `base`'s entries other than `own`'s.
    foreign_sum: u64,
    /// The closing interval's own coordinates; `own`'s entry is exactly
    /// `own_seq`.
    own: adsm_vclock::ProcId,
    own_seq: u32,
}

impl CloseVc {
    /// A closing clock with a freshly allocated base (taken when the
    /// base drifted — some other processor's entry changed since the
    /// previous close).
    pub(crate) fn fresh(base: VectorClock, own: adsm_vclock::ProcId, own_seq: u32) -> Self {
        let foreign_sum = base
            .iter()
            .filter(|&(q, _)| q != own)
            .map(|(_, s)| u64::from(s))
            .sum();
        CloseVc {
            base: Arc::new(base),
            foreign_sum,
            own,
            own_seq,
        }
    }

    /// A closing clock sharing `prev`'s base (valid only when every
    /// non-own entry of the working clock equals the base; the caller
    /// checks with [`CloseVc::base_matches`]).
    pub(crate) fn shared(prev: &CloseVc, own_seq: u32) -> Self {
        CloseVc {
            base: Arc::clone(&prev.base),
            foreign_sum: prev.foreign_sum,
            own: prev.own,
            own_seq,
        }
    }

    /// Does this record's base agree with `current` on every entry but
    /// `own`'s? (The delta-share admission test at interval close.)
    pub(crate) fn base_matches(&self, current: &VectorClock) -> bool {
        current
            .iter()
            .all(|(q, s)| q == self.own || self.base.get(q) == s)
    }

    /// Entry for processor `q` of the exact closing clock.
    pub fn get(&self, q: adsm_vclock::ProcId) -> u32 {
        if q == self.own {
            self.own_seq
        } else {
            self.base.get(q)
        }
    }

    /// Does the closing clock cover (dominate the creation of) `id`?
    pub fn covers(&self, id: IntervalId) -> bool {
        id.seq <= self.get(id.proc)
    }

    /// Entries of the exact closing clock, in processor order. (Test
    /// hook: what [`CloseVc::sum`] and [`CloseVc::get`] must agree with.)
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (adsm_vclock::ProcId, u32)> + '_ {
        self.base
            .iter()
            .map(|(q, s)| (q, if q == self.own { self.own_seq } else { s }))
    }

    /// Sum of the exact closing clock's entries, in O(1): the first
    /// component of the happened-before sort key (domination implies a
    /// strictly larger sum).
    pub fn sum(&self) -> u64 {
        self.foreign_sum + u64::from(self.own_seq)
    }

    /// Wire size of the clock (same as a full clone: the override does
    /// not change the entry count).
    pub fn wire_size(&self) -> usize {
        self.base.wire_size()
    }

    /// Do two records share one base allocation? (Test hook for the
    /// delta-share accounting.)
    #[cfg(test)]
    pub fn shares_base_with(&self, other: &CloseVc) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

/// Record of one closed interval: its timestamp and the pages it wrote.
///
/// The cluster-wide [`IntervalLog`](crate::world::IntervalLog) of these
/// (indexed by processor and 1-based sequence number) is the canonical
/// representation of the happened-before-1 history; write-notice
/// propagation ships slices of the log. The closing clock and the write
/// list are **shared** (`Arc`), so shipping a record — the hot inner
/// loop of every lock grant and barrier release — is a refcount bump,
/// never a deep copy of the notice list.
#[derive(Clone, Debug)]
pub struct IntervalRecord {
    /// Identity of the interval.
    pub id: IntervalId,
    /// Vector timestamp at which the interval closed (delta-shared
    /// against the previous close; see [`CloseVc`]).
    pub vc: CloseVc,
    /// Pages written during the interval, each with its notice kind.
    /// Emptied (swapped for a shared empty slice) by diff garbage
    /// collection once every processor is provably up to date.
    pub writes: Arc<[WriteNotice]>,
}

impl IntervalRecord {
    /// Bytes this interval's notices occupy in a message: interval
    /// header + vector clock + one record per page.
    pub fn wire_size(&self) -> usize {
        8 + self.vc.wire_size() + self.writes.len() * NOTICE_RECORD_BYTES
    }
}

/// Wire size of one (page, kind) record inside an interval: page id,
/// kind tag, optional version.
pub const NOTICE_RECORD_BYTES: usize = 10;

/// A write notice pending application at some processor: the page was
/// invalidated because of it, and the modification it describes has not
/// yet been applied to the local copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingNotice {
    /// Interval that made the modification.
    pub interval: IntervalId,
    /// Owner or non-owner.
    pub kind: NoticeKind,
}

impl fmt::Display for PendingNotice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.interval, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsm_vclock::ProcId;
    use proptest::prelude::*;

    #[test]
    fn kind_accessors() {
        assert!(NoticeKind::Owner(3).is_owner());
        assert_eq!(NoticeKind::Owner(3).version(), Some(3));
        assert!(!NoticeKind::NonOwner.is_owner());
        assert_eq!(NoticeKind::NonOwner.version(), None);
    }

    #[test]
    fn interval_wire_size_counts_pages() {
        let mut vc = VectorClock::new(4);
        vc.tick(ProcId::new(1));
        let rec = IntervalRecord {
            id: IntervalId::new(ProcId::new(1), 1),
            vc: CloseVc::fresh(vc, ProcId::new(1), 1),
            writes: vec![
                WriteNotice {
                    page: PageId::new(0),
                    kind: NoticeKind::NonOwner,
                },
                WriteNotice {
                    page: PageId::new(5),
                    kind: NoticeKind::Owner(2),
                },
            ]
            .into(),
        };
        assert_eq!(rec.wire_size(), 8 + 16 + 2 * NOTICE_RECORD_BYTES);
    }

    #[test]
    fn shipping_a_record_shares_the_write_list() {
        let rec = IntervalRecord {
            id: IntervalId::new(ProcId::new(0), 1),
            vc: CloseVc::fresh(VectorClock::new(2), ProcId::new(0), 1),
            writes: vec![WriteNotice {
                page: PageId::new(3),
                kind: NoticeKind::NonOwner,
            }]
            .into(),
        };
        let shipped = rec.clone();
        assert!(Arc::ptr_eq(&rec.writes, &shipped.writes));
        assert!(rec.vc.shares_base_with(&shipped.vc));
    }

    #[test]
    fn close_vc_overrides_its_own_entry_exactly() {
        let me = ProcId::new(1);
        let mut working = VectorClock::new(3);
        working.set(ProcId::new(0), 4);
        working.set(ProcId::new(2), 7);
        // First close: seq 1, freshly allocated base.
        let first = CloseVc::fresh(working.clone(), me, 1);
        assert_eq!(first.get(me), 1);
        assert_eq!(first.get(ProcId::new(0)), 4);
        assert!(first.covers(IntervalId::new(me, 1)));
        assert!(!first.covers(IntervalId::new(me, 2)));

        // Second close with no foreign merges: share the base, bump own.
        assert!(first.base_matches(&working));
        let second = CloseVc::shared(&first, 2);
        assert!(second.shares_base_with(&first));
        assert_eq!(second.get(me), 2);
        assert!(second.covers(IntervalId::new(me, 2)));
        // iter() yields the effective (overridden) entries.
        let entries: Vec<u32> = second.iter().map(|(_, s)| s).collect();
        assert_eq!(entries, vec![4, 2, 7]);

        // A foreign merge defeats the share admission test.
        working.set(ProcId::new(2), 9);
        assert!(!second.base_matches(&working));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over a valid execution closed the way `close_interval` closes
        /// — share the previous record's base while no foreign entry
        /// moved, else allocate — every record's cached `sum()` is the
        /// sum of the entries `iter()` yields, although from the second
        /// close on a shared base the base's own entry is stale; and
        /// the sort key built on it is a linear extension of
        /// happened-before: an interval another's closing clock covers
        /// has a strictly smaller `(sum, proc, seq)`.
        #[test]
        fn sum_is_the_component_sum_and_orders_happened_before(
            np in prop_oneof![Just(1usize), Just(2usize), Just(8usize), Just(64usize)],
            steps in prop::collection::vec((0u8..3, 0usize..64, 0usize..64), 1..96),
        ) {
            let mut working: Vec<VectorClock> = (0..np).map(|_| VectorClock::new(np)).collect();
            let mut last: Vec<Option<CloseVc>> = vec![None; np];
            let mut closed: Vec<(IntervalId, CloseVc)> = Vec::new();
            let mut shares = 0usize;
            for (kind, p, from) in steps {
                let (p, from) = (p % np, from % np);
                if kind == 0 && p != from {
                    // Acquire: p learns what `from` knows.
                    let src = working[from].clone();
                    working[p].merge(&src);
                    continue;
                }
                let me = ProcId::new(p);
                let seq = working[p].tick(me);
                let vc = match &last[p] {
                    Some(prev) if prev.base_matches(&working[p]) => {
                        shares += 1;
                        let vc = CloseVc::shared(prev, seq);
                        prop_assert!(vc.base.get(me) < seq, "base's own entry is stale");
                        vc
                    }
                    _ => CloseVc::fresh(working[p].clone(), me, seq),
                };
                let exact: u64 = vc.iter().map(|(_, s)| s as u64).sum();
                prop_assert_eq!(vc.sum(), exact);
                let plain: u64 = working[p].iter().map(|(_, s)| s as u64).sum();
                prop_assert_eq!(vc.sum(), plain);
                last[p] = Some(vc.clone());
                closed.push((IntervalId::new(me, seq), vc));
            }
            let key = |id: IntervalId, vc: &CloseVc| (vc.sum(), id.proc.index(), id.seq);
            for (a, avc) in &closed {
                for (b, bvc) in &closed {
                    if a != b && bvc.covers(*a) {
                        prop_assert!(key(*a, avc) < key(*b, bvc), "{a} before {b}");
                    }
                }
            }
            // Two closes in a row with no acquire between share a base.
            if np == 1 {
                prop_assert_eq!(shares, closed.len() - 1);
            }
        }
    }
}
