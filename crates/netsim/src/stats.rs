use std::fmt;

/// Bytes of protocol + transport header accounted to every message.
pub const MSG_HEADER_BYTES: usize = 40;

/// Category of a protocol message, for the Table 4 traffic breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// Request for a full page copy.
    PageRequest,
    /// Reply carrying a full page.
    PageReply,
    /// Request for one or more diffs of a page.
    DiffRequest,
    /// Reply carrying diffs.
    DiffReply,
    /// Request for page ownership (SW / adaptive protocols).
    OwnershipRequest,
    /// Ownership granted (may carry the page).
    OwnershipGrant,
    /// Ownership refused (adaptive protocols: false sharing detected; may
    /// carry the page for a piggybacked page request).
    OwnershipRefusal,
    /// SW protocol: home forwards an ownership request to the owner.
    OwnershipForward,
    /// SW protocol: new owner informs the static home.
    HomeUpdate,
    /// Lock acquire request to the lock manager.
    LockRequest,
    /// Lock manager forwards the request to the holder/last releaser.
    LockForward,
    /// Lock grant (carries write notices).
    LockGrant,
    /// Barrier arrival (carries write notices).
    BarrierArrive,
    /// Barrier release broadcast (carries merged write notices).
    BarrierRelease,
    /// Garbage-collection coordination traffic.
    GcControl,
    /// SC comparator: manager forwards a page request to the owner.
    PageForward,
    /// SC comparator: invalidate a read copy before a write proceeds.
    Invalidation,
    /// SC comparator: acknowledgement of an invalidation.
    InvalidationAck,
    /// HLRC comparator: diff flushed to a page's home at interval close.
    DiffFlush,
}

impl MsgKind {
    /// All message kinds, in display order.
    pub const ALL: [MsgKind; 19] = [
        MsgKind::PageRequest,
        MsgKind::PageReply,
        MsgKind::DiffRequest,
        MsgKind::DiffReply,
        MsgKind::OwnershipRequest,
        MsgKind::OwnershipGrant,
        MsgKind::OwnershipRefusal,
        MsgKind::OwnershipForward,
        MsgKind::HomeUpdate,
        MsgKind::LockRequest,
        MsgKind::LockForward,
        MsgKind::LockGrant,
        MsgKind::BarrierArrive,
        MsgKind::BarrierRelease,
        MsgKind::GcControl,
        MsgKind::PageForward,
        MsgKind::Invalidation,
        MsgKind::InvalidationAck,
        MsgKind::DiffFlush,
    ];

    fn idx(self) -> usize {
        MsgKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::PageRequest => "page-req",
            MsgKind::PageReply => "page-rep",
            MsgKind::DiffRequest => "diff-req",
            MsgKind::DiffReply => "diff-rep",
            MsgKind::OwnershipRequest => "own-req",
            MsgKind::OwnershipGrant => "own-grant",
            MsgKind::OwnershipRefusal => "own-refuse",
            MsgKind::OwnershipForward => "own-fwd",
            MsgKind::HomeUpdate => "home-upd",
            MsgKind::LockRequest => "lock-req",
            MsgKind::LockForward => "lock-fwd",
            MsgKind::LockGrant => "lock-grant",
            MsgKind::BarrierArrive => "barr-arr",
            MsgKind::BarrierRelease => "barr-rel",
            MsgKind::GcControl => "gc",
            MsgKind::PageForward => "page-fwd",
            MsgKind::Invalidation => "inval",
            MsgKind::InvalidationAck => "inval-ack",
            MsgKind::DiffFlush => "diff-flush",
        }
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-run network traffic accounting (messages and bytes by category).
///
/// Reproduces the paper's Table 4 columns: total messages, ownership
/// *requests* (not ownership-related messages — grants/refusals/forwards
/// are counted as messages but not as requests, matching the paper's
/// counting rule), and total data.
///
/// # Examples
///
/// ```
/// use adsm_netsim::{MsgKind, NetStats};
///
/// let mut s = NetStats::default();
/// s.record(MsgKind::PageRequest, 16);
/// s.record(MsgKind::PageReply, 4096);
/// assert_eq!(s.total_messages(), 2);
/// assert!(s.total_bytes() > 4112); // headers included
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    msgs: [u64; MsgKind::ALL.len()],
    bytes: [u64; MsgKind::ALL.len()],
    /// Chaos-delivery counters (all zero on a perfect network).
    retransmissions: u64,
    dropped_msgs: u64,
    duplicate_msgs: u64,
    timeout_waits: u64,
    /// Copies discarded by the Hermes-style epoch fence (destination's
    /// incarnation was dead when the copy arrived). Not counted into
    /// `dropped_msgs`: fence drops are deterministic schedule effects,
    /// not random loss.
    epoch_drops: u64,
}

impl NetStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `kind` carrying `payload` bytes; the wire
    /// header is added automatically.
    pub fn record(&mut self, kind: MsgKind, payload: usize) {
        let i = kind.idx();
        self.msgs[i] += 1;
        self.bytes[i] += (payload + MSG_HEADER_BYTES) as u64;
    }

    /// Messages of one kind.
    pub fn messages(&self, kind: MsgKind) -> u64 {
        self.msgs[kind.idx()]
    }

    /// Bytes (payload + headers) of one kind.
    pub fn bytes(&self, kind: MsgKind) -> u64 {
        self.bytes[kind.idx()]
    }

    /// Total messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total bytes of all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// The paper's "ownership requests" column: requests only.
    pub fn ownership_requests(&self) -> u64 {
        self.messages(MsgKind::OwnershipRequest)
    }

    /// Messages re-sent after a retransmission timeout.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Transmissions lost in flight (each triggers a timeout + resend).
    pub fn dropped_msgs(&self) -> u64 {
        self.dropped_msgs
    }

    /// Duplicate copies suppressed at the receiver (idempotent receive).
    pub fn duplicate_msgs(&self) -> u64 {
        self.duplicate_msgs
    }

    /// Retransmission-timeout expirations the senders sat through.
    pub fn timeout_waits(&self) -> u64 {
        self.timeout_waits
    }

    /// Counts one retransmission (delivery layer only).
    pub fn note_retransmission(&mut self) {
        self.retransmissions += 1;
    }

    /// Counts one in-flight loss (delivery layer only).
    pub fn note_drop(&mut self) {
        self.dropped_msgs += 1;
    }

    /// Counts one suppressed duplicate (delivery layer only).
    pub fn note_duplicate(&mut self) {
        self.duplicate_msgs += 1;
    }

    /// Counts one timeout wait (delivery layer only).
    pub fn note_timeout_wait(&mut self) {
        self.timeout_waits += 1;
    }

    /// Copies discarded by the epoch fence at a dead destination.
    pub fn epoch_drops(&self) -> u64 {
        self.epoch_drops
    }

    /// Counts one epoch-fence discard (delivery layer only).
    pub fn note_epoch_drop(&mut self) {
        self.epoch_drops += 1;
    }

    /// Merges another statistics object into this one.
    pub fn merge(&mut self, other: &NetStats) {
        for i in 0..MsgKind::ALL.len() {
            self.msgs[i] += other.msgs[i];
            self.bytes[i] += other.bytes[i];
        }
        self.retransmissions += other.retransmissions;
        self.dropped_msgs += other.dropped_msgs;
        self.duplicate_msgs += other.duplicate_msgs;
        self.timeout_waits += other.timeout_waits;
        self.epoch_drops += other.epoch_drops;
    }

    /// Iterates over `(kind, messages, bytes)` triples with nonzero
    /// message counts.
    pub fn iter(&self) -> impl Iterator<Item = (MsgKind, u64, u64)> + '_ {
        MsgKind::ALL
            .iter()
            .filter(|k| self.msgs[k.idx()] > 0)
            .map(|&k| (k, self.msgs[k.idx()], self.bytes[k.idx()]))
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} msgs, {:.2} MB",
            self.total_messages(),
            self.total_bytes() as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_kind() {
        let mut s = NetStats::new();
        s.record(MsgKind::DiffRequest, 8);
        s.record(MsgKind::DiffRequest, 8);
        s.record(MsgKind::DiffReply, 100);
        assert_eq!(s.messages(MsgKind::DiffRequest), 2);
        assert_eq!(s.messages(MsgKind::DiffReply), 1);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), (8 + 40) as u64 * 2 + (100 + 40) as u64);
    }

    #[test]
    fn ownership_requests_count_requests_only() {
        let mut s = NetStats::new();
        s.record(MsgKind::OwnershipRequest, 16);
        s.record(MsgKind::OwnershipGrant, 4096);
        s.record(MsgKind::OwnershipRefusal, 16);
        s.record(MsgKind::OwnershipForward, 16);
        assert_eq!(s.ownership_requests(), 1);
        assert_eq!(s.total_messages(), 4);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = NetStats::new();
        a.record(MsgKind::LockRequest, 4);
        let mut b = NetStats::new();
        b.record(MsgKind::LockRequest, 4);
        b.record(MsgKind::LockGrant, 64);
        a.merge(&b);
        assert_eq!(a.messages(MsgKind::LockRequest), 2);
        assert_eq!(a.messages(MsgKind::LockGrant), 1);
    }

    #[test]
    fn comparator_kinds_are_distinct_categories() {
        let mut s = NetStats::new();
        s.record(MsgKind::Invalidation, 16);
        s.record(MsgKind::InvalidationAck, 0);
        s.record(MsgKind::DiffFlush, 200);
        assert_eq!(s.messages(MsgKind::Invalidation), 1);
        assert_eq!(s.messages(MsgKind::InvalidationAck), 1);
        assert_eq!(s.messages(MsgKind::DiffFlush), 1);
        assert_eq!(s.total_messages(), 3);
        // None of them count as ownership requests.
        assert_eq!(s.ownership_requests(), 0);
    }

    #[test]
    fn all_kinds_have_unique_labels() {
        let mut labels: Vec<&str> = MsgKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MsgKind::ALL.len());
    }

    #[test]
    fn iter_skips_zero_kinds() {
        let mut s = NetStats::new();
        s.record(MsgKind::BarrierArrive, 0);
        let kinds: Vec<_> = s.iter().map(|(k, _, _)| k).collect();
        assert_eq!(kinds, vec![MsgKind::BarrierArrive]);
    }
}
