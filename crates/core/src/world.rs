//! Central protocol state for a run.
//!
//! `World` plays the role of every node's protocol metadata plus the
//! "wires" between them. Distributed state that the real system keeps
//! per-node (interval logs, write notices, diff stores, page modes) is
//! kept per-processor here; state whose distribution the paper's
//! protocols make *authoritative at one node at a time* (page ownership,
//! version numbers, lock queues) is centralised, with every state change
//! still charged the messages the real protocol would send.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use adsm_mempage::{Diff, PageBuf, PageId, PagePool};
use adsm_netsim::{Delivery, MsgKind, NetStats, SimTime, Trace};
use adsm_vclock::{IntervalId, ProcId, VectorClock};

use crate::metrics::ProtocolStats;
use crate::notice::{IntervalRecord, PendingNotice, WriteNotice};
use crate::profile::Profiler;
use crate::protocol::policy::{self, AdaptPolicy};
use crate::DsmConfig;

/// Per-page, per-processor protocol mode (the paper's "state variable",
/// §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) enum PageMode {
    /// Single-writer handling: whole pages, ownership, versions.
    #[default]
    Sw,
    /// Multiple-writer handling: twins and diffs.
    Mw,
}

/// Highest-version owner write notice a processor has received for a
/// page — the "last perceived owner" of §3.1.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hvn {
    pub version: u32,
    pub proc: ProcId,
}

/// A closed interval's retained twin under lazy diffing: the diff is
/// encoded from it on first request or at the next local write.
#[derive(Clone, Debug)]
pub(crate) struct PendingDiff {
    /// The interval whose modifications the twin captures the base of.
    pub interval: IntervalId,
    /// The page image at the start of that interval (pool-backed;
    /// returns to the [`PagePool`] when dropped or materialised).
    pub twin: PageBuf,
}

/// Per-processor, per-page protocol state.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageCtl {
    /// Has this processor ever held a copy of the page?
    pub has_copy: bool,
    /// SW/MW belief of this processor for this page.
    pub mode: PageMode,
    /// Twin (copy made at the first write of an interval), MW mode only.
    /// Pool-backed: dropping it recycles the buffer.
    pub twin: Option<PageBuf>,
    /// Written during the currently open interval?
    pub dirty: bool,
    /// Write notices received and not yet applied to the local copy.
    pub missing: Vec<PendingNotice>,
    /// Highest-version owner notice received.
    pub hvn: Option<Hvn>,
    /// Lazy diffing: the last closed interval's twin, not yet encoded.
    pub pending: Option<PendingDiff>,
    /// This processor held a copy of the page when it crashed; the copy
    /// was wiped with the incarnation. The first post-restart fetch of
    /// the page clears the flag and counts one
    /// [`ProtocolStats::recovery_refetches`].
    pub refetch_pending: bool,
}

/// Authoritative (directory) per-page state.
#[derive(Clone, Debug)]
pub(crate) struct PageGlobal {
    /// Current owner, if the page is under single-writer handling
    /// somewhere. `None` after an owner dropped ownership (page fully in
    /// MW mode).
    pub owner: Option<ProcId>,
    /// Version number, incremented at every ownership acquisition.
    pub version: u32,
    /// When the current owner acquired ownership (for the SW quantum).
    pub owner_since: SimTime,
    /// The owner was refused-against or saw a concurrent writer: it will
    /// emit a final owner notice and drop ownership at its next interval
    /// close (§3.1.1: the owner cannot drop immediately — it has no twin).
    pub drop_pending: bool,
    /// Approximate copyset: processors that have fetched this page.
    pub copyset: Vec<bool>,
    /// Mechanism-1 state (§3.1.2): per-processor "I perceive this page as
    /// SW" reports, piggybacked on diff requests.
    pub reports_sw: Vec<bool>,
    /// Most recent diff size for the page (bytes of modified data), for
    /// the write-granularity test of WFS+WG.
    pub last_diff_bytes: usize,
    /// WFS+WG: a writer observed a large diff with no false sharing and
    /// wants the page back in SW mode.
    pub wants_sw: bool,
    /// Any processor ever accessed the page.
    pub touched: bool,
    /// Migratory-pattern detector (§7 extension): the last processor
    /// that read-faulted the page.
    pub last_read_faulter: Option<ProcId>,
    /// Confidence that the page is migratory (saturating; >= 2 enables
    /// ownership migration on read miss).
    pub migratory_score: u8,
    /// Ownership was acquired on a read miss and the owner has not
    /// written yet (used to detect mispredictions).
    pub read_owned: bool,
    /// HLRC comparator: the page's home node, resolved on first fault
    /// according to the configured [`HomePolicy`](crate::HomePolicy).
    pub home: Option<ProcId>,
}

impl PageGlobal {
    fn new(nprocs: usize, initial_owner: ProcId) -> Self {
        PageGlobal {
            owner: Some(initial_owner),
            version: 0,
            owner_since: SimTime::ZERO,
            drop_pending: false,
            copyset: vec![false; nprocs],
            reports_sw: vec![true; nprocs],
            last_diff_bytes: 0,
            wants_sw: false,
            touched: false,
            last_read_faulter: None,
            migratory_score: 0,
            read_owned: false,
            home: None,
        }
    }
}

/// One page's stored diffs: interval-sorted `(IntervalId, Arc<Diff>)`
/// entries. Interval counts per page are small (bounded by the GC
/// threshold), so a sorted `Vec` beats any tree: `get` is one binary
/// search over a contiguous array, `insert` one bounded `memmove`.
#[derive(Clone, Debug, Default)]
struct PageDiffs {
    entries: Vec<(IntervalId, Arc<Diff>)>,
}

/// Store of the diffs a processor has created, held **per page**: the
/// merge procedure of §3.1.1 always asks "the diffs of page P from
/// intervals i₁..iₖ", so the store is a `Vec<PageDiffs>` indexed by
/// `PageId` rather than one global map keyed by `(page, interval)`.
/// Diffs are stored behind `Arc`, which is what makes the validation
/// fetch path clone-free: handing a diff to the merge is a refcount
/// bump, never a copy of the diff.
#[derive(Clone, Debug, Default)]
pub(crate) struct DiffStore {
    /// Per-page entries, grown on demand to the highest inserted page.
    by_page: Vec<PageDiffs>,
    /// Pages currently holding at least one diff, maintained
    /// incrementally on first insert (gc used to pay an allocation and
    /// a sort per interval to recover this set from the global map).
    pages: Vec<PageId>,
    /// Stored diff count.
    count: u64,
    /// Total wire bytes of stored diffs.
    pub bytes: u64,
}

impl DiffStore {
    pub fn insert(&mut self, page: PageId, interval: IntervalId, diff: Diff) {
        self.bytes += diff.wire_size() as u64;
        self.count += 1;
        if self.by_page.len() <= page.index() {
            self.by_page
                .resize_with(page.index() + 1, PageDiffs::default);
        }
        let pd = &mut self.by_page[page.index()];
        if pd.entries.is_empty() {
            self.pages.push(page);
        }
        match pd.entries.binary_search_by_key(&interval, |(iv, _)| *iv) {
            Ok(pos) => {
                debug_assert!(false, "diff created twice for {page} {interval}");
                // Violated invariant in a release build: keep the
                // replace semantics with exact accounting rather than
                // silently dropping the new diff and its bytes.
                self.bytes -= pd.entries[pos].1.wire_size() as u64;
                self.count -= 1;
                pd.entries[pos].1 = Arc::new(diff);
            }
            Err(pos) => pd.entries.insert(pos, (interval, Arc::new(diff))),
        }
    }

    /// The stored diff for `(page, interval)`, as a shared handle the
    /// caller can retain across the merge without copying the diff.
    pub fn get(&self, page: PageId, interval: IntervalId) -> Option<&Arc<Diff>> {
        let pd = self.by_page.get(page.index())?;
        let pos = pd
            .entries
            .binary_search_by_key(&interval, |(iv, _)| *iv)
            .ok()?;
        Some(&pd.entries[pos].1)
    }

    /// Does the store hold at least one diff for `page`?
    pub fn has_page(&self, page: PageId) -> bool {
        self.by_page
            .get(page.index())
            .is_some_and(|pd| !pd.entries.is_empty())
    }

    /// Pages with at least one stored diff (no allocation; unordered —
    /// each page appears exactly once).
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.iter().copied()
    }

    /// Discards everything; returns (count, bytes) removed.
    pub fn clear(&mut self) -> (u64, u64) {
        let n = self.count;
        let b = self.bytes;
        for page in self.pages.drain(..) {
            self.by_page[page.index()].entries.clear();
        }
        self.count = 0;
        self.bytes = 0;
        (n, b)
    }
}

/// One home's shard of the page directory: the authoritative
/// [`PageGlobal`] entries for every page homed at this shard, plus a
/// per-creator [`DiffStore`] restricted to those pages. Shards are the
/// unit of locality: a validation fetch, a notice-domination check or a
/// GC sweep for page `pg` touches only shard `pg % nshards`.
#[derive(Debug)]
pub(crate) struct DirShard {
    /// Directory entries of the pages homed here, at slot
    /// `pg / nshards`.
    pages: Vec<PageGlobal>,
    /// Diffs created for pages homed here, indexed by the creating
    /// processor.
    diffs: Vec<DiffStore>,
}

/// The page directory, sharded by home processor: shard `pg % nshards`
/// (with `nshards == nprocs`) holds page `pg` at slot `pg / nshards`.
/// The modulo assignment coincides with the round-robin home policy —
/// the HLRC default — so under HLRC a shard is exactly the metadata the
/// home node owns in a real home-based system; the other home policies
/// keep the same physical sharding and record the resolved home in
/// [`PageGlobal::home`].
///
/// Diff storage moved here from the per-processor state: diffs are
/// keyed by (creator, page) and physically grouped by the page's home
/// shard, so the merge procedure's fetches and the GC sweep for one
/// page stay within one shard. Per-creator byte totals are maintained
/// directory-wide so the GC-threshold test stays O(1).
#[derive(Debug)]
pub(crate) struct Directory {
    shards: Vec<DirShard>,
    npages: usize,
    /// Per-creator totals of stored diff bytes across all shards.
    diff_bytes: Vec<u64>,
}

impl Directory {
    pub fn new(npages: usize, nprocs: usize, mut init: impl FnMut(usize) -> PageGlobal) -> Self {
        let nshards = nprocs.max(1);
        let mut shards: Vec<DirShard> = (0..nshards)
            .map(|_| DirShard {
                pages: Vec::with_capacity(npages.div_ceil(nshards)),
                diffs: (0..nprocs).map(|_| DiffStore::default()).collect(),
            })
            .collect();
        for pg in 0..npages {
            shards[pg % nshards].pages.push(init(pg));
        }
        Directory {
            shards,
            npages,
            diff_bytes: vec![0; nprocs],
        }
    }

    #[inline]
    fn locate(&self, pg: usize) -> (usize, usize) {
        debug_assert!(pg < self.npages);
        let nshards = self.shards.len();
        (pg % nshards, pg / nshards)
    }

    /// Number of pages in the directory.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.npages
    }

    /// Directory entries in page order.
    pub fn iter(&self) -> impl Iterator<Item = &PageGlobal> + '_ {
        (0..self.npages).map(|pg| &self[pg])
    }

    /// Stores a diff created by `q`, in the page's home shard.
    pub fn insert_diff(&mut self, q: ProcId, page: PageId, interval: IntervalId, diff: Diff) {
        let (s, _) = self.locate(page.index());
        let store = &mut self.shards[s].diffs[q.index()];
        let before = store.bytes as i64;
        store.insert(page, interval, diff);
        let delta = store.bytes as i64 - before;
        self.diff_bytes[q.index()] = (self.diff_bytes[q.index()] as i64 + delta) as u64;
    }

    /// The stored diff `q` created for `(page, interval)`, as a shared
    /// handle (see [`DiffStore::get`]).
    pub fn diff(&self, q: ProcId, page: PageId, interval: IntervalId) -> Option<&Arc<Diff>> {
        let (s, _) = self.locate(page.index());
        self.shards[s].diffs[q.index()].get(page, interval)
    }

    /// Does `q` hold at least one stored diff for `page`?
    pub fn has_diffs(&self, q: ProcId, page: PageId) -> bool {
        let (s, _) = self.locate(page.index());
        self.shards[s].diffs[q.index()].has_page(page)
    }

    /// Total stored diff bytes created by `q`, across all shards (the
    /// GC-trigger threshold input; O(1)).
    pub fn diff_bytes(&self, q: ProcId) -> u64 {
        self.diff_bytes[q.index()]
    }

    /// Pages for which `q` holds at least one stored diff (unordered
    /// across shards; each page appears exactly once).
    pub fn diff_pages(&self, q: ProcId) -> impl Iterator<Item = PageId> + '_ {
        self.shards
            .iter()
            .flat_map(move |shard| shard.diffs[q.index()].pages())
    }

    /// Discards every diff `q` created; returns (count, bytes) removed.
    pub fn clear_proc_diffs(&mut self, q: ProcId) -> (u64, u64) {
        let mut count = 0;
        let mut bytes = 0;
        for shard in &mut self.shards {
            let (n, b) = shard.diffs[q.index()].clear();
            count += n;
            bytes += b;
        }
        debug_assert_eq!(bytes, self.diff_bytes[q.index()]);
        self.diff_bytes[q.index()] = 0;
        (count, bytes)
    }
}

impl std::ops::Index<usize> for Directory {
    type Output = PageGlobal;
    #[inline]
    fn index(&self, pg: usize) -> &PageGlobal {
        let (s, slot) = self.locate(pg);
        &self.shards[s].pages[slot]
    }
}

impl std::ops::IndexMut<usize> for Directory {
    #[inline]
    fn index_mut(&mut self, pg: usize) -> &mut PageGlobal {
        let (s, slot) = self.locate(pg);
        &mut self.shards[s].pages[slot]
    }
}

/// The cluster-wide interval log: every processor's closed intervals,
/// indexed by processor and 1-based sequence number — the canonical
/// happened-before-1 history the merge procedure and write-notice
/// propagation read.
///
/// Ownership rule: **the log owns each record; shipping hands out
/// shared handles.** A record's closing clock and write list are `Arc`s
/// ([`IntervalRecord`]), so `integrate_from` — which used to deep-clone
/// every shipped interval's write list on every notice ship — now pays
/// a refcount bump per record at most.
/// Garbage collection prunes write lists in place by swapping in one
/// shared empty slice.
#[derive(Debug, Default)]
pub(crate) struct IntervalLog {
    /// Per-processor records, indexed by `seq - 1`.
    per_proc: Vec<Vec<IntervalRecord>>,
    /// The shared empty write list GC swaps into pruned records.
    empty: Option<Arc<[WriteNotice]>>,
}

impl IntervalLog {
    pub fn new(nprocs: usize) -> Self {
        IntervalLog {
            per_proc: vec![Vec::new(); nprocs],
            empty: None,
        }
    }

    /// Appends `p`'s next closed interval.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the record's write list is not
    /// strictly ascending by page. A receiver appends each shipped
    /// notice to the page's pending list without looking for it there,
    /// so a page named twice would be merged twice; `close_interval`
    /// builds the list from a sorted, deduplicated dirty set.
    pub fn push(&mut self, p: ProcId, record: IntervalRecord) {
        if let Some(w) = record.writes.windows(2).find(|w| w[0].page >= w[1].page) {
            panic!(
                "protocol invariant violated: interval {} names {} then {} \
                 (a write list names each page once, ascending)",
                record.id, w[0].page, w[1].page
            );
        }
        self.per_proc[p.index()].push(record);
    }

    /// Number of intervals `q` has closed (== `q`'s own clock entry).
    pub fn closed(&self, q: ProcId) -> u32 {
        self.per_proc[q.index()].len() as u32
    }

    /// `q`'s records with sequence numbers in `(from, to]` — the slice a
    /// notice ship covers when the receiver knows `from` of `q`'s
    /// intervals and the sender knows `to`. Empty when the receiver
    /// already knows at least as much as the sender (`from >= to`).
    pub fn range(&self, q: ProcId, from: u32, to: u32) -> &[IntervalRecord] {
        if from >= to {
            return &[];
        }
        &self.per_proc[q.index()][from as usize..to as usize]
    }

    /// Looks up a closed interval's record.
    ///
    /// # Panics
    ///
    /// Panics if the interval has not been closed (a protocol bug).
    pub fn record(&self, id: IntervalId) -> &IntervalRecord {
        &self.per_proc[id.proc.index()][(id.seq - 1) as usize]
    }

    /// `q`'s most recently closed interval, if any. Interval closing
    /// compares the fresh write-notice list against this record's: in
    /// steady state (the same pages written every interval) the lists
    /// are equal and the `Arc` is shared instead of reallocated
    /// ([`ProtocolStats::interval_close_allocs`](crate::ProtocolStats::interval_close_allocs)
    /// counts the misses).
    pub fn last_record(&self, q: ProcId) -> Option<&IntervalRecord> {
        self.per_proc[q.index()].last()
    }

    /// Empties every record's write list (diff garbage collection:
    /// everyone is provably up to date, so only the vector clocks —
    /// which still order future merges — are retained). All pruned
    /// records share one empty slice; outstanding shipped handles keep
    /// the old lists alive until dropped, no copy either way.
    pub fn prune_writes(&mut self) {
        let empty = self.empty.get_or_insert_with(|| Vec::new().into()).clone();
        for records in &mut self.per_proc {
            for rec in records {
                rec.writes = empty.clone();
            }
        }
    }
}

/// A diff queued for application by the merge procedure: precomputed
/// happened-before sort key and a shared handle into the writer's
/// store.
#[derive(Clone, Debug)]
pub(crate) struct KeyedDiff {
    /// Linear-extension sort key (clock-component sum, proc, seq),
    /// computed once at fetch time.
    pub key: (u64, usize, u32),
    /// Shared handle into the writer's per-page store.
    pub diff: Arc<Diff>,
}

impl std::borrow::Borrow<Diff> for KeyedDiff {
    fn borrow(&self) -> &Diff {
        &self.diff
    }
}

/// Reusable scratch for one `validate_page` invocation: the open
/// session's delta diff (encoded in place with [`Diff::encode_into`])
/// and the working lists of the merge procedure. Held in a pool
/// on the [`World`] so steady-state merges allocate nothing; the pool
/// depth follows the validation recursion depth (a server validating
/// its copy before serving draws a second scratch).
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    /// Uncommitted local delta of an open write session.
    pub delta: Diff,
    /// Snapshot of the page's pending notices, filtered in place down
    /// to the surviving (non-dominated) set, then sorted by writer so
    /// the diff fetch walks one contiguous run per writer. The order
    /// inside a run is arbitrary: the fetched diffs are re-sorted by
    /// their happened-before key before any is applied.
    pub notices: Vec<PendingNotice>,
    /// Fetched diffs, sorted into the happened-before order they are
    /// applied in.
    pub to_apply: Vec<KeyedDiff>,
}

/// Pooled transient state of barrier completion and of notice
/// shipping, persistent on the [`World`] so steady-state barriers and
/// lock grants allocate nothing.
///
/// The vectors are `take`n at the start of an operation (so the `World`
/// can be split into disjoint field borrows underneath them) and put
/// back — cleared, capacity intact — when it completes.
#[derive(Debug, Default)]
pub(crate) struct BarrierScratch {
    /// Per-processor release-broadcast payload bytes.
    pub payloads: Vec<usize>,
    /// Pages named by the write notices of the intervals closed since
    /// the last barrier release: the candidate set of the barrier-time
    /// detection mechanism 3.
    pub m3_pages: Vec<PageId>,
    /// Pages that received an owner notice during one processor's
    /// integration (detection mechanism 2); reused across processors.
    pub owner_pages: Vec<PageId>,
}

/// One scheduled processor crash, resolved from the scenario's (or the
/// replayed journal's) fault schedule. The crash *takes effect* at the
/// processor's first barrier arrival at or after `at`: the arriving
/// interval is committed to the replicated interval log first (SC-ABD
/// style — the log and the directory's diff stores model replicated
/// stable storage), then the incarnation's cached state is wiped, its
/// epoch bumped, and its clock advanced to `restart`, where the new
/// incarnation rebuilds its view from the log.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CrashEvent {
    /// The crashing processor.
    pub proc: ProcId,
    /// Scheduled death instant (virtual time).
    pub at: SimTime,
    /// First instant of the restarted incarnation
    /// ([`CrashWindow::end`](adsm_netsim::CrashWindow)).
    pub restart: SimTime,
    /// The crash has been applied (each event fires exactly once).
    pub fired: bool,
}

/// One scheduled HLRC home failover: at the first barrier *completion*
/// at or after `at`, every page homed at `home` is promoted to its
/// replicated backup and readers are redirected through the directory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FailoverEvent {
    /// The home processor being decommissioned.
    pub home: ProcId,
    /// Scheduled failover instant (virtual time).
    pub at: SimTime,
    /// The failover has been applied.
    pub fired: bool,
}

/// One lock's distributed state (manager = statically assigned processor;
/// grants come from the last releaser, as in TreadMarks).
#[derive(Clone, Debug)]
pub(crate) struct LockState {
    pub holder: Option<ProcId>,
    pub queue: VecDeque<ProcId>,
    pub last_releaser: ProcId,
    /// Virtual time of the last release.
    pub release_time: SimTime,
}

/// Barrier episode state (centralised at the barrier manager, proc 0).
#[derive(Clone, Debug)]
pub(crate) struct BarrierState {
    pub arrived: Vec<Option<SimTime>>,
    pub episodes: u64,
    /// Global knowledge at the last barrier release (everything everyone
    /// knew); arrivals only need to ship intervals beyond this.
    pub last_release_vc: VectorClock,
}

/// Per-processor protocol state.
#[derive(Clone, Debug)]
pub(crate) struct ProcCtl {
    /// Vector clock: entry q = number of q's intervals whose write
    /// notices this processor has received (own entry = own closed
    /// intervals).
    pub vc: VectorClock,
    /// Pages written during the open interval.
    pub dirty: Vec<PageId>,
    /// Per-page state.
    pub pages: Vec<PageCtl>,
    /// By page index: the diff notices (own and foreign) whose
    /// modifications are in the local copy and that no whole page
    /// installed here is known to contain. A later whole-page install —
    /// an owner notice's page, a copy that rides on a grant or a refusal
    /// — comes from a processor that may never have heard of them, so
    /// they rejoin the merge then. Pruned by the same domination tests
    /// as [`PageCtl::missing`], emptied with the diffs at garbage
    /// collection. Only the adaptive protocols mix whole pages with
    /// diffs, so only they fill it, and only for pages that merged one.
    pub applied: BTreeMap<usize, Vec<PendingNotice>>,
    /// Bytes of retained (pending) twins under lazy diffing; counted
    /// toward the garbage-collection trigger alongside the directory's
    /// per-creator stored-diff bytes ([`Directory::diff_bytes`]).
    pub pending_bytes: u64,
}

/// The complete protocol state of one run. Crate-internal; accessed only
/// during scheduler turns, via a mutex owned by the [`Dsm`](crate::Dsm).
pub(crate) struct World {
    pub cfg: DsmConfig,
    pub procs: Vec<ProcCtl>,
    /// Authoritative per-page state and stored diffs, sharded by home
    /// (shard = `page % nprocs`); indexable by page index.
    pub dir: Directory,
    /// The shared interval log (happened-before-1 history).
    pub log: IntervalLog,
    /// The run's adaptation policy: every SW/MW mode decision is a
    /// query against this object (see `protocol::policy`).
    pub policy: Box<dyn AdaptPolicy>,
    pub locks: BTreeMap<u64, LockState>,
    pub barrier: BarrierState,
    /// A processor's diff space crossed the GC threshold; collect at the
    /// next barrier.
    pub gc_requested: bool,
    /// Pooled scratch of barrier completion and notice shipping.
    pub bscratch: BarrierScratch,
    /// Pooled build list for interval closing's write notices; the
    /// closing path fills it, then shares the previous record's `Arc`
    /// when the list is unchanged.
    pub notice_build: Vec<WriteNotice>,
    /// Virtual-time charges to *other* processors' clocks accumulated
    /// where no engine handle is available (HLRC home-side diff applies
    /// during interval close); drained at the next protocol entry point.
    pub deferred_costs: Vec<(usize, SimTime)>,
    pub net: NetStats,
    pub proto: ProtocolStats,
    pub trace: Trace,
    pub profiler: Profiler,
    /// Recycling pool for twins, fetched pages and merge scratch: the
    /// steady state allocates no page buffers from the heap.
    pub pool: PagePool,
    /// Recycled [`MergeScratch`] sets for `validate_page`; depth equals
    /// the validation recursion depth, flat after warm-up.
    pub merge_scratch: Vec<MergeScratch>,
    /// Chaos delivery engine (recording or replaying), present when the
    /// run has a scenario or a replay journal configured. `None` means
    /// perfect delivery at zero overhead.
    pub delivery: Option<Delivery>,
    /// Scheduled processor crashes (scenario or replayed journal), in
    /// schedule order. Empty on crash-free runs.
    pub crashes: Vec<CrashEvent>,
    /// Scheduled HLRC home failovers. Empty unless the scenario asks.
    pub failovers: Vec<FailoverEvent>,
    /// Per-processor incarnation numbers (Hermes-style epochs). Start at
    /// 0; each applied crash bumps the victim's entry. Mirrored into the
    /// delivery layer's time-based fence — kept here for the recovery
    /// path and for tests.
    pub epochs: Vec<u32>,
    /// Homes decommissioned by a fired [`FailoverEvent`]: `home_of`
    /// redirects pages that would resolve there to the backup
    /// `(h + 1) % nprocs`.
    pub failed_homes: Vec<bool>,
    /// HLRC home replication ([`DsmConfig::hlrc_backup`]): the backup
    /// copy of every home's frame, maintained by the replicated flush
    /// stream. Indexed by page; `None` until the page's first flush.
    pub backup_store: Vec<Option<PageBuf>>,
}

impl World {
    pub fn new(cfg: DsmConfig) -> Self {
        let nprocs = cfg.nprocs;
        let npages = cfg.npages;
        let initial_owner = ProcId::new(0);
        let mut adapt = policy::build_policy(&cfg);
        adapt.on_run_start(npages);
        // Under the pure MW protocol every page is handled MW from the
        // start; under SW and the adaptive protocols all pages start in
        // SW mode (§3.3: "all pages start in SW mode") — except pages
        // the policy pins to MW (static hints), which start twinning
        // immediately with no initial owner.
        let initial_mode = match cfg.protocol {
            // HLRC never holds page ownership: every page is handled with
            // twins and diffs (flushed to the home), i.e. MW mode.
            crate::ProtocolKind::Mw | crate::ProtocolKind::Hlrc => PageMode::Mw,
            _ => PageMode::Sw,
        };
        let mode_of = |pg: usize| {
            if initial_mode == PageMode::Sw && adapt.page_starts_mw(pg) {
                PageMode::Mw
            } else {
                initial_mode
            }
        };
        World {
            procs: (0..nprocs)
                .map(|_| ProcCtl {
                    vc: VectorClock::new(nprocs),
                    dirty: Vec::new(),
                    pages: (0..npages)
                        .map(|pg| PageCtl {
                            mode: mode_of(pg),
                            ..PageCtl::default()
                        })
                        .collect(),
                    applied: BTreeMap::new(),
                    pending_bytes: 0,
                })
                .collect(),
            dir: Directory::new(npages, nprocs, |pg| {
                let mut g = PageGlobal::new(nprocs, initial_owner);
                if initial_mode == PageMode::Sw && adapt.page_starts_mw(pg) {
                    g.owner = None;
                }
                g
            }),
            log: IntervalLog::new(nprocs),
            policy: adapt,
            locks: BTreeMap::new(),
            barrier: BarrierState {
                arrived: vec![None; nprocs],
                episodes: 0,
                last_release_vc: VectorClock::new(nprocs),
            },
            gc_requested: false,
            bscratch: BarrierScratch::default(),
            notice_build: Vec::new(),
            deferred_costs: Vec::new(),
            net: NetStats::new(),
            proto: ProtocolStats::new(),
            trace: Trace::new(),
            profiler: Profiler::new(nprocs, npages),
            pool: PagePool::new(),
            merge_scratch: Vec::new(),
            delivery: match (&cfg.replay, &cfg.scenario) {
                (Some(journal), _) => Some(
                    Delivery::replay((**journal).clone(), nprocs)
                        .expect("replay journal validated by Dsm::run"),
                ),
                (None, Some(scenario)) => Some(Delivery::record(scenario.clone(), nprocs)),
                (None, None) => None,
            },
            crashes: {
                // A recorded scenario and a replayed journal carry the
                // same fault schedule; either source yields the same
                // protocol-level crash events.
                let faults: &[adsm_netsim::Fault] = match (&cfg.replay, &cfg.scenario) {
                    (Some(journal), _) => &journal.faults,
                    (None, Some(scenario)) => &scenario.faults,
                    (None, None) => &[],
                };
                adsm_netsim::crash_windows(faults)
                    .iter()
                    .map(|w| CrashEvent {
                        proc: ProcId::new(w.proc as usize),
                        at: w.start,
                        restart: w.end,
                        fired: false,
                    })
                    .collect()
            },
            failovers: {
                let faults: &[adsm_netsim::Fault] = match (&cfg.replay, &cfg.scenario) {
                    (Some(journal), _) => &journal.faults,
                    (None, Some(scenario)) => &scenario.faults,
                    (None, None) => &[],
                };
                faults
                    .iter()
                    .filter_map(|f| match f.kind {
                        adsm_netsim::FaultKind::HomeFailover { home } => Some(FailoverEvent {
                            home: ProcId::new(home as usize),
                            at: f.at,
                            fired: false,
                        }),
                        _ => None,
                    })
                    .collect()
            },
            epochs: vec![0; nprocs],
            failed_homes: vec![false; nprocs],
            backup_store: Vec::new(),
            cfg,
        }
    }

    /// Draws a merge scratch set from the pool (heap-allocating only on
    /// a pool miss, counted in
    /// [`ProtocolStats::merge_scratch_created`]).
    pub fn take_scratch(&mut self) -> MergeScratch {
        self.merge_scratch.pop().unwrap_or_else(|| {
            self.proto.merge_scratch_created += 1;
            MergeScratch::default()
        })
    }

    /// Returns a scratch set to the pool, emptied but with its buffer
    /// capacity intact.
    pub fn put_scratch(&mut self, mut scratch: MergeScratch) {
        scratch.notices.clear();
        scratch.to_apply.clear();
        self.merge_scratch.push(scratch);
    }

    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    /// Looks up a closed interval's record.
    ///
    /// # Panics
    ///
    /// Panics if the interval has not been closed (a protocol bug).
    pub fn interval(&self, id: IntervalId) -> &IntervalRecord {
        self.log.record(id)
    }

    /// Closing clock of a closed interval (delta-shared; see
    /// [`CloseVc`](crate::notice::CloseVc)).
    pub fn vc_of(&self, id: IntervalId) -> &crate::notice::CloseVc {
        &self.interval(id).vc
    }

    /// Records and prices one message from `src` to `dst` sent at
    /// virtual time `now`. Messages a node "sends to itself" are free
    /// and unrecorded, like local calls in the real system.
    ///
    /// With a chaos scenario active the delivery layer may add timeout
    /// waits (drops + retransmission), extra latency (jitter, reorder,
    /// fault stalls), and suppressed duplicates — whose discard is
    /// charged to the receiver through [`World::deferred_costs`].
    pub fn msg(
        &mut self,
        kind: MsgKind,
        payload: usize,
        src: ProcId,
        dst: ProcId,
        now: SimTime,
    ) -> SimTime {
        if src == dst {
            return SimTime::ZERO;
        }
        self.net.record(kind, payload);
        let base = self.cfg.cost.msg_cost(payload);
        let Some(delivery) = self.delivery.as_mut() else {
            return base;
        };
        let out = delivery.transmit(
            kind,
            payload,
            src.index(),
            dst.index(),
            now,
            base,
            &mut self.net,
        );
        if out.duplicated {
            // Idempotent receive: the receiver is interrupted once more
            // to recognise and discard the duplicate copy.
            self.deferred_costs
                .push((dst.index(), self.cfg.cost.service_interrupt));
        }
        self.proto.epoch_drops += out.epoch_drops as u64;
        base + out.extra
    }

    /// Emits a Figure-3 trace point with the current cluster-wide diff
    /// population.
    pub fn trace_event(&mut self, time: SimTime, kind: adsm_netsim::TraceKind) {
        let diffs = self.proto.diffs_alive;
        let bytes = self.proto.diff_bytes_alive + self.proto.twin_bytes_alive;
        self.trace.push(time, kind, diffs, bytes);
    }

    /// Marks a page as touched by any processor (for Table 2's shared
    /// page population).
    pub fn touch(&mut self, page: PageId) {
        self.dir[page.index()].touched = true;
    }

    /// Resolves (memoising on first use) the home node of a page under
    /// the configured home policy. `faulter` decides first-touch homes.
    /// Homes that would land on a failed-over processor redirect to the
    /// backup `(h + 1) % nprocs` — a failover rewrites already-resolved
    /// entries, and this covers pages first resolved *after* it fired.
    pub fn home_of(&mut self, page: PageId, faulter: ProcId) -> ProcId {
        let nprocs = self.cfg.nprocs;
        let pg = &mut self.dir[page.index()];
        if let Some(h) = pg.home {
            return h;
        }
        let mut h = match self.cfg.home_policy {
            crate::HomePolicy::RoundRobin => ProcId::new(page.index() % nprocs),
            crate::HomePolicy::FirstTouch => faulter,
            crate::HomePolicy::Fixed(p) => ProcId::new(p % nprocs),
        };
        if self.failed_homes[h.index()] {
            h = ProcId::new((h.index() + 1) % nprocs);
        }
        pg.home = Some(h);
        h
    }

    /// Pages touched during the run.
    pub fn touched_pages(&self) -> usize {
        self.dir.iter().filter(|p| p.touched).count()
    }

    /// Per-page final adaptation outcome: is the page touched and in SW
    /// mode on a majority of processors? The basis of
    /// [`RunReport::sw_page_map`](crate::RunReport::sw_page_map), which
    /// static-hint policies feed from profiling runs.
    pub fn sw_page_map(&self) -> Vec<bool> {
        let half = self.nprocs() / 2;
        (0..self.cfg.npages)
            .map(|pg| {
                self.dir[pg].touched
                    && self
                        .procs
                        .iter()
                        .filter(|pc| pc.pages[pg].mode == PageMode::Sw)
                        .count()
                        > half
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;

    fn world(npages: usize) -> World {
        let mut cfg = DsmConfig::new(ProtocolKind::Wfs);
        cfg.nprocs = 4;
        cfg.npages = npages;
        World::new(cfg)
    }

    #[test]
    fn fresh_world_has_proc0_owner_everywhere() {
        let w = world(3);
        assert_eq!(w.dir.len(), 3);
        for pg in w.dir.iter() {
            assert_eq!(pg.owner, Some(ProcId::new(0)));
            assert_eq!(pg.version, 0);
            assert!(!pg.touched);
        }
        assert_eq!(w.touched_pages(), 0);
    }

    #[test]
    fn directory_shards_by_page_modulo_and_routes_diffs() {
        // 4 procs, 9 pages: shard s holds pages {s, s+4, s+8}.
        let mut w = world(9);
        let q = ProcId::new(1);
        let twin = vec![0u8; adsm_mempage::PAGE_SIZE];
        let id = IntervalId::new(q, 1);
        // Pages 2 and 6 share shard 2; page 5 lives in shard 1.
        for pg in [2usize, 6, 5] {
            let mut c = twin.clone();
            c[pg] = 1;
            w.dir
                .insert_diff(q, PageId::new(pg), id, Diff::encode(&twin, &c));
        }
        assert!(w.dir.diff(q, PageId::new(2), id).is_some());
        assert!(w.dir.diff(q, PageId::new(6), id).is_some());
        assert!(w.dir.diff(q, PageId::new(5), id).is_some());
        assert!(w.dir.diff(q, PageId::new(3), id).is_none());
        assert!(!w.dir.has_diffs(ProcId::new(0), PageId::new(2)));
        let mut pages: Vec<usize> = w.dir.diff_pages(q).map(|p| p.index()).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![2, 5, 6]);
        let total = w.dir.diff_bytes(q);
        assert!(total > 0);
        // Mutating one page's entry leaves the others addressable.
        w.dir[6].touched = true;
        assert!(w.dir[6].touched && !w.dir[2].touched);
        let (n, b) = w.dir.clear_proc_diffs(q);
        assert_eq!((n, b), (3, total));
        assert_eq!(w.dir.diff_bytes(q), 0);
        assert_eq!(w.dir.diff_pages(q).next(), None);
    }

    fn record(q: ProcId, seq: u32, pages: &[usize]) -> IntervalRecord {
        IntervalRecord {
            id: IntervalId::new(q, seq),
            vc: crate::notice::CloseVc::fresh(VectorClock::new(4), q, seq),
            writes: pages
                .iter()
                .map(|&pg| WriteNotice {
                    page: PageId::new(pg),
                    kind: crate::notice::NoticeKind::NonOwner,
                })
                .collect(),
        }
    }

    #[test]
    #[should_panic(expected = "interval P1:2 names pg3 then pg3")]
    fn log_refuses_a_record_naming_a_page_twice() {
        let q = ProcId::new(1);
        let mut log = IntervalLog::new(4);
        log.push(q, record(q, 1, &[0, 2, 7]));
        log.push(q, record(q, 2, &[1, 3, 3]));
    }

    #[test]
    fn self_messages_are_free() {
        let mut w = world(1);
        let p = ProcId::new(1);
        let cost = w.msg(MsgKind::PageRequest, 16, p, p, SimTime::ZERO);
        assert_eq!(cost, SimTime::ZERO);
        assert_eq!(w.net.total_messages(), 0);
        let cost = w.msg(MsgKind::PageRequest, 16, p, ProcId::new(2), SimTime::ZERO);
        assert!(cost > SimTime::ZERO);
        assert_eq!(w.net.total_messages(), 1);
    }

    #[test]
    fn diff_store_round_trip() {
        let mut store = DiffStore::default();
        let twin = vec![0u8; adsm_mempage::PAGE_SIZE];
        let mut cur = twin.clone();
        cur[0] = 1;
        let diff = Diff::encode(&twin, &cur);
        let id = IntervalId::new(ProcId::new(0), 1);
        let wire = diff.wire_size() as u64;
        store.insert(PageId::new(0), id, diff);
        assert_eq!(store.bytes, wire);
        assert!(store.get(PageId::new(0), id).is_some());
        assert!(store.get(PageId::new(1), id).is_none());
        assert!(store.has_page(PageId::new(0)));
        assert!(!store.has_page(PageId::new(1)));
        assert_eq!(store.pages().collect::<Vec<_>>(), vec![PageId::new(0)]);
        let (n, b) = store.clear();
        assert_eq!((n, b), (1, wire));
        assert_eq!(store.pages().next(), None);
        assert!(!store.has_page(PageId::new(0)));
    }

    #[test]
    fn diff_store_fetch_is_a_shared_handle() {
        use std::sync::Arc;
        let mut store = DiffStore::default();
        let twin = vec![0u8; adsm_mempage::PAGE_SIZE];
        let mut cur = twin.clone();
        cur[8] = 3;
        let page = PageId::new(2);
        let i1 = IntervalId::new(ProcId::new(1), 1);
        let i2 = IntervalId::new(ProcId::new(1), 2);
        store.insert(page, i2, Diff::encode(&twin, &cur));
        store.insert(page, i1, Diff::encode(&twin, &twin.clone()));
        // Fetch clones the Arc, not the Diff.
        let h = store.get(page, i2).expect("stored").clone();
        assert_eq!(Arc::strong_count(&h), 2);
        assert_eq!(h.modified_bytes(), 4);
        // Interval-sorted within the page: both retrievable.
        assert!(store.get(page, i1).expect("stored").is_empty());
    }

    #[test]
    fn home_resolution_follows_policy_and_memoises() {
        use crate::HomePolicy;
        let page = PageId::new(5);
        let faulter = ProcId::new(2);

        let mut w = world(8);
        w.cfg.home_policy = HomePolicy::RoundRobin;
        assert_eq!(w.home_of(page, faulter), ProcId::new(5 % 4));

        let mut w = world(8);
        w.cfg.home_policy = HomePolicy::FirstTouch;
        assert_eq!(w.home_of(page, faulter), faulter);
        // Memoised: a different faulter does not move the home.
        assert_eq!(w.home_of(page, ProcId::new(0)), faulter);

        let mut w = world(8);
        w.cfg.home_policy = HomePolicy::Fixed(7);
        // Fixed homes wrap into the cluster.
        assert_eq!(w.home_of(page, faulter), ProcId::new(7 % 4));
    }

    #[test]
    fn sw_page_map_counts_touched_pages_only() {
        let mut w = world(2);
        // Nothing touched: all false.
        assert_eq!(w.sw_page_map(), vec![false, false]);
        w.touch(PageId::new(0));
        // All procs default to SW mode.
        assert_eq!(w.sw_page_map(), vec![true, false]);
        // Flip 3 of 4 procs to MW for page 0.
        for p in 0..3 {
            w.procs[p].pages[0].mode = PageMode::Mw;
        }
        assert_eq!(w.sw_page_map(), vec![false, false]);
    }
}
