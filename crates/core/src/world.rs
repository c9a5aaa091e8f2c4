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

use adsm_mempage::{DiffArena, DiffSlot, PageBuf, PageId, PagePool};
use adsm_netsim::{Delivery, MsgKind, NetStats, SimTime};
use adsm_vclock::{IntervalId, ProcId, VectorClock};

use crate::metrics::{ProtocolStats, SwitchCause};
use crate::notice::{IntervalRecord, PendingNotice, WriteNotice};
use crate::{ProtocolKind, RunOptions};

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

/// Per-processor, per-page protocol state.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageCtl {
    /// Has this processor ever held a copy of the page?
    pub has_copy: bool,
    /// SW/MW belief of this processor for this page; only
    /// [`PageCtl::switch_mode`] changes it.
    mode: PageMode,
    /// Twin (copy made at the first write of an interval), MW mode only.
    /// Pool-backed: dropping it recycles the buffer.
    pub twin: Option<PageBuf>,
    /// Written during the currently open interval?
    pub dirty: bool,
    /// Write notices received and not yet applied to the local copy.
    pub missing: Vec<PendingNotice>,
    /// Highest-version owner notice received.
    pub hvn: Option<Hvn>,
    /// This processor held a copy of the page when it crashed; the copy
    /// was wiped with the incarnation. The first post-restart fetch of
    /// the page clears the flag and counts one
    /// [`ProtocolStats::recovery_refetches`].
    pub refetch_pending: bool,
}

impl PageCtl {
    /// A page no processor has touched: MW under the pure MW protocol
    /// and under HLRC (which never holds page ownership: every page is
    /// twinned and diffed), SW under every other (§3.3: "all pages start
    /// in SW mode"). A restarted processor's pages start here again;
    /// that is not a switch.
    pub fn new(protocol: ProtocolKind) -> Self {
        let mode = match protocol {
            ProtocolKind::Mw | ProtocolKind::Hlrc => PageMode::Mw,
            _ => PageMode::Sw,
        };
        PageCtl {
            mode,
            ..PageCtl::default()
        }
    }

    /// This processor's SW/MW belief for the page.
    pub fn mode(&self) -> PageMode {
        self.mode
    }

    /// The one place a page changes mode: to the mode `cause` implies,
    /// counted by direction and by cause. Returns `false`, changing
    /// nothing, if the page is in that mode already. Conditions of one
    /// trigger (an open session, uncommitted writes) stay its caller's.
    pub fn switch_mode(&mut self, cause: SwitchCause, stats: &mut ProtocolStats) -> bool {
        let (to, count) = match cause.to_mw() {
            true => (PageMode::Mw, &mut stats.switches_to_mw),
            false => (PageMode::Sw, &mut stats.switches_to_sw),
        };
        if self.mode == to {
            return false;
        }
        self.mode = to;
        *count += 1;
        stats.switch_causes[cause as usize] += 1;
        true
    }
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
    /// The owner drops ownership, for this cause, at its next interval
    /// close, after a final owner notice (§3.1.1: it has no twin). Set
    /// by a `SmallGrain` refusal, a `ConcurrentNotice` and WFS+WG's
    /// `ReadShared` probe; the first cause set stays.
    pub drop_pending: Option<SwitchCause>,
    /// Approximate copyset: processors that have fetched this page.
    pub copyset: Vec<bool>,
    /// Mechanism-1 state (§3.1.2): per-processor "I perceive this page as
    /// SW" reports, piggybacked on diff requests.
    pub reports_sw: Vec<bool>,
    /// WFS+WG: a writer observed a large diff with no false sharing and
    /// wants the page back in SW mode.
    pub wants_sw: bool,
    /// Any processor ever accessed the page.
    pub touched: bool,
    /// HLRC comparator: the page's home node, resolved on first fault
    /// according to the configured [`HomePolicy`](crate::HomePolicy).
    pub home: Option<ProcId>,
    /// By processor: the interval of its most recent write to the page,
    /// set at every interval close that wrote it and never cleared.
    pub last_write: Vec<Option<IntervalId>>,
    /// Some closing write was concurrent (happened-before-1) with
    /// another processor's most recent write: the page is write-write
    /// falsely shared (§1; Table 2). Never cleared.
    pub ww_false_shared: bool,
}

impl PageGlobal {
    fn new(nprocs: usize, initial_owner: ProcId) -> Self {
        PageGlobal {
            owner: Some(initial_owner),
            version: 0,
            owner_since: SimTime::ZERO,
            drop_pending: None,
            copyset: vec![false; nprocs],
            reports_sw: vec![true; nprocs],
            wants_sw: false,
            touched: false,
            home: None,
            last_write: vec![None; nprocs],
            ww_false_shared: false,
        }
    }

    /// The owner-drop decision (§3.1.1) for the owner's `pc`: deferred
    /// while it has uncommitted SW writes, else it drops and switches now.
    pub fn drop_owner(&mut self, pc: &mut PageCtl, cause: SwitchCause, stats: &mut ProtocolStats) {
        if pc.dirty && pc.twin.is_none() {
            self.drop_pending.get_or_insert(cause);
        } else {
            self.owner = None;
            pc.switch_mode(cause, stats);
        }
    }

    /// The most recent write interval of every processor but `me`, in
    /// processor order.
    pub fn other_writers(&self, me: ProcId) -> impl Iterator<Item = IntervalId> + '_ {
        self.last_write
            .iter()
            .enumerate()
            .filter(move |&(q, _)| q != me.index())
            .filter_map(|(_, iv)| *iv)
    }
}

/// One page's stored diffs: interval-sorted `(IntervalId, DiffSlot)`
/// entries. Interval counts per page are small (bounded by the GC
/// threshold), so a sorted `Vec` beats any tree: `get` is one binary
/// search over a contiguous array, `insert` one bounded `memmove`.
#[derive(Clone, Debug, Default)]
struct PageDiffs {
    entries: Vec<(IntervalId, DiffSlot)>,
}

/// Store of the diffs a processor has created, held **per page**: the
/// merge procedure of §3.1.1 always asks "the diffs of page P from
/// intervals i₁..iₖ", so the store is a `Vec<PageDiffs>` indexed by
/// `PageId` rather than one global map keyed by `(page, interval)`.
/// An entry is the diff's [`DiffSlot`] in the directory's run-wide
/// [`DiffArena`], which holds the bytes: storing a diff allocates
/// nothing of its own, and handing one to the merge is a copy of the
/// slot, never of the diff.
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
    /// Stores the diff `interval`'s writer made of `page`.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the store already holds a diff for
    /// `(page, interval)`: a writer diffs a page once per interval, and
    /// a second diff would replace the one a merge may already have
    /// applied.
    pub fn insert(&mut self, page: PageId, interval: IntervalId, diff: DiffSlot) {
        if self.by_page.len() <= page.index() {
            self.by_page
                .resize_with(page.index() + 1, PageDiffs::default);
        }
        let pd = &mut self.by_page[page.index()];
        let Err(pos) = pd.entries.binary_search_by_key(&interval, |(iv, _)| *iv) else {
            panic!(
                "protocol invariant violated: writer {} made a second diff of {page} \
                 for interval {interval} (a writer diffs a page once per interval)",
                interval.proc
            );
        };
        if pd.entries.is_empty() {
            self.pages.push(page);
        }
        self.bytes += diff.wire_size() as u64;
        self.count += 1;
        pd.entries.insert(pos, (interval, diff));
    }

    /// The slot of the stored diff for `(page, interval)`.
    pub fn get(&self, page: PageId, interval: IntervalId) -> Option<DiffSlot> {
        let pd = self.by_page.get(page.index())?;
        let pos = pd
            .entries
            .binary_search_by_key(&interval, |(iv, _)| *iv)
            .ok()?;
        Some(pd.entries[pos].1)
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

/// The page directory: the authoritative [`PageGlobal`] entry of every
/// page, indexable by page number, and the diffs every processor has
/// created, one [`DiffStore`] per creator. A diff is looked up by
/// (creator, page), the way the merge procedure asks for it; a
/// creator's [`DiffStore::bytes`] is the GC-threshold test's input.
#[derive(Debug)]
pub(crate) struct Directory {
    /// Directory entries, in page order.
    pub pages: Vec<PageGlobal>,
    /// Stored diffs, indexed by the creating processor.
    pub diffs: Vec<DiffStore>,
    /// The bytes of every stored diff of the run, whoever created it;
    /// emptied by garbage collection, which empties every store. Its
    /// chunks go back to the process's chunk pool when the run ends.
    pub arena: DiffArena,
}

impl Directory {
    /// A directory of `npages` pages, each starting owned by
    /// `initial_owner` at version 0.
    pub fn new(npages: usize, nprocs: usize, initial_owner: ProcId) -> Self {
        Directory {
            pages: (0..npages)
                .map(|_| PageGlobal::new(nprocs, initial_owner))
                .collect(),
            diffs: (0..nprocs).map(|_| DiffStore::default()).collect(),
            arena: DiffArena::default(),
        }
    }
}

impl std::ops::Index<usize> for Directory {
    type Output = PageGlobal;
    #[inline]
    fn index(&self, pg: usize) -> &PageGlobal {
        &self.pages[pg]
    }
}

impl std::ops::IndexMut<usize> for Directory {
    #[inline]
    fn index_mut(&mut self, pg: usize) -> &mut PageGlobal {
        &mut self.pages[pg]
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
/// happened-before sort key and the diff's slot in the directory's
/// arena.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyedDiff {
    /// Linear-extension sort key (clock-component sum, proc, seq),
    /// computed once at fetch time.
    pub key: (u64, usize, u32),
    /// Where the writer's diff lives in [`Directory::arena`].
    pub slot: DiffSlot,
}

/// Reusable scratch for a merge (`validate_page`) or an HLRC home fetch
/// or flush: an arena for its transient diff, and the merge's working
/// lists. Pooled on the [`World`] so steady-state uses allocate nothing;
/// the pool depth follows the nesting depth (a server validating before
/// serving draws a second scratch), one arena per level.
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    /// Transient diffs, forgotten when the scratch goes back to the
    /// pool; its chunk is taken at the first encode, from the chunks
    /// earlier runs' arenas gave back when there are any.
    pub arena: DiffArena,
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

/// One scheduled processor crash, resolved from the scenario's fault
/// schedule. The crash *takes effect* at the processor's first barrier
/// arrival at or after `at`: the arriving interval is committed to the
/// replicated interval log first (SC-ABD style — the log and the
/// directory's diff stores model replicated stable storage), then the
/// incarnation's cached state is wiped, its epoch bumped, and its clock
/// advanced to `restart`, where the new incarnation rebuilds its view
/// from the log.
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
}

/// The complete protocol state of one run. Crate-internal; accessed only
/// during scheduler turns, via a mutex owned by the [`Dsm`](crate::Dsm).
pub(crate) struct World {
    pub protocol: ProtocolKind,
    /// Shared address space size in pages, as the allocator left it.
    pub npages: usize,
    pub opts: RunOptions,
    pub procs: Vec<ProcCtl>,
    /// Authoritative per-page state and stored diffs; indexable by page
    /// index.
    pub dir: Directory,
    /// The shared interval log (happened-before-1 history).
    pub log: IntervalLog,
    pub locks: BTreeMap<u64, LockState>,
    pub barrier: BarrierState,
    /// A processor's diff space crossed the GC threshold; collect at the
    /// next barrier.
    pub gc_requested: bool,
    /// Pooled scratch of barrier completion and notice shipping.
    pub bscratch: BarrierScratch,
    /// A copy of the granting processor's clock, the bound of a lock or
    /// ownership grant's notice ship (`lrc::integrate_from_proc`);
    /// pooled so a grant allocates no clock.
    pub grant_bound: VectorClock,
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
    /// Figure 3's series: `(time, cluster-wide diffs alive)` after each
    /// diff-creating close, garbage collection, mode switch and barrier,
    /// in the order they happened (not sorted by time).
    pub diffs_alive: Vec<(SimTime, u64)>,
    /// Modified bytes of every diff, in creation order (Table 2's write
    /// granularity).
    pub write_grains: Vec<u32>,
    /// Recycling pool for twins, fetched pages and merge scratch: the
    /// steady state allocates no page buffers from the heap.
    pub pool: PagePool,
    /// Recycled [`MergeScratch`] sets; depth equals the nesting depth
    /// of their users, flat after warm-up.
    pub merge_scratch: Vec<MergeScratch>,
    /// Chaos delivery engine, present when the run has a scenario
    /// configured. `None` means perfect delivery at zero overhead.
    pub delivery: Option<Delivery>,
    /// Scheduled processor crashes, in schedule order. Empty on
    /// crash-free runs.
    pub crashes: Vec<CrashEvent>,
    /// Scheduled HLRC home failovers. Empty unless the scenario asks;
    /// non-empty turns on home replication ([`World::backup_store`]) for
    /// the whole run.
    pub failovers: Vec<FailoverEvent>,
    /// Homes decommissioned by a fired [`FailoverEvent`]: `home_of`
    /// redirects pages that would resolve there to the backup
    /// `(h + 1) % nprocs`.
    pub failed_homes: Vec<bool>,
    /// HLRC home replication, on exactly when a failover is scheduled:
    /// the backup copy of every home's frame, maintained by the
    /// replicated flush stream. Indexed by page; `None` until the page's
    /// first flush.
    pub backup_store: Vec<Option<PageBuf>>,
}

impl World {
    pub fn new(protocol: ProtocolKind, nprocs: usize, npages: usize, opts: RunOptions) -> Self {
        let faults = opts.faults();
        World {
            procs: (0..nprocs)
                .map(|_| ProcCtl {
                    vc: VectorClock::new(nprocs),
                    dirty: Vec::new(),
                    pages: (0..npages).map(|_| PageCtl::new(protocol)).collect(),
                    applied: BTreeMap::new(),
                })
                .collect(),
            dir: Directory::new(npages, nprocs, ProcId::new(0)),
            log: IntervalLog::new(nprocs),
            locks: BTreeMap::new(),
            barrier: BarrierState {
                arrived: vec![None; nprocs],
                episodes: 0,
                last_release_vc: VectorClock::new(nprocs),
            },
            gc_requested: false,
            bscratch: BarrierScratch::default(),
            grant_bound: VectorClock::new(nprocs),
            notice_build: Vec::new(),
            deferred_costs: Vec::new(),
            net: NetStats::new(),
            proto: ProtocolStats::new(),
            diffs_alive: Vec::new(),
            write_grains: Vec::new(),
            pool: PagePool::new(),
            merge_scratch: Vec::new(),
            delivery: opts
                .scenario
                .as_ref()
                .map(|scenario| Delivery::record(Arc::new(scenario.clone()), nprocs)),
            crashes: adsm_netsim::crash_windows(faults)
                .iter()
                .map(|w| CrashEvent {
                    proc: ProcId::new(w.proc as usize),
                    at: w.start,
                    restart: w.end,
                    fired: false,
                })
                .collect(),
            failovers: faults
                .iter()
                .filter_map(|f| match f.kind {
                    adsm_netsim::FaultKind::HomeFailover { home } => Some(FailoverEvent {
                        home: ProcId::new(home as usize),
                        at: f.at,
                        fired: false,
                    }),
                    _ => None,
                })
                .collect(),
            failed_homes: vec![false; nprocs],
            backup_store: Vec::new(),
            protocol,
            npages,
            opts,
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
        scratch.arena.clear();
        scratch.notices.clear();
        scratch.to_apply.clear();
        self.merge_scratch.push(scratch);
    }

    pub fn nprocs(&self) -> usize {
        self.procs.len()
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
    /// waits (drops + retransmission), extra latency (jitter, reorder),
    /// and suppressed duplicates — whose discard is charged to the
    /// receiver through [`World::deferred_costs`].
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
        let base = self.opts.cost.msg_cost(payload);
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
                .push((dst.index(), self.opts.cost.service_interrupt));
        }
        base + out.extra
    }

    /// Hands `page` to the owner `to` under SW handling everywhere
    /// (mechanism 3, GC's exit): a new version, and every processor
    /// switches to SW for `cause`, perceiving `to` as the owner. Returns
    /// the version.
    pub fn hand_over(&mut self, page: PageId, to: ProcId, now: SimTime, cause: SwitchCause) -> u32 {
        let pg = &mut self.dir[page.index()];
        pg.version += 1;
        pg.owner = Some(to);
        pg.owner_since = now;
        pg.drop_pending = None;
        let (version, proc) = (pg.version, to);
        let hvn = Hvn { version, proc };
        for proc in &mut self.procs {
            let pc = &mut proc.pages[page.index()];
            debug_assert!(pc.twin.is_none(), "no open sessions at a hand-over");
            pc.switch_mode(cause, &mut self.proto);
            pc.hvn = Some(hvn);
        }
        hvn.version
    }

    /// Appends the current cluster-wide diff population at `time` to
    /// Figure 3's series.
    pub fn sample_diffs(&mut self, time: SimTime) {
        self.diffs_alive.push((time, self.proto.diffs_alive));
    }

    /// Marks a page as touched by any processor (for
    /// [`World::touched_pages`] and [`World::final_sw_pages`]).
    pub fn touch(&mut self, page: PageId) {
        self.dir[page.index()].touched = true;
    }

    /// Resolves (memoising on first use) the home node of a page under
    /// the configured home policy. `faulter` decides first-touch homes.
    /// Homes that would land on a failed-over processor redirect to the
    /// backup `(h + 1) % nprocs` — a failover rewrites already-resolved
    /// entries, and this covers pages first resolved *after* it fired.
    pub fn home_of(&mut self, page: PageId, faulter: ProcId) -> ProcId {
        let nprocs = self.nprocs();
        let pg = &mut self.dir[page.index()];
        if let Some(h) = pg.home {
            return h;
        }
        let mut h = match self.opts.home_policy {
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
        self.dir.pages.iter().filter(|p| p.touched).count()
    }

    /// Pages touched during the run and in SW mode on a majority of
    /// processors ([`RunReport::final_sw_pages`](crate::RunReport::final_sw_pages)).
    pub fn final_sw_pages(&self) -> usize {
        let half = self.nprocs() / 2;
        (0..self.npages)
            .filter(|&pg| {
                self.dir[pg].touched
                    && self
                        .procs
                        .iter()
                        .filter(|pc| pc.pages[pg].mode() == PageMode::Sw)
                        .count()
                        > half
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(npages: usize) -> World {
        World::new(ProtocolKind::Wfs, 4, npages, RunOptions::default())
    }

    /// The diff of `cur` against `twin`, encoded into `arena`.
    fn slot(arena: &mut DiffArena, twin: &[u8], cur: &[u8]) -> DiffSlot {
        arena.encode_span(twin, cur, 0, adsm_mempage::PAGE_SIZE)
    }

    #[test]
    fn fresh_world_has_proc0_owner_everywhere() {
        let w = world(3);
        assert_eq!(w.dir.pages.len(), 3);
        for pg in &w.dir.pages {
            assert_eq!(pg.owner, Some(ProcId::new(0)));
            assert_eq!(pg.version, 0);
            assert!(!pg.touched);
        }
        assert_eq!(w.touched_pages(), 0);
    }

    #[test]
    fn directory_keeps_diffs_per_creator() {
        let mut w = world(9);
        let q = ProcId::new(1);
        let twin = vec![0u8; adsm_mempage::PAGE_SIZE];
        let id = IntervalId::new(q, 1);
        for pg in [2usize, 6, 5] {
            let mut c = twin.clone();
            c[pg] = 1;
            let diff = slot(&mut w.dir.arena, &twin, &c);
            w.dir.diffs[q.index()].insert(PageId::new(pg), id, diff);
        }
        let store = &w.dir.diffs[q.index()];
        for pg in [2, 6, 5] {
            assert!(store.get(PageId::new(pg), id).is_some());
        }
        assert!(store.get(PageId::new(3), id).is_none());
        assert!(!w.dir.diffs[0].has_page(PageId::new(2)));
        let mut pages: Vec<usize> = store.pages().map(|p| p.index()).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![2, 5, 6]);
        let total = store.bytes;
        assert!(total > 0);
        // Mutating one page's entry leaves the others addressable.
        w.dir[6].touched = true;
        assert!(w.dir[6].touched && !w.dir[2].touched);
        let (n, b) = w.dir.diffs[q.index()].clear();
        assert_eq!((n, b), (3, total));
        assert_eq!(w.dir.diffs[q.index()].bytes, 0);
        assert_eq!(w.dir.diffs[q.index()].pages().next(), None);
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
        let (mut store, mut arena) = (DiffStore::default(), DiffArena::default());
        let twin = vec![0u8; adsm_mempage::PAGE_SIZE];
        let mut cur = twin.clone();
        cur[0] = 1;
        let diff = slot(&mut arena, &twin, &cur);
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
    #[should_panic(expected = "writer P1 made a second diff of pg3 for interval P1:2")]
    fn diff_store_refuses_a_second_diff_for_one_interval() {
        let (mut store, mut arena) = (DiffStore::default(), DiffArena::default());
        let twin = vec![0u8; adsm_mempage::PAGE_SIZE];
        let mut cur = twin.clone();
        cur[0] = 1;
        let page = PageId::new(3);
        let id = IntervalId::new(ProcId::new(1), 2);
        store.insert(page, id, slot(&mut arena, &twin, &cur));
        store.insert(page, id, slot(&mut arena, &twin, &cur));
    }

    #[test]
    fn diff_store_fetch_is_a_slot_into_the_arena() {
        let (mut store, mut arena) = (DiffStore::default(), DiffArena::default());
        let twin = vec![0u8; adsm_mempage::PAGE_SIZE];
        let mut cur = twin.clone();
        cur[8] = 3;
        let page = PageId::new(2);
        let i1 = IntervalId::new(ProcId::new(1), 1);
        let i2 = IntervalId::new(ProcId::new(1), 2);
        store.insert(page, i2, slot(&mut arena, &twin, &cur));
        store.insert(page, i1, slot(&mut arena, &twin, &twin.clone()));
        // The slot sizes the diff without the arena, and applies from it.
        let s2 = store.get(page, i2).expect("stored");
        assert_eq!(s2.modified_bytes(), 4);
        let mut merged = twin.clone();
        arena.apply(s2, &mut merged);
        assert_eq!(merged, cur);
        // Interval-sorted within the page: both retrievable.
        assert!(store.get(page, i1).expect("stored").is_empty());
    }

    #[test]
    fn home_resolution_follows_policy_and_memoises() {
        use crate::HomePolicy;
        let page = PageId::new(5);
        let faulter = ProcId::new(2);

        let mut w = world(8);
        w.opts.home_policy = HomePolicy::RoundRobin;
        assert_eq!(w.home_of(page, faulter), ProcId::new(5 % 4));

        let mut w = world(8);
        w.opts.home_policy = HomePolicy::FirstTouch;
        assert_eq!(w.home_of(page, faulter), faulter);
        // Memoised: a different faulter does not move the home.
        assert_eq!(w.home_of(page, ProcId::new(0)), faulter);

        let mut w = world(8);
        w.opts.home_policy = HomePolicy::Fixed(7);
        // Fixed homes wrap into the cluster.
        assert_eq!(w.home_of(page, faulter), ProcId::new(7 % 4));
    }

    #[test]
    fn final_sw_pages_counts_touched_pages_only() {
        let mut w = world(2);
        // Nothing touched: no page counts.
        assert_eq!(w.final_sw_pages(), 0);
        w.touch(PageId::new(0));
        // All procs start in SW mode; the untouched page still does not
        // count.
        assert_eq!(w.final_sw_pages(), 1);
        // Two of four procs in MW is not a majority either way: SW needs
        // more than half.
        for p in 0..2 {
            w.procs[p].pages[0].mode = PageMode::Mw;
        }
        assert_eq!(w.final_sw_pages(), 0);
        w.procs[1].pages[0].mode = PageMode::Sw;
        assert_eq!(w.final_sw_pages(), 1);
    }
}
