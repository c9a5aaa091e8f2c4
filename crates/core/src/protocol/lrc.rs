//! Protocol machinery shared by all four protocols: interval management,
//! write-notice propagation, invalidation, and the page-validation /
//! merge procedure of §3.1.1.

use std::sync::Arc;

use adsm_mempage::{AccessRights, PageId, PagedMemory, PAGE_SIZE};
use adsm_netsim::{MsgKind, SimTime, TraceKind};
use adsm_vclock::{IntervalId, ProcId, VectorClock};
use parking_lot::Mutex;

use crate::metrics::ProtocolStats;
use crate::notice::{CloseVc, IntervalRecord, NoticeKind, PendingNotice, WriteNotice};
use crate::protocol::policy::AdaptPolicy;
use crate::world::{Directory, KeyedDiff, PageMode, ProcCtl, World};
use crate::{DsmConfig, ProtocolKind};

/// Everything a protocol operation needs: the world, every processor's
/// memory, and the engine task of the processor whose turn it is.
pub(crate) struct Ctx<'a> {
    pub w: &'a mut World,
    pub mems: &'a [Mutex<PagedMemory>],
    pub task: &'a mut adsm_engine::Task,
}

impl<'a> Ctx<'a> {
    /// Charges virtual time to the current processor.
    pub fn charge(&mut self, dt: SimTime) {
        self.task.advance(dt);
    }

    /// Charges a service interrupt to another processor.
    pub fn interrupt(&mut self, q: ProcId) {
        let dt = self.w.cfg.cost.service_interrupt;
        self.task.bump_clock(q.index(), dt);
    }

    /// Charges arbitrary time to another processor.
    pub fn charge_other(&mut self, q: ProcId, dt: SimTime) {
        self.task.bump_clock(q.index(), dt);
    }

    /// Current virtual time of the acting processor.
    pub fn now(&self) -> SimTime {
        self.task.clock()
    }

    /// Applies virtual-time charges queued where no engine handle was
    /// available (HLRC home-side diff applies during interval close).
    pub fn drain_deferred(&mut self) {
        if self.w.deferred_costs.is_empty() {
            return;
        }
        for (q, dt) in std::mem::take(&mut self.w.deferred_costs) {
            if q == self.task.id() {
                self.task.advance(dt);
            } else {
                self.task.bump_clock(q, dt);
            }
        }
    }
}

/// Payload bytes of small protocol control messages (requests etc.).
pub(crate) const CTRL_BYTES: usize = 16;

/// Encodes the diff of `page` against `twin`, scanning only the page's
/// dirty watermark — the byte window every store since the twin was
/// taken is recorded in
/// ([`PagedMemory::dirty_span`]). Span-guard writes record exactly the
/// stored range, so a span that dirtied 64 bytes of a page costs a
/// 64-byte scan, not a page walk; unchecked protocol-side mutations
/// widen the window to the whole page, keeping the bound conservative.
/// Run-for-run identical to a full [`Diff::encode`] (debug builds
/// assert the outside-window bytes are untouched).
fn encode_dirty_window(mem: &PagedMemory, twin: &[u8], page: PageId) -> adsm_mempage::Diff {
    let mut diff = adsm_mempage::Diff::default();
    let (lo, hi) = mem.dirty_span(page).unwrap_or((0, 0));
    adsm_mempage::Diff::encode_span_into(twin, mem.page(page), lo, hi, &mut diff);
    diff
}

/// Rights a dirty page is re-protected with at interval close. A page
/// whose missing-notice list carries a *foreign* interval was
/// invalidated mid-session — a lock-grant ship landed while the write
/// session was open — and must stay inaccessible so the next touch
/// runs the merge procedure; re-protecting it to `Read` would expose
/// the local copy with the foreign modifications missing (a stale
/// read). Own pending notices do not force a fault: the local copy
/// contains every local write by definition.
fn close_rights(pc: &crate::world::PageCtl, p: ProcId) -> AccessRights {
    if pc.missing.iter().any(|n| n.interval.proc != p) {
        AccessRights::None
    } else {
        AccessRights::Read
    }
}

/// Closes `p`'s open interval if it wrote anything: creates write
/// notices, and — for MW-mode pages — encodes the interval's diffs
/// against their twins and re-protects the pages (eager per-interval
/// diffing; see DESIGN.md for the substitution note). Returns the
/// processing cost, which the caller charges to whichever clock is
/// appropriate (own turn, or a granting processor's clock). `now` is the
/// virtual time used for trace points.
pub(crate) fn close_interval(
    w: &mut World,
    mems: &[Mutex<PagedMemory>],
    p: ProcId,
    now: SimTime,
) -> SimTime {
    if w.procs[p.index()].dirty.is_empty() {
        return SimTime::ZERO;
    }
    let mut cost = SimTime::ZERO;
    let mut dirty = std::mem::take(&mut w.procs[p.index()].dirty);
    dirty.sort_unstable();
    dirty.dedup();

    let seq = w.procs[p.index()].vc.tick(p);
    let id = IntervalId::new(p, seq);

    // The write-notice list is built in a pooled buffer and, below,
    // only becomes a fresh heap allocation when it differs from the
    // previous interval's list.
    let mut writes = std::mem::take(&mut w.notice_build);
    debug_assert!(writes.is_empty());
    let mut trace_diff = false;

    // One hold of `p`'s memory for every page re-protected and encoded
    // below, not one per dirty page. The HLRC arm (every HLRC page is
    // MW-mode) takes its own: it also takes the home's memory
    // (`flush_diff_to_home`), and no two memories are ever held at once.
    let hlrc = w.cfg.protocol == ProtocolKind::Hlrc;
    let mut held = (!hlrc).then(|| mems[p.index()].lock());

    for &page in &dirty {
        let mode = w.procs[p.index()].pages[page.index()].mode;
        match mode {
            PageMode::Sw => {
                // Owner write notice with the page's current version.
                let version = w.dir[page.index()].version;
                debug_assert_eq!(
                    w.dir[page.index()].owner,
                    Some(p),
                    "SW-dirty page {page} not owned by {p}"
                );
                writes.push(WriteNotice {
                    page,
                    kind: NoticeKind::Owner(version),
                });
                // Re-protect for write detection in the next interval.
                let rights = close_rights(&w.procs[p.index()].pages[page.index()], p);
                let mem = held.as_mut().expect("held outside HLRC");
                mem.set_rights(page, rights);
                w.procs[p.index()].pages[page.index()].dirty = false;

                // A refused requester or a concurrent writer was seen:
                // emit the final owner notice, then drop ownership and
                // fall to MW mode (§3.1.1: the owner cannot drop at
                // request time because it has no twin).
                if w.dir[page.index()].drop_pending {
                    w.dir[page.index()].drop_pending = false;
                    w.dir[page.index()].owner = None;
                    let pc = &mut w.procs[p.index()].pages[page.index()];
                    if pc.mode != PageMode::Mw {
                        pc.mode = PageMode::Mw;
                        w.proto.switches_to_mw += 1;
                    }
                }
            }
            PageMode::Mw if hlrc => {
                // HLRC: diffs are flushed to the home and never stored;
                // the home itself wrote in place (no twin, nothing to
                // flush). Both cases re-protect for the next interval.
                let twin = w.procs[p.index()].pages[page.index()].twin.take();
                let rights = close_rights(&w.procs[p.index()].pages[page.index()], p);
                mems[p.index()].lock().set_rights(page, rights);
                w.procs[p.index()].pages[page.index()].dirty = false;
                if let Some(twin) = twin {
                    let diff = {
                        let mem = mems[p.index()].lock();
                        encode_dirty_window(&mem, &twin, page)
                    };
                    w.proto.twin_dropped(PAGE_SIZE);
                    let modified = diff.modified_bytes();
                    cost += w.cfg.cost.diff_create(modified);
                    cost += super::hlrc::flush_diff_to_home(w, mems, p, page, &diff, now);
                    w.profiler.note_grain(modified);
                    trace_diff = true;
                    w.dir[page.index()].last_diff_bytes = modified;
                }
                writes.push(WriteNotice {
                    page,
                    kind: NoticeKind::NonOwner,
                });
                // No local pending notice: a home fetch re-installs the
                // whole page, local writes included.
            }
            PageMode::Mw if w.cfg.diff_strategy == crate::DiffStrategy::Lazy => {
                // Lazy (TreadMarks-style) diffing: retain the twin; the
                // diff is encoded at the first request or at the next
                // local write (`materialize_pending`). Never-requested
                // intervals never pay diff creation.
                let twin = w.procs[p.index()].pages[page.index()]
                    .twin
                    .take()
                    .expect("MW-dirty page must have a twin");
                debug_assert!(
                    w.procs[p.index()].pages[page.index()].pending.is_none(),
                    "previous pending diff must be materialised before a new session"
                );
                let rights = close_rights(&w.procs[p.index()].pages[page.index()], p);
                let mem = held.as_mut().expect("held outside HLRC");
                mem.set_rights(page, rights);
                w.procs[p.index()].pages[page.index()].dirty = false;
                w.procs[p.index()].pages[page.index()].pending =
                    Some(crate::world::PendingDiff { interval: id, twin });
                w.procs[p.index()].pending_bytes += PAGE_SIZE as u64;
                // The twin stays alive in the memory accounting — the
                // retained twin *is* lazy diffing's memory cost.
                writes.push(WriteNotice {
                    page,
                    kind: NoticeKind::NonOwner,
                });
                w.procs[p.index()].pages[page.index()]
                    .missing
                    .push(PendingNotice {
                        interval: id,
                        kind: NoticeKind::NonOwner,
                    });
                if w.procs[p.index()].pending_bytes + w.dir.diff_bytes(p)
                    > w.cfg.cost.gc_threshold_bytes as u64
                {
                    w.gc_requested = true;
                }
            }
            PageMode::Mw => {
                // Eager per-interval diffing: encode against the twin,
                // store, refresh protection.
                let twin = w.procs[p.index()].pages[page.index()]
                    .twin
                    .take()
                    .expect("MW-dirty page must have a twin");
                let rights = close_rights(&w.procs[p.index()].pages[page.index()], p);
                let mem = held.as_mut().expect("held outside HLRC");
                let diff = encode_dirty_window(mem, &twin, page);
                mem.set_rights(page, rights);
                w.proto.twin_dropped(PAGE_SIZE);
                w.procs[p.index()].pages[page.index()].dirty = false;

                let modified = diff.modified_bytes();
                cost += w.cfg.cost.diff_create(modified);
                w.proto.diff_created(diff.wire_size());
                w.dir.insert_diff(p, page, id, diff);
                w.profiler.note_grain(modified);
                trace_diff = true;

                w.dir[page.index()].last_diff_bytes = modified;
                // Write-granularity test (§3.2): the policy judges the
                // diff size — under WFS+WG large diffs make the page a
                // candidate for SW mode while small diffs keep it in MW
                // mode; other policies leave the flag untouched.
                let wants = w.dir[page.index()].wants_sw;
                w.dir[page.index()].wants_sw = w.policy.wants_sw_after_close(
                    page.index(),
                    modified,
                    w.cfg.cost.wg_threshold_bytes,
                    wants,
                );

                writes.push(WriteNotice {
                    page,
                    kind: NoticeKind::NonOwner,
                });
                // The writer's own diff notice joins its own pending
                // list so that a later whole-page install re-applies
                // local modifications (the paper's merge procedure keeps
                // local write notices in the list).
                w.procs[p.index()].pages[page.index()]
                    .missing
                    .push(PendingNotice {
                        interval: id,
                        kind: NoticeKind::NonOwner,
                    });
            }
        }

        // Profiler: was this write concurrent with another processor's
        // latest write to the page?
        let vc = &w.procs[p.index()].vc;
        let concurrent = w.profiler.other_writers(page, p).any(|iv| !vc.covers(iv));
        w.profiler.note_write(page, p, id, concurrent);
    }
    drop(held);

    // Steady-state closes allocate no notice list: when the fresh list
    // equals the previous interval's (the common case for iterative
    // applications — the same pages written with the same notice kinds
    // every interval), the previous record's `Arc` is shared instead of
    // re-allocated. `interval_close_allocs` counts the misses and is
    // flat after warm-up (`allocation_free.rs`).
    let writes_arc: Arc<[WriteNotice]> = match w.log.last_record(p) {
        Some(prev) if prev.writes.as_ref() == writes.as_slice() => Arc::clone(&prev.writes),
        _ => {
            w.proto.interval_close_allocs += 1;
            Arc::from(writes.as_slice())
        }
    };
    writes.clear();
    w.notice_build = writes;
    dirty.clear();
    w.procs[p.index()].dirty = dirty;

    // Delta-share the closing clock against the previous close: when no
    // acquire merged a foreign entry since then (cached-lock loops, pure
    // compute phases), the previous record's base `Arc` is reused and
    // only the own (proc, seq) override differs — no clock allocation.
    let close_vc = match w.log.last_record(p) {
        Some(prev) if prev.vc.base_matches(&w.procs[p.index()].vc) => {
            w.proto.close_vc_shares += 1;
            CloseVc::shared(&prev.vc, seq)
        }
        _ => CloseVc::fresh(w.procs[p.index()].vc.clone(), p, seq),
    };

    w.log.push(
        p,
        IntervalRecord {
            id,
            vc: close_vc,
            writes: writes_arc,
        },
    );
    debug_assert_eq!(w.log.closed(p), seq);

    if trace_diff {
        w.trace_event(now, TraceKind::DiffCreate);
    }
    if w.dir.diff_bytes(p) > w.cfg.cost.gc_threshold_bytes as u64 {
        w.gc_requested = true;
    }
    cost
}

/// Lazy diffing: encodes and stores the retained twin's diff for `q`'s
/// pending interval on `page`, if one exists. The base image is the open
/// write session's twin when one exists (the current page then contains
/// the *next* interval's uncommitted writes), otherwise the current
/// page. Returns the diff-creation cost, which the caller charges to
/// `q`'s clock. A no-op under eager diffing.
pub(crate) fn materialize_pending(
    w: &mut World,
    mems: &[Mutex<PagedMemory>],
    q: ProcId,
    page: PageId,
) -> SimTime {
    let pgidx = page.index();
    let Some(pend) = w.procs[q.index()].pages[pgidx].pending.take() else {
        return SimTime::ZERO;
    };
    // Encode straight against the base image — the open session's twin
    // if one exists, else the current page — without copying it.
    let diff = match &w.procs[q.index()].pages[pgidx].twin {
        Some(t) => adsm_mempage::Diff::encode(&pend.twin, t),
        None => {
            let mem = mems[q.index()].lock();
            adsm_mempage::Diff::encode(&pend.twin, mem.page(page))
        }
    };
    w.procs[q.index()].pending_bytes -= PAGE_SIZE as u64;
    w.proto.twin_dropped(PAGE_SIZE);
    let modified = diff.modified_bytes();
    w.profiler.note_grain(modified);
    w.dir[pgidx].last_diff_bytes = modified;
    w.proto.diff_created(diff.wire_size());
    w.dir.insert_diff(q, page, pend.interval, diff);
    if w.dir.diff_bytes(q) > w.cfg.cost.gc_threshold_bytes as u64 {
        w.gc_requested = true;
    }
    w.cfg.cost.diff_create(modified)
}

/// Ships to `p` every interval it has not seen, bounded by the sender's
/// knowledge `src_vc`: appends pending notices, invalidates the affected
/// pages, maintains HVN / page-mode state (on-the-fly notice GC and
/// detection mechanism 2 of §3.1.2), and merges the vector clocks.
/// Returns the payload size of the shipped notices.
///
/// The one delivery rule — *p receives `(vc_p[q], src_vc[q]]` of every
/// writer q, in order* — behind all three ships: a lock grant bounds it
/// by the grantor's clock, a barrier release and a crash recovery by
/// the log's own horizon.
///
/// This is the notice-shipping hot path: the records are read straight
/// out of the shared [`IntervalLog`](crate::world::IntervalLog) — the
/// `World` is split into disjoint field borrows so the log is never
/// copied to satisfy the borrow checker. No write list, clock or batch
/// is cloned per shipped interval.
pub(crate) fn integrate_from(
    w: &mut World,
    mems: &[Mutex<PagedMemory>],
    p: ProcId,
    src_vc: &VectorClock,
) -> usize {
    let nprocs = w.nprocs();
    let mut owner_pages = std::mem::take(&mut w.bscratch.owner_pages);
    let mut bytes = 0usize;
    {
        // Disjoint borrows: the log is read, everything else is written.
        let World {
            log,
            procs,
            dir,
            cfg,
            policy,
            proto,
            ..
        } = w;
        let policy: &dyn AdaptPolicy = &**policy;
        let adaptive = policy.adapts();

        // One lock acquisition for the whole ship: every invalidation
        // the records carry targets `p`'s memory.
        let mut mem = mems[p.index()].lock();
        for q in ProcId::all(nprocs) {
            if q == p {
                continue;
            }
            let from = procs[p.index()].vc.get(q);
            let to = src_vc.get(q);
            for rec in log.range(q, from, to) {
                bytes += rec.wire_size();
                ship_record_to(
                    procs,
                    dir,
                    cfg,
                    policy,
                    proto,
                    &mut mem,
                    p,
                    rec,
                    adaptive,
                    &mut owner_pages,
                );
            }
        }
        drop(mem);

        if adaptive {
            promote_on_owner_notices(procs, dir, policy, proto, p, &mut owner_pages);
        }
        procs[p.index()].vc.merge(src_vc);
    }
    owner_pages.clear();
    w.bscratch.owner_pages = owner_pages;
    bytes
}

/// Applies one shipped interval record to `p`: invalidation, pending
/// notices, HVN bookkeeping, on-the-fly notice GC and the SW→MW
/// demotion observations of §3.1.1.
#[allow(clippy::too_many_arguments)]
fn ship_record_to(
    procs: &mut [ProcCtl],
    dir: &mut Directory,
    cfg: &DsmConfig,
    policy: &dyn AdaptPolicy,
    proto: &mut ProtocolStats,
    mem: &mut PagedMemory,
    p: ProcId,
    rec: &IntervalRecord,
    adaptive: bool,
    owner_pages: &mut Vec<PageId>,
) {
    let interval = rec.id;
    for &WriteNotice { page, kind } in rec.writes.iter() {
        let pg_idx = page.index();
        // The HLRC home's frame already contains every flushed
        // modification, so notices carry no work for it: no
        // invalidation, no pending entry.
        if cfg.protocol == ProtocolKind::Hlrc && dir[pg_idx].home == Some(p) {
            continue;
        }
        // Invalidate the local copy.
        mem.set_rights(page, AccessRights::None);

        match kind {
            NoticeKind::Owner(version) => {
                let pc = &mut procs[p.index()].pages[pg_idx];
                let better = pc.hvn.is_none_or(|h| version > h.version);
                if better {
                    pc.hvn = Some(crate::world::Hvn {
                        version,
                        proc: interval.proc,
                    });
                }
                owner_pages.push(page);
                // On-the-fly notice GC (§3.1.1): discard pending
                // notices dominated by the owner notice — one stable
                // in-place compaction, no index list.
                pc.missing.retain(|n| !rec.vc.covers(n.interval));
                pc.missing.push(PendingNotice { interval, kind });
                if let Some(applied) = procs[p.index()].applied.get_mut(&pg_idx) {
                    applied.retain(|n| !rec.vc.covers(n.interval));
                }
            }
            NoticeKind::NonOwner => {
                let pc = &mut procs[p.index()].pages[pg_idx];
                // New by construction: `p` is shipped each interval once
                // (the delivery rule above; recovery empties the lists
                // before it re-integrates) and a record names each page
                // once (`IntervalLog::push`), so the notice is appended
                // without a search — O(1) however long the list is.
                debug_assert!(
                    !pc.missing.iter().any(|n| n.interval == interval),
                    "{p} was shipped interval {interval}'s notice for {page} twice"
                );
                pc.missing.push(PendingNotice { interval, kind });
                if adaptive {
                    // A non-owner notice is evidence of concurrent
                    // (MW) writing: this processor perceives write
                    // sharing on the page. An owner with an open
                    // (un-twinned) write session cannot flip yet —
                    // it first emits its final owner notice at the
                    // next interval close (§3.1.1), which performs
                    // the flip.
                    let sw_dirty = pc.dirty && pc.twin.is_none();
                    // One decision for both transitions below: the
                    // mode flip and the ownership drop must never
                    // diverge for the same notice.
                    let demote = policy.demote_on_concurrent_notice(pg_idx);
                    if pc.mode != PageMode::Mw && !sw_dirty && demote {
                        pc.mode = PageMode::Mw;
                        proto.switches_to_mw += 1;
                    }
                    // FS onset seen by the page's current owner:
                    // drop ownership — immediately if it has no
                    // uncommitted writes, else at its next close.
                    if dir[pg_idx].owner == Some(p) && demote {
                        if sw_dirty {
                            dir[pg_idx].drop_pending = true;
                        } else {
                            dir[pg_idx].owner = None;
                        }
                    }
                }
            }
        }
    }
}

/// Detection mechanism 2 (§3.1.2), run after a ship: a new owner
/// notice with no surviving concurrent non-owner notices means
/// write-write false sharing has stopped — if the policy agrees the
/// page is worth SW handling (WFS+WG gives priority to the
/// false-sharing test but then decides on diff size: small diffs keep
/// MW). `owner_pages` is the ship's owner-notice pages; left sorted
/// and deduplicated (the caller clears it).
fn promote_on_owner_notices(
    procs: &mut [ProcCtl],
    dir: &mut Directory,
    policy: &dyn AdaptPolicy,
    proto: &mut ProtocolStats,
    p: ProcId,
    owner_pages: &mut Vec<PageId>,
) {
    owner_pages.sort_unstable();
    owner_pages.dedup();
    for &page in owner_pages.iter() {
        let wants = dir[page.index()].wants_sw;
        let pc = &mut procs[p.index()].pages[page.index()];
        let has_concurrent = pc.missing.iter().any(|n| !n.kind.is_owner());
        if !has_concurrent
            && pc.mode == PageMode::Mw
            && policy.promote_to_sw_ok(page.index(), wants)
            && pc.twin.is_none()
        {
            pc.mode = PageMode::Sw;
            proto.switches_to_sw += 1;
        }
    }
}

/// The bytes a processor serves for a page request: its twin if it has an
/// open write session (so uncommitted modifications of the open interval
/// do not leak), otherwise its current copy. The returned buffer is on
/// loan from the world's page pool.
pub(crate) fn serve_page_bytes(
    w: &World,
    mems: &[Mutex<PagedMemory>],
    q: ProcId,
    page: PageId,
) -> adsm_mempage::PageBuf {
    if let Some(twin) = &w.procs[q.index()].pages[page.index()].twin {
        twin.clone()
    } else {
        let mem = mems[q.index()].lock();
        w.pool.get_copy(mem.page(page))
    }
}

/// Sort key yielding a linear extension of happened-before-1 (proved
/// valid for clocks arising from real executions: domination implies a
/// strictly larger component sum). The sum is fixed when the interval
/// closes and carried with its record ([`CloseVc::sum`]), so the key
/// costs a fetching processor the same at 64 processors as at 8.
fn apply_key(w: &World, id: IntervalId) -> (u64, usize, u32) {
    (w.vc_of(id).sum(), id.proc.index(), id.seq)
}

/// Validates `p`'s copy of `page`: the general merge procedure of
/// §3.1.1. Fetches a whole page from the highest-version owner notice if
/// one is pending (or an initial copy if the processor never had one),
/// discards dominated notices, fetches and applies the remaining diffs
/// in happened-before order, and preserves any uncommitted local
/// modifications. Leaves the page readable (writable if an open write
/// session was preserved).
pub(crate) fn validate_page(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    validate_page_after(ctx, p, page, false);
}

/// [`validate_page`], told whether the caller has just put a whole
/// foreign page into `p`'s frame itself (`installed`): the merge then
/// re-applies `p`'s own pending diffs too, as after its own installs.
pub(crate) fn validate_page_after(ctx: &mut Ctx<'_>, p: ProcId, page: PageId, installed: bool) {
    let t0 = ctx.w.cfg.measure_host_costs.then(std::time::Instant::now);
    validate_page_inner(ctx, p, page, installed);
    if let Some(t0) = t0 {
        ctx.w
            .proto
            .validate_wall
            .record(t0.elapsed().as_nanos() as u64);
    }
}

fn validate_page_inner(ctx: &mut Ctx<'_>, p: ProcId, page: PageId, preinstalled: bool) {
    let cost_model = ctx.w.cfg.cost.clone();
    let pidx = p.index();
    let pgidx = page.index();
    // All transient state of the merge — the open session's delta and
    // the working lists — lives in a pooled scratch set: steady
    // state merges perform no heap allocation for it. Recursive
    // validations (a server validating before serving) draw their own
    // scratch, so the pool depth equals the recursion depth.
    let mut scratch = ctx.w.take_scratch();

    // Preserve uncommitted local writes: delta of the open session,
    // encoded into the scratch diff's reused buffers.
    let has_delta = {
        let pc = &ctx.w.procs[pidx].pages[pgidx];
        match pc.twin.as_ref() {
            Some(twin) => {
                // Same dirty-window bound as the close-time encode: the
                // open session's delta can only live inside the bytes
                // written since the twin was taken.
                let mem = ctx.mems[pidx].lock();
                let (lo, hi) = mem.dirty_span(page).unwrap_or((0, 0));
                adsm_mempage::Diff::encode_span_into(
                    twin,
                    mem.page(page),
                    lo,
                    hi,
                    &mut scratch.delta,
                );
                true
            }
            None => false,
        }
    };

    scratch
        .notices
        .extend_from_slice(&ctx.w.procs[pidx].pages[pgidx].missing);

    // Lazy diffing: foreign modifications are about to reach this copy,
    // so the locally retained twin must be encoded first — afterwards its
    // diff would claim the foreign words as local writes. Eager diffing
    // retains no twin, so there is nothing to encode, here or below.
    let lazy = ctx.w.cfg.diff_strategy == crate::DiffStrategy::Lazy;
    if lazy && !scratch.notices.is_empty() {
        let mcost = materialize_pending(ctx.w, ctx.mems, p, page);
        ctx.charge(mcost);
    }

    // 1. Whole-page install: from the highest-version pending owner
    //    notice, or an initial copy if we never had one.
    let owner_pending = scratch
        .notices
        .iter()
        .filter(|n| n.kind.is_owner())
        .max_by_key(|n| (n.kind.version().unwrap_or(0), n.interval.proc.index()))
        .copied();

    let mut base_vc: Option<CloseVc> = None;
    let mut installed = preinstalled;
    if let Some(on) = owner_pending {
        let q = on.interval.proc;
        fetch_page_from(ctx, p, q, page);
        base_vc = Some(ctx.w.interval(on.interval).vc.clone());
        installed = true;
    } else if !ctx.w.procs[pidx].pages[pgidx].has_copy {
        let source = initial_source(ctx.w, p, page);
        if source != p {
            fetch_page_from(ctx, p, source, page);
            installed = true;
        }
    }

    // The copy the earlier merges went into is gone: whatever they
    // applied that the new copy does not provably contain (step 2) is
    // merged again.
    if installed {
        if let Some(applied) = ctx.w.procs[pidx].applied.remove(&pgidx) {
            scratch.notices.extend(applied);
        }
    }

    // 2. Domination deletion: anything the installed copy provably
    //    contains. Additionally, when no whole page was installed, the
    //    local copy by definition contains every local write — applying
    //    one of our *own* old diffs would regress words we have since
    //    rewritten (committed or still in the open session). Own diffs
    //    are only re-applied over a freshly installed foreign copy.
    scratch.notices.retain(|n| {
        let dominated = match &base_vc {
            Some(vc) => vc.covers(n.interval),
            None => false,
        };
        !dominated && (installed || n.interval.proc != p)
    });
    debug_assert!(
        scratch.notices.iter().all(|n| !n.kind.is_owner()),
        "owner notices must be dominated by the freshest owner copy"
    );

    // 3. Fetch the remaining diffs, grouped per writer: the surviving
    //    notice list is sorted by writer, so one materialise + request
    //    round covers all of that writer's intervals as a contiguous
    //    run. The order inside a run does not matter — step 4 re-sorts
    //    the fetched diffs by their unique happened-before key — so the
    //    sort is unstable and allocates nothing. Requests are issued in
    //    parallel (elapsed time = slowest writer, messages counted per
    //    writer). Every fetched diff is a shared handle into the
    //    writer's per-page store — a refcount bump, never a deep copy.
    scratch
        .notices
        .sort_unstable_by_key(|n| n.interval.proc.index());
    let my_mode_sw = ctx.w.procs[pidx].pages[pgidx].mode == PageMode::Sw;
    let mut remote_writers = 0u64;
    let mut total_reply_bytes = 0usize;
    let mut chaos_extra = SimTime::ZERO;
    let mut ni = 0usize;
    while ni < scratch.notices.len() {
        let q = scratch.notices[ni].interval.proc;
        // Lazy diffing: the writer encodes its retained twin on demand —
        // once, ahead of the whole run of its intervals.
        if lazy {
            let mcost = materialize_pending(ctx.w, ctx.mems, q, page);
            if mcost > SimTime::ZERO {
                if q == p {
                    ctx.charge(mcost);
                } else {
                    ctx.charge_other(q, mcost);
                }
            }
        }
        let mut reply_bytes = 0usize;
        while ni < scratch.notices.len() && scratch.notices[ni].interval.proc == q {
            let n = scratch.notices[ni];
            ni += 1;
            // Every surviving pending notice has a stored diff at its
            // writer. Skipping one would leave the page silently stale,
            // so a violation fails the run (`RunError::AppPanic`), in
            // every build.
            let Some(diff) = ctx.w.dir.diff(q, page, n.interval) else {
                panic!(
                    "protocol invariant violated: {p} validating {page} found no diff \
                     for interval {} at its writer {q}",
                    n.interval
                );
            };
            let diff = Arc::clone(diff);
            ctx.w.proto.diffs_fetched += 1;
            reply_bytes += diff.wire_size();
            scratch.to_apply.push(KeyedDiff {
                key: apply_key(ctx.w, n.interval),
                diff,
            });
        }
        if q != p {
            let send_at = ctx.now();
            let c_req = ctx.w.msg(MsgKind::DiffRequest, CTRL_BYTES, p, q, send_at);
            let c_rep = ctx
                .w
                .msg(MsgKind::DiffReply, reply_bytes, q, p, send_at + c_req);
            // The requests travel in parallel, so chaos delays overlap:
            // only the slowest pair's excess over its clean round trip
            // lands on the requester (charged with the batch below).
            let clean = ctx.w.cfg.cost.msg_cost(CTRL_BYTES) + ctx.w.cfg.cost.msg_cost(reply_bytes);
            chaos_extra = chaos_extra.max((c_req + c_rep).saturating_since(clean));
            remote_writers += 1;
            total_reply_bytes += reply_bytes;
            ctx.interrupt(q);
            // Mechanism 1 (§3.1.2): diff requests piggyback the
            // requester's perception of the page.
            if ctx.w.policy.adapts() {
                ctx.w.dir[pgidx].reports_sw[pidx] = my_mode_sw;
                mechanism1_consensus(ctx.w, page);
            }
        }
    }
    if remote_writers > 0 {
        // Requests go out in parallel (one round-trip of fixed latency),
        // but the replies serialise on the requester's link: the byte
        // time is the *sum* over writers. This is what makes diff
        // accumulation expensive (§3.2), exactly as the paper argues.
        let fixed = cost_model.msg_fixed + cost_model.service_interrupt + cost_model.msg_fixed;
        let bytes = (total_reply_bytes
            + remote_writers as usize * (CTRL_BYTES + 2 * adsm_netsim::MSG_HEADER_BYTES))
            as u64;
        ctx.charge(fixed + SimTime::from_ns(cost_model.per_byte_ns * bytes) + chaos_extra);
    }

    // 4. Apply in a linear extension of happened-before-1, one diff
    //    after another: where two modify a word, the later one's value
    //    stays. The keys were computed at fetch time, so the sort
    //    compares plain tuples, and the fetched handles are read in
    //    place (no reference list is materialised).
    scratch.to_apply.sort_unstable_by_key(|kd| kd.key);
    let mut apply_cost = SimTime::ZERO;
    {
        let mut mem = ctx.mems[pidx].lock();
        if !scratch.to_apply.is_empty() {
            adsm_mempage::Diff::apply_many(&scratch.to_apply, mem.page_mut(page));
        }
        for kd in &scratch.to_apply {
            apply_cost += cost_model.diff_apply(kd.diff.modified_bytes());
            ctx.w.proto.diffs_applied += 1;
        }
        // Bring an open write session through the merge. Two cases:
        //
        // * A whole page was installed: the local uncommitted writes were
        //   overwritten; the merged page is the new twin and the saved
        //   delta is re-applied on top.
        // * No install: the local copy still contains the uncommitted
        //   writes, so the merged page must NOT become the twin (the
        //   session's writes would be baked into it and silently vanish
        //   from the next diff). Instead the *old* twin is brought
        //   forward by applying the same diffs to it.
        if has_delta {
            if installed {
                let base = ctx.w.pool.get_copy(mem.page(page));
                scratch.delta.apply(mem.page_mut(page));
                ctx.w.procs[pidx].pages[pgidx].twin = Some(base);
            } else {
                let mut twin = ctx.w.procs[pidx].pages[pgidx]
                    .twin
                    .take()
                    .expect("delta implies twin");
                if !scratch.to_apply.is_empty() {
                    adsm_mempage::Diff::apply_many(&scratch.to_apply, &mut twin);
                }
                ctx.w.procs[pidx].pages[pgidx].twin = Some(twin);
            }
        }
        let rights = if ctx.w.procs[pidx].pages[pgidx].twin.is_some() {
            AccessRights::Write
        } else {
            AccessRights::Read
        };
        mem.set_rights(page, rights);
    }
    ctx.charge(apply_cost);

    let track_applied = ctx.w.policy.adapts();
    let ProcCtl { pages, applied, .. } = &mut ctx.w.procs[pidx];
    let pc = &mut pages[pgidx];
    if track_applied {
        // Own closed diffs that were not re-applied (no install): the
        // local copy has had them all along.
        let own = pc
            .missing
            .iter()
            .filter(|n| !installed && n.interval.proc == p);
        let mut merged = own.chain(&scratch.notices).peekable();
        if merged.peek().is_some() {
            applied.entry(pgidx).or_default().extend(merged);
        }
    }
    pc.missing.clear();
    pc.has_copy = true;
    ctx.w.dir[pgidx].copyset[pidx] = true;
    ctx.w.put_scratch(scratch);
}

/// Fetches a whole page from `q` into `p`'s memory (request + reply
/// messages, WFS+WG read-sharing probe hook).
pub(crate) fn fetch_page_from(ctx: &mut Ctx<'_>, p: ProcId, q: ProcId, page: PageId) {
    debug_assert_ne!(p, q);
    // The server brings its copy up to date before serving, exactly as
    // the real implementation's page-request handler does. Without this,
    // the requester's domination deletion (which trusts the served copy
    // to reflect the server's knowledge) can drop notices whose
    // modifications the served bytes do not actually contain.
    if !ctx.w.procs[q.index()].pages[page.index()]
        .missing
        .is_empty()
    {
        validate_page(ctx, q, page);
    }
    let bytes = serve_page_bytes(ctx.w, ctx.mems, q, page);
    let send_at = ctx.now();
    let c_req = ctx.w.msg(MsgKind::PageRequest, CTRL_BYTES, p, q, send_at);
    let c_rep = ctx
        .w
        .msg(MsgKind::PageReply, PAGE_SIZE, q, p, send_at + c_req);
    let cost = c_req + ctx.w.cfg.cost.service_interrupt + c_rep;
    ctx.charge(cost);
    ctx.interrupt(q);
    ctx.mems[p.index()].lock().install_page(page, &bytes);
    ctx.w.proto.pages_transferred += 1;
    // First fetch of a page the crashed incarnation held: the page
    // content is being recovered.
    let pc = &mut ctx.w.procs[p.index()].pages[page.index()];
    if pc.refetch_pending {
        pc.refetch_pending = false;
        ctx.w.proto.recovery_refetches += 1;
    }

    // Read-sharing probe (WFS+WG, §3.3): a page becomes read-write
    // shared as soon as another processor fetches it from its writing
    // owner — policies measuring write granularity switch it to MW mode
    // (via a deferred ownership drop) so the granularity gets measured.
    if ctx.w.policy.demote_owner_on_read_copy(page.index())
        && ctx.w.dir[page.index()].owner == Some(q)
        && ctx.w.profiler.other_writers(page, p).any(|iv| iv.proc == q)
    {
        ctx.w.dir[page.index()].drop_pending = true;
    }
}

/// Source for a processor's first-ever copy of a page: the authoritative
/// owner if it has a copy, otherwise the lowest-id processor holding one,
/// otherwise the initial owner (whose zero-filled image is the initial
/// page content).
pub(crate) fn initial_source(w: &World, p: ProcId, page: PageId) -> ProcId {
    let pg = &w.dir[page.index()];
    if let Some(owner) = pg.owner {
        if owner == p {
            return p;
        }
        // The owner only serves if it actually holds a copy (after a
        // garbage collection it may have been dropped under pure MW).
        if w.procs[owner.index()].pages[page.index()].has_copy {
            return owner;
        }
    }
    for q in ProcId::all(w.nprocs()) {
        if q != p && w.procs[q.index()].pages[page.index()].has_copy {
            return q;
        }
    }
    ProcId::new(0)
}

/// Mechanism 1 (§3.1.2): if every processor in the approximate copyset
/// reports that it perceives the page as SW, ownership requests resume —
/// copyset members' beliefs flip back to SW so their next write fault
/// asks the last perceived owner for ownership.
pub(crate) fn mechanism1_consensus(w: &mut World, page: PageId) {
    let pgidx = page.index();
    let all_sw = w.dir[pgidx]
        .copyset
        .iter()
        .zip(&w.dir[pgidx].reports_sw)
        .all(|(&in_set, &sw)| !in_set || sw);
    if !all_sw {
        return;
    }
    if !w.policy.promote_to_sw_ok(pgidx, w.dir[pgidx].wants_sw) {
        return;
    }
    for q in 0..w.nprocs() {
        if !w.dir[pgidx].copyset[q] {
            continue;
        }
        let pc = &mut w.procs[q].pages[pgidx];
        if pc.mode == PageMode::Mw && pc.twin.is_none() {
            pc.mode = PageMode::Sw;
            w.proto.switches_to_sw += 1;
        }
    }
}
