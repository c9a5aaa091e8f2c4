//! Crash recovery and HLRC home failover.
//!
//! The fault model (see DESIGN.md, "Crash recovery and home
//! replication"): the interval log, the directory — including its
//! per-creator diff stores — and, under HLRC home replication
//! ([`DsmConfig::hlrc_backup`](crate::DsmConfig::hlrc_backup)), the
//! backup copy of every home frame model **replicated stable storage**
//! (SC-ABD style). A [`FaultKind::ProcCrash`](adsm_netsim::FaultKind)
//! kills one processor's *incarnation*: everything it cached — page
//! access rights, protocol metadata, pending notice lists, its vector
//! clock — is lost; everything committed to the replicated stores
//! survives. A crash takes effect at the victim's first
//! **durable-commit point** — a barrier arrival or a lock release,
//! whichever it reaches first — at or after the scheduled instant,
//! *after* the arriving interval was closed into the log, so the crash
//! never tears a half-committed interval. (Lock release matters for
//! locks-only programs like TSP, which never arrive at a barrier.)
//!
//! The commit also checkpoints a **coherent** image: write notices the
//! incarnation knew about but had not yet applied are pulled from the
//! replicated diff stores into the frame first, so the checkpointed
//! bytes cover exactly what the clock covers. The clock itself is
//! durable — interval records carry their close clock, so the arriving
//! interval's record holds it.
//!
//! Recovery re-integrates the replicated log from that horizon: the
//! restarted incarnation (epoch bumped — the delivery layer's
//! Hermes-style fence discards in-flight messages addressed to the
//! dead epoch) reads its clock back from its last record and replays
//! every interval record closed past it ([`lrc::integrate_from`]
//! against the global clock), which rebuilds pending-notice lists,
//! highest-version owner notices and page-mode beliefs it never saw.
//! Nothing older is replayed: the coherent checkpoint already contains
//! every modification the clock covers, and diffs behind that horizon
//! may be garbage-collected.
//! Page *content* is refetched on demand: every page the incarnation
//! held is marked [`refetch_pending`](crate::world::PageCtl) and the
//! first post-crash fetch counts one
//! [`ProtocolStats::recovery_refetches`](crate::ProtocolStats).
//!
//! [`FaultKind::HomeFailover`](adsm_netsim::FaultKind) decommissions one
//! HLRC home at a barrier completion or lock release: every page homed
//! there is promoted to its replicated backup `(home + 1) % nprocs` —
//! whose store the flush stream kept bit-identical to the home's
//! committed frame — and readers are redirected through the directory.

use adsm_mempage::{AccessRights, PageId, PAGE_SIZE};
use adsm_netsim::{MsgKind, SimTime};
use adsm_vclock::{ProcId, VectorClock};

use super::lrc::{self, Ctx, CTRL_BYTES};
use crate::world::PageMode;
use crate::ProtocolKind;

/// Index of the unfired crash event that `p`'s commit point (barrier
/// arrival or lock release) at `now` must apply, if any. Events fire in
/// schedule order, one per commit.
pub(crate) fn pending_crash(w: &crate::world::World, p: ProcId, now: SimTime) -> Option<usize> {
    w.crashes
        .iter()
        .position(|c| !c.fired && c.proc == p && c.at <= now)
}

/// Index of the unfired failover event a commit point (barrier
/// completion or lock release) at `now` must apply, if any.
pub(crate) fn pending_failover(w: &crate::world::World, now: SimTime) -> Option<usize> {
    w.failovers.iter().position(|f| !f.fired && f.at <= now)
}

/// Applies crash event `k` to `p` at its durable-commit point (barrier
/// arrival or lock release): durable-commit the deferred state, wipe
/// the incarnation, sit out the down window, and rebuild the view from
/// the replicated interval log.
pub(crate) fn crash_at_commit(ctx: &mut Ctx<'_>, p: ProcId, k: usize) {
    let t_crash = ctx.now();
    let restart = ctx.w.crashes[k].restart;
    let pidx = p.index();
    let npages = ctx.w.cfg.npages;

    // 1. Durable commit. The arriving interval is already in the log
    // (the caller closed it first); what remains deferred is lazy
    // diffing's parked encodes: a TreadMarks-style pending twin's diff
    // must reach the replicated store before the twin dies with the
    // incarnation.
    for pg in 0..npages {
        if ctx.w.procs[pidx].pages[pg].pending.is_some() {
            let mcost = lrc::materialize_pending(ctx.w, ctx.mems, p, PageId::new(pg));
            ctx.charge(mcost);
        }
    }
    // The checkpointed image is the *coherent* view at the commit
    // horizon: every write notice the incarnation has been told about
    // (its clock covers it) but not yet applied is pulled from the
    // replicated diff stores into the frame before it is checkpointed.
    // This pins frame knowledge to the clock, which also restores the
    // owner-fetch invariant on restart: the rebuilt missing lists only
    // ever name intervals *newer* than the victim's own clock, so a
    // post-crash page fetch can never chase a stale owner notice back
    // into a requester that is itself mid-merge (the mutual-recursion
    // cycle that would otherwise never terminate).
    let hlrc = ctx.w.cfg.protocol == ProtocolKind::Hlrc;
    for pg in 0..npages {
        let page = PageId::new(pg);
        if !ctx.w.procs[pidx].pages[pg].missing.is_empty() {
            if hlrc {
                // HLRC stores no diffs — the home's frame is the merge.
                super::hlrc::fetch_from_home(ctx, p, page);
            } else {
                lrc::validate_page(ctx, p, page);
            }
        }
    }
    ctx.drain_deferred();

    // 2. Wipe the incarnation's cached state. Frame bytes survive in
    // the simulator — they stand in for the page images the barrier
    // commit checkpointed to the replicated store — but every access
    // right is dropped, so each first post-restart touch faults into
    // the merge procedure, and each first real fetch is counted as a
    // recovery refetch. Mode beliefs reset to the protocol's initial
    // mode; post-restart consensus traffic re-derives any demotions
    // and promotions, exactly as it would for a late-joining sharer.
    let initial_mode = match ctx.w.cfg.protocol {
        ProtocolKind::Mw | ProtocolKind::Hlrc => PageMode::Mw,
        _ => PageMode::Sw,
    };
    ctx.w.procs[pidx].applied.clear();
    for pg in 0..npages {
        let page = PageId::new(pg);
        ctx.mems[pidx].lock().set_rights(page, AccessRights::None);
        let starts_mw = initial_mode == PageMode::Sw && ctx.w.policy.page_starts_mw(pg);
        let pc = &mut ctx.w.procs[pidx].pages[pg];
        debug_assert!(pc.twin.is_none(), "no open write session at a commit point");
        debug_assert!(pc.pending.is_none());
        if pc.has_copy {
            pc.refetch_pending = true;
        }
        pc.has_copy = false;
        pc.missing.clear();
        pc.hvn = None;
        pc.mode = if starts_mw {
            PageMode::Mw
        } else {
            initial_mode
        };
        // Defensive in release builds: a leaked twin would double-count
        // in the memory accounting once dropped.
        if pc.twin.take().is_some() {
            ctx.w.proto.twin_dropped(PAGE_SIZE);
        }
    }
    // The clock itself survives the crash: the arriving interval was
    // closed into the replicated log *before* this hook fired, and
    // interval records carry their close clock — so the restarted
    // incarnation reads its pre-crash clock straight back out of its
    // own last record. Everything the clock covers is in the coherent
    // checkpoint assembled above (and its diffs may since be
    // garbage-collected, so nothing older could be re-shipped anyway);
    // everything after it is exactly what the re-integration below
    // replays.
    ctx.w.epochs[pidx] += 1;
    ctx.w.proto.proc_crashes += 1;

    // 3. Sit out the down window. The engine task itself survives (the
    // restarted incarnation resumes the barrier-structured program at
    // the same arrival); virtual time models the outage.
    ctx.task.advance_to(restart);

    // 4. Rebuild the view from the replicated log: re-integrate every
    // record closed past the surviving clock, against the global clock
    // (entry q = q's closed count — no processor ever knows more of
    // q's intervals than q).
    // This is the same `integrate_from` every lock grant and barrier
    // release uses. The log transfer itself is charged as one control
    // round trip to the lowest-id live peer.
    let nprocs = ctx.w.nprocs();
    let mut global = VectorClock::new(nprocs);
    for q in ProcId::all(nprocs) {
        global.set(q, ctx.w.log.closed(q));
    }
    let bytes = lrc::integrate_from(ctx.w, ctx.mems, p, &global);
    let peer = ProcId::all(nprocs)
        .find(|&q| q != p && !ctx.w.crashes.iter().any(|c| !c.fired && c.proc == q))
        .unwrap_or(p);
    if peer != p {
        let now = ctx.now();
        let c_req = ctx.w.msg(MsgKind::GcControl, CTRL_BYTES, p, peer, now);
        let c_rep = ctx
            .w
            .msg(MsgKind::GcControl, CTRL_BYTES + bytes, peer, p, now + c_req);
        let cost = c_req + ctx.w.cfg.cost.service_interrupt + c_rep;
        ctx.charge(cost);
        ctx.interrupt(peer);
    }

    ctx.w.crashes[k].fired = true;
    let t_end = ctx.now();
    ctx.w.proto.recovery_ns += t_end.saturating_since(t_crash).as_ns();
}

/// Applies failover event `k` at a commit point (barrier completion or
/// lock release): promote every page homed at the failed node to its
/// replicated backup and redirect
/// readers through the directory. A no-op (but still consumed) outside
/// HLRC-with-backup — [`Dsm::run`](crate::Dsm::run) rejects the
/// configurations where that would silently lose the fault.
pub(crate) fn failover_at_commit(ctx: &mut Ctx<'_>, p: ProcId, k: usize) {
    ctx.w.failovers[k].fired = true;
    if ctx.w.cfg.protocol != ProtocolKind::Hlrc || !ctx.w.cfg.hlrc_backup {
        return;
    }
    let failed = ctx.w.failovers[k].home;
    let nprocs = ctx.w.nprocs();
    let backup = ProcId::new((failed.index() + 1) % nprocs);
    let now = ctx.now();

    let mut promoted = 0u64;
    for pg in 0..ctx.w.cfg.npages {
        if ctx.w.dir[pg].home != Some(failed) {
            continue;
        }
        let page = PageId::new(pg);
        // Install the replicated copy as the new home frame. A page
        // with no backup entry was never flushed, hence never written:
        // every frame (the backup's included) still holds the initial
        // zeros and there is nothing to move.
        if let Some(buf) = ctx.w.backup_store.get(pg).and_then(|b| b.as_ref()) {
            // At a release-time failover the failed home may have an
            // open write session on the page; its twin is the committed
            // state the backup mirrors (the session's own diff reaches
            // the *new* home when the interval closes).
            #[cfg(debug_assertions)]
            {
                let mem = ctx.mems[failed.index()].lock();
                let committed: &[u8] = match ctx.w.procs[failed.index()].pages[pg].twin.as_ref() {
                    Some(twin) => twin.as_ref(),
                    None => mem.page(page),
                };
                assert_eq!(
                    buf.as_ref(),
                    committed,
                    "backup store diverged from the home frame for {page}"
                );
            }
            let bytes = ctx.w.pool.get_copy(buf);
            let mut mem = ctx.mems[backup.index()].lock();
            mem.install_page(page, &bytes);
            mem.set_rights(page, AccessRights::Read);
        } else {
            ctx.mems[backup.index()]
                .lock()
                .set_rights(page, AccessRights::Read);
        }
        let pc = &mut ctx.w.procs[backup.index()].pages[pg];
        pc.has_copy = true;
        pc.missing.clear();
        ctx.w.dir[pg].home = Some(backup);
        ctx.w.dir[pg].copyset[backup.index()] = true;
        promoted += 1;
    }
    // Homes resolved lazily from now on also avoid the failed node.
    ctx.w.failed_homes[failed.index()] = true;
    ctx.w.proto.failover_promotions += promoted;

    // Redirect broadcast: the barrier manager tells every node the new
    // home map, one control message each, serviced on receipt.
    let manager = ProcId::new(0);
    for q in ProcId::all(nprocs) {
        if q == manager {
            continue;
        }
        let c = ctx.w.msg(MsgKind::GcControl, CTRL_BYTES, manager, q, now);
        if q == p {
            ctx.charge(c + ctx.w.cfg.cost.service_interrupt);
        } else {
            ctx.charge_other(q, c + ctx.w.cfg.cost.service_interrupt);
        }
    }
}
