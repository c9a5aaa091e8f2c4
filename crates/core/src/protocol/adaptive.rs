//! The adaptive protocols WFS and WFS+WG (§3): per-page dynamic choice
//! between single-writer and multiple-writer handling.
//!
//! The centrepiece is the **ownership refusal protocol** (§3.1.1): a
//! write-faulting processor in SW mode sends an ownership request to the
//! *last perceived owner* — the processor named in the owner write notice
//! with the highest version number it has received — quoting that version
//! number. If the target is no longer the owner, or the version has
//! moved on, write-write false sharing has occurred: the request is
//! refused and the requester switches the page to MW mode. Requests are
//! never forwarded; the exchange is always two messages, and a write
//! fault on an invalid page piggybacks the page request on the ownership
//! request.
//!
//! WFS+WG additionally refuses ownership while a page's write granularity
//! is unmeasured or small, keeping such pages in MW mode (§3.2, §3.3).

use adsm_mempage::{AccessRights, PageId, PAGE_SIZE};
use adsm_netsim::{MsgKind, SimTime, TraceKind};
use adsm_vclock::ProcId;

use super::lrc::{self, Ctx, CTRL_BYTES};
use super::{mw, sw};
use crate::world::{Hvn, PageMode};

/// Adaptive write fault: dispatch on the page's local mode.
pub(crate) fn write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    match ctx.w.procs[p.index()].pages[page.index()].mode {
        PageMode::Mw => mw::write_fault(ctx, p, page),
        PageMode::Sw => sw_mode_write_fault(ctx, p, page),
    }
}

/// Adaptive read fault: normally the §3.1.1 merge procedure; with the
/// migratory optimisation enabled (§7 future work, after Cox & Fowler),
/// a page with an established migratory pattern transfers ownership on
/// the read miss itself — the page request doubles as the ownership
/// request, and the subsequent write is a free local fault.
pub(crate) fn read_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pgidx = page.index();
    if migratory_grant_eligible(ctx, p, page) {
        migrate_on_read(ctx, p, page);
    } else {
        lrc::validate_page(ctx, p, page);
    }
    ctx.w.dir[pgidx].last_read_faulter = Some(p);
}

/// A migratory read-grant applies when the policy judges the pattern
/// established (enabled + score, see `AdaptPolicy::migratory_grant_ok`),
/// the requester's perceived owner matches the authoritative directory
/// (otherwise the exchange would be refused), and both sides handle the
/// page in SW mode.
fn migratory_grant_eligible(ctx: &Ctx<'_>, p: ProcId, page: PageId) -> bool {
    let pg = &ctx.w.dir[page.index()];
    let pc = &ctx.w.procs[p.index()].pages[page.index()];
    if !ctx
        .w
        .policy
        .migratory_grant_ok(ctx.w.cfg.migratory_opt, pg.migratory_score)
        || pc.mode != PageMode::Sw
        || pg.drop_pending
    {
        return false;
    }
    match (pg.owner, pc.hvn) {
        (Some(q), Some(Hvn { version, proc })) => q != p && proc == q && version == pg.version,
        _ => false,
    }
}

/// Transfers ownership during the page fetch: same two messages as a
/// plain SW read miss, but the reply carries ownership, so the write
/// that follows (this is what "migratory" means) needs no messages.
fn migrate_on_read(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pgidx = page.index();
    let q = ctx.w.dir[pgidx].owner.expect("eligibility checked");
    let cost_model = ctx.w.cfg.cost.clone();

    let now = ctx.now();
    let c_req = ctx.w.msg(MsgKind::PageRequest, CTRL_BYTES, p, q, now);
    let arrival = now + c_req;
    let close_cost = lrc::close_interval(ctx.w, ctx.mems, q, arrival);
    ctx.charge_other(q, close_cost);
    ctx.interrupt(q);

    let q_vc = ctx.w.procs[q.index()].vc.clone();
    let notice_bytes = lrc::integrate_from(ctx.w, ctx.mems, p, &q_vc);
    let c_reply = ctx
        .w
        .msg(MsgKind::PageReply, notice_bytes + PAGE_SIZE, q, p, arrival);
    ctx.charge(cost_model.service_interrupt + close_cost + c_reply);

    install_merged_copy(ctx, p, q, page);

    let version = ctx.w.dir[pgidx].version + 1;
    ctx.w.dir[pgidx].version = version;
    ctx.w.dir[pgidx].owner = Some(p);
    ctx.w.dir[pgidx].owner_since = ctx.now();
    ctx.w.dir[pgidx].read_owned = true;
    ctx.w.proto.migratory_grants += 1;

    ctx.mems[q.index()]
        .lock()
        .set_rights(page, AccessRights::Read);
    // The new owner's copy stays read-only: the anticipated write will
    // soft-fault locally, which is the optimisation's entire point.
    ctx.mems[p.index()]
        .lock()
        .set_rights(page, AccessRights::Read);
    let pc = &mut ctx.w.procs[p.index()].pages[pgidx];
    pc.hvn = Some(Hvn { version, proc: p });
}

fn sw_mode_write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pgidx = page.index();
    if ctx.w.dir[pgidx].owner == Some(p) {
        sw::soft_write_fault(ctx, p, page);
        return;
    }

    // Last perceived owner: highest-version owner notice, or the static
    // initial owner if no notice has ever arrived.
    let (q, v) = match ctx.w.procs[p.index()].pages[pgidx].hvn {
        Some(Hvn { version, proc }) => (proc, version),
        None => (ProcId::new(0), 0),
    };

    if q == p {
        // Stale self-belief: we were the owner at v, lost ownership, and
        // have heard nothing newer — the local version check fails, which
        // is the ownership-refusal signal without any messages.
        ctx.w.proto.ownership_refusals += 1;
        ctx.w.policy.note_refusal(pgidx);
        switch_to_mw_after_refusal(ctx, p, page, None);
        return;
    }

    let now = ctx.now();
    let c_req = ctx.w.msg(MsgKind::OwnershipRequest, CTRL_BYTES, p, q, now);

    // Authoritative check at the target (§3.1.1): still owner, version
    // unchanged, not already committed to dropping.
    let pg = &ctx.w.dir[pgidx];
    let version_ok = pg.version == v && !pg.drop_pending;
    let target_is_owner = pg.owner == Some(q);
    // Bootstrap after false sharing ceased (§3.1.2): ownership lapsed but
    // the target — believed SW again by everyone — can re-establish it if
    // its copy is fully merged.
    let can_bootstrap = pg.owner.is_none()
        && ctx.w.procs[q.index()].pages[pgidx].mode == PageMode::Sw
        && ctx.w.procs[q.index()].pages[pgidx].has_copy
        && ctx.w.procs[q.index()].pages[pgidx].missing.is_empty()
        && ctx.w.procs[q.index()].pages[pgidx].twin.is_none();
    // Policy gate (WFS+WG's write-granularity test, §3.3): ownership is
    // only granted while the policy judges the page worth SW handling;
    // otherwise refuse so the page is handled (and measured) in MW mode.
    let wg_ok = ctx.w.policy.grant_sw_ok(pgidx, ctx.w.dir[pgidx].wants_sw);

    let granted = version_ok && wg_ok && (target_is_owner || can_bootstrap);

    if granted {
        grant_ownership(ctx, p, q, page, c_req);
    } else {
        refuse_ownership(ctx, p, q, page, c_req, target_is_owner && version_ok);
    }
}

/// Ownership grant (§3.1.1): never forwarded, two messages total. The
/// granting processor closes its interval (so its modifications are
/// covered by an owner write notice), ships notices — plus the page if
/// the requester's copy is invalid — and hands over ownership.
fn grant_ownership(ctx: &mut Ctx<'_>, p: ProcId, q: ProcId, page: PageId, c_req: SimTime) {
    let pgidx = page.index();
    let cost_model = ctx.w.cfg.cost.clone();
    let arrival = ctx.now() + c_req;

    let close_cost = lrc::close_interval(ctx.w, ctx.mems, q, arrival);
    ctx.charge_other(q, close_cost);
    ctx.interrupt(q);

    let q_vc = ctx.w.procs[q.index()].vc.clone();
    let notice_bytes = lrc::integrate_from(ctx.w, ctx.mems, p, &q_vc);

    // Does the requester need the page contents? (Its copy may have just
    // been invalidated by the owner's closing notice.)
    let needs_page = !ctx.mems[p.index()].lock().rights(page).readable();
    let payload = notice_bytes + if needs_page { PAGE_SIZE } else { 0 };
    let c_grant = ctx.w.msg(MsgKind::OwnershipGrant, payload, q, p, arrival);
    ctx.charge(cost_model.service_interrupt + close_cost + c_grant);

    if needs_page {
        install_merged_copy(ctx, p, q, page);
    } else {
        // The copy stayed valid throughout, so anything still pending is
        // one of our own notices (local writes are in the local copy).
        let pc = &mut ctx.w.procs[p.index()].pages[pgidx];
        debug_assert!(pc.missing.iter().all(|n| n.interval.proc == p));
        let own = std::mem::take(&mut pc.missing);
        if !own.is_empty() {
            ctx.w.procs[p.index()]
                .applied
                .entry(pgidx)
                .or_default()
                .extend(own);
        }
    }

    // Transfer ownership, bump version.
    let version = ctx.w.dir[pgidx].version + 1;
    ctx.w.dir[pgidx].version = version;
    ctx.w.dir[pgidx].owner = Some(p);
    ctx.w.dir[pgidx].owner_since = ctx.now();
    ctx.w.dir[pgidx].copyset[p.index()] = true;
    ctx.w.proto.ownership_grants += 1;
    if needs_page {
        ctx.w.proto.pages_transferred += 1;
    }

    ctx.mems[q.index()]
        .lock()
        .set_rights(page, AccessRights::Read);
    {
        let mut mem = ctx.mems[p.index()].lock();
        mem.set_rights(page, AccessRights::Write);
    }
    let pc = &mut ctx.w.procs[p.index()].pages[pgidx];
    pc.has_copy = true;
    pc.hvn = Some(Hvn { version, proc: p });

    // §7 migratory detection: a read miss followed by the same
    // processor's ownership acquisition is the migratory signature; an
    // owner that acquired on a read but never wrote was a misprediction.
    let pg = &mut ctx.w.dir[pgidx];
    if pg.read_owned {
        pg.migratory_score = 0;
    }
    pg.read_owned = false;
    if pg.last_read_faulter == Some(p) {
        pg.migratory_score = (pg.migratory_score + 1).min(3);
    } else {
        pg.migratory_score /= 2;
    }
    sw::mark_dirty(ctx, p, page);
}

/// Ownership refusal (§3.1.1): write-write false sharing detected (or,
/// under WFS+WG, the page should stay in MW mode). The requester switches
/// the page to MW mode; if it needed the page contents, the refusal reply
/// carries them (piggybacked page request). A target that is still the
/// owner keeps ownership until its next release, then emits a final owner
/// notice and drops (it cannot drop immediately — it has no twin).
fn refuse_ownership(
    ctx: &mut Ctx<'_>,
    p: ProcId,
    q: ProcId,
    page: PageId,
    c_req: SimTime,
    target_still_owner: bool,
) {
    let cost_model = ctx.w.cfg.cost.clone();
    let needs_page = !ctx.mems[p.index()].lock().rights(page).readable();
    let payload = CTRL_BYTES + if needs_page { PAGE_SIZE } else { 0 };
    let arrival = ctx.now() + c_req;
    let c_reply = ctx.w.msg(MsgKind::OwnershipRefusal, payload, q, p, arrival);
    ctx.charge(c_req + cost_model.service_interrupt + c_reply);
    ctx.interrupt(q);
    ctx.w.proto.ownership_refusals += 1;
    ctx.w.policy.note_refusal(page.index());

    if target_still_owner {
        // A refusal invalidates any migratory prediction for the page.
        ctx.w.dir[page.index()].migratory_score = 0;
        ctx.w.dir[page.index()].read_owned = false;
        // The owner has seen sharing: it must fall to MW mode. If it has
        // uncommitted writes it keeps ownership until its next release
        // (it has no twin, so it cannot diff yet — §3.1.1) and drops
        // with a final owner write notice; otherwise its last owner
        // notice already covers its writes and it can drop immediately.
        let q_dirty = ctx.w.procs[q.index()].pages[page.index()].dirty;
        if q_dirty {
            ctx.w.dir[page.index()].drop_pending = true;
        } else {
            ctx.w.dir[page.index()].owner = None;
            let qc = &mut ctx.w.procs[q.index()].pages[page.index()];
            if qc.mode != PageMode::Mw {
                qc.mode = PageMode::Mw;
                ctx.w.proto.switches_to_mw += 1;
            }
        }
    }

    switch_to_mw_after_refusal(ctx, p, page, needs_page.then_some(q));
}

/// Requester-side refusal handling: switch the page to MW mode, install
/// the piggybacked copy if one was needed, create a twin, write.
fn switch_to_mw_after_refusal(
    ctx: &mut Ctx<'_>,
    p: ProcId,
    page: PageId,
    install_from: Option<ProcId>,
) {
    let pgidx = page.index();
    {
        let pc = &mut ctx.w.procs[p.index()].pages[pgidx];
        if pc.mode != PageMode::Mw {
            pc.mode = PageMode::Mw;
            ctx.w.proto.switches_to_mw += 1;
            let now = ctx.now();
            ctx.w.trace_event(now, TraceKind::SwitchToMw);
        }
    }
    if let Some(q) = install_from {
        install_merged_copy(ctx, p, q, page);
    } else {
        let readable = ctx.mems[p.index()].lock().rights(page).readable();
        if !readable {
            lrc::validate_page(ctx, p, page);
        }
    }
    mw::ensure_twin_and_write(ctx, p, page);
}

/// Installs `q`'s copy of `page` at `p` (no page messages — the caller
/// accounted for the transfer), then completes the §3.1.1 merge: delete
/// notices dominated by `q`'s knowledge, fetch and apply the remaining
/// diffs in happened-before order.
fn install_merged_copy(ctx: &mut Ctx<'_>, p: ProcId, q: ProcId, page: PageId) {
    let pidx = p.index();
    debug_assert!(
        ctx.w.procs[pidx].pages[page.index()].twin.is_none(),
        "SW-mode faults never have open write sessions"
    );
    // The server validates before serving (as in `fetch_page_from`), so
    // its copy reflects its full knowledge.
    if !ctx.w.procs[q.index()].pages[page.index()]
        .missing
        .is_empty()
    {
        lrc::validate_page(ctx, q, page);
    }
    let bytes = lrc::serve_page_bytes(ctx.w, ctx.mems, q, page);
    ctx.mems[pidx].lock().install_page(page, &bytes);

    // Anything q's copy provably contains can be dropped; after the
    // server-side validation the copy reflects q's entire knowledge.
    // What p had merged into the copy this one replaces is pending
    // again unless q knows of it.
    let bound = ctx.w.procs[q.index()].vc.clone();
    let merged = ctx.w.procs[pidx].applied.remove(&page.index());
    let pc = &mut ctx.w.procs[pidx].pages[page.index()];
    pc.missing.extend(merged.into_iter().flatten());
    pc.missing.retain(|n| !bound.covers(n.interval));
    pc.has_copy = true;
    ctx.w.dir[page.index()].copyset[pidx] = true;

    // Apply whatever survives (concurrent diffs), with messages.
    let leftovers = !ctx.w.procs[pidx].pages[page.index()].missing.is_empty();
    if leftovers {
        lrc::validate_page_after(ctx, p, page, true);
    } else {
        ctx.mems[pidx].lock().set_rights(page, AccessRights::Read);
    }
}
