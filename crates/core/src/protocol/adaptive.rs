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
//!
//! The two protocols share every mechanism; they differ only in the
//! three answers of the adaptation rule at the top of this file
//! ([`sw_ok`], [`wants_sw_after_diff`], [`probes_read_sharing`]).
//!
//! Only write faults come here. A read miss never moves ownership: under
//! both protocols it is the §3.1.1 merge procedure,
//! [`lrc::validate_page`], the same as under MW and SW.

use adsm_mempage::{AccessRights, PageId, PAGE_SIZE};
use adsm_netsim::{MsgKind, SimTime};
use adsm_vclock::ProcId;

use super::lrc::{self, Ctx, CTRL_BYTES};
use super::{mw, sw};
use crate::world::{Hvn, PageMode};
use crate::ProtocolKind;

/// May a page return to single-writer handling, or be granted
/// ownership on the adaptive SW path? Under WFS whenever asked; under
/// WFS+WG only while its last measured diff was large (`wants_sw`,
/// §3.3). Gates the three cessation mechanisms of §3.1.2 and the
/// adaptive ownership grant; every caller is on a path only the
/// adaptive protocols take.
pub(crate) fn sw_ok(protocol: ProtocolKind, wants_sw: bool) -> bool {
    protocol != ProtocolKind::WfsWg || wants_sw
}

/// A page's `wants_sw` after one of its intervals closed with a diff of
/// `modified` bytes. WFS+WG's write-granularity test (§3.2): a diff
/// larger than `threshold` makes the page a candidate for SW handling,
/// any other keeps it MW. Every other protocol leaves the flag as it
/// was.
pub(crate) fn wants_sw_after_diff(
    protocol: ProtocolKind,
    wants_sw: bool,
    modified: usize,
    threshold: usize,
) -> bool {
    if protocol == ProtocolKind::WfsWg {
        modified > threshold
    } else {
        wants_sw
    }
}

/// WFS+WG's read-sharing probe (§3.3): is a writing owner demoted as
/// soon as another processor fetches its page, so that the page's write
/// granularity gets measured?
pub(crate) fn probes_read_sharing(protocol: ProtocolKind) -> bool {
    protocol == ProtocolKind::WfsWg
}

/// Adaptive write fault: dispatch on the page's local mode.
pub(crate) fn write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    match ctx.w.procs[p.index()].pages[page.index()].mode {
        PageMode::Mw => mw::write_fault(ctx, p, page),
        PageMode::Sw => sw_mode_write_fault(ctx, p, page),
    }
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
    // WFS+WG's write-granularity gate (§3.3): ownership is only granted
    // while the page's last diff was large; otherwise refuse so the page
    // is handled (and measured) in MW mode.
    let wg_ok = sw_ok(ctx.w.protocol, pg.wants_sw);

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
    let cost_model = ctx.w.opts.cost.clone();
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
    let cost_model = ctx.w.opts.cost.clone();
    let needs_page = !ctx.mems[p.index()].lock().rights(page).readable();
    let payload = CTRL_BYTES + if needs_page { PAGE_SIZE } else { 0 };
    let arrival = ctx.now() + c_req;
    let c_reply = ctx.w.msg(MsgKind::OwnershipRefusal, payload, q, p, arrival);
    ctx.charge(c_req + cost_model.service_interrupt + c_reply);
    ctx.interrupt(q);
    ctx.w.proto.ownership_refusals += 1;

    if target_still_owner {
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
            ctx.w.sample_diffs(now);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_adaptation_rule_by_protocol() {
        use ProtocolKind::{Mw, Sw, Wfs, WfsWg};
        // (protocol, wants_sw) -> (sw_ok, probes_read_sharing). Only
        // the adaptive protocols ask `sw_ok`; MW and SW rows pin the
        // expression, not a decision either protocol takes.
        let table = [
            (Mw, false, true, false),
            (Mw, true, true, false),
            (Sw, false, true, false),
            (Sw, true, true, false),
            (Wfs, false, true, false),
            (Wfs, true, true, false),
            (WfsWg, false, false, true),
            (WfsWg, true, true, true),
        ];
        for (proto, wants_sw, ok, probes) in table {
            assert_eq!(sw_ok(proto, wants_sw), ok, "{proto} wants_sw={wants_sw}");
            assert_eq!(probes_read_sharing(proto), probes, "{proto}");
        }

        // WFS+WG's granularity update: a diff equal to the threshold
        // stays MW; only a larger one makes the page an SW candidate.
        let t = 3 * 1024;
        for (modified, wants) in [(t - 1, false), (t, false), (t + 1, true)] {
            for before in [false, true] {
                assert_eq!(wants_sw_after_diff(WfsWg, before, modified, t), wants);
                // No other protocol touches the flag.
                for proto in [Mw, Sw, Wfs] {
                    assert_eq!(wants_sw_after_diff(proto, before, modified, t), before);
                }
            }
        }
    }
}
