//! The single-writer protocol (§2.3): one writable copy per page,
//! located through a static home, with version numbers and owner write
//! notices. Whole pages move; no twins or diffs exist.
//!
//! Improvements over the original CVM protocol follow the paper: read
//! faults always go directly to the processor named in the
//! highest-version owner write notice (two messages); write faults
//! forward through the home (two or three messages); a new owner is
//! guaranteed a minimum ownership quantum (1 ms) before the page can be
//! taken away, which bounds the ping-pong effect.

use adsm_mempage::{AccessRights, PageId, PAGE_SIZE};
use adsm_netsim::MsgKind;
use adsm_vclock::ProcId;

use super::lrc::{self, Ctx, CTRL_BYTES};
use crate::world::Hvn;

/// SW write fault: soft fault for the owner, otherwise an ownership
/// migration through the home.
pub(crate) fn write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pgidx = page.index();
    if ctx.w.dir[pgidx].owner == Some(p) {
        soft_write_fault(ctx, p, page);
        return;
    }

    let nprocs = ctx.w.nprocs();
    let home = ProcId::new(pgidx % nprocs);
    let owner = ctx.w.dir[pgidx]
        .owner
        .expect("SW pages always have an owner");
    let cost_model = ctx.w.cfg.cost.clone();

    // Request -> home -> owner (forwarding skipped when home == owner or
    // requester == home; self-messages are free).
    let now = ctx.now();
    let c_req = ctx
        .w
        .msg(MsgKind::OwnershipRequest, CTRL_BYTES, p, home, now);
    let c_fwd = if home != owner {
        ctx.w.msg(
            MsgKind::OwnershipForward,
            CTRL_BYTES,
            home,
            owner,
            now + c_req,
        )
    } else {
        adsm_netsim::SimTime::ZERO
    };

    // The owner services the request: it may have to sit on the page
    // until its ownership quantum expires (§2.3).
    let arrival = now + c_req + c_fwd;
    let quantum_up = ctx.w.dir[pgidx].owner_since + cost_model.ownership_quantum;
    let grant_at = arrival.max(quantum_up);
    ctx.task.advance_to(grant_at);

    // The owner closes its interval so its modifications are covered by
    // write notices, then grants: notices + the page contents.
    let close_cost = lrc::close_interval(ctx.w, ctx.mems, owner, grant_at);
    ctx.charge_other(owner, close_cost);
    ctx.interrupt(owner);

    let owner_vc = ctx.w.procs[owner.index()].vc.clone();
    let notice_bytes = lrc::integrate_from(ctx.w, ctx.mems, p, &owner_vc);
    let c_grant = ctx.w.msg(
        MsgKind::OwnershipGrant,
        notice_bytes + PAGE_SIZE,
        owner,
        p,
        grant_at,
    );
    ctx.charge(cost_model.service_interrupt + close_cost + c_grant);

    // Install the page, transfer ownership, bump the version.
    let bytes = lrc::serve_page_bytes(ctx.w, ctx.mems, owner, page);
    {
        let mut mem = ctx.mems[p.index()].lock();
        mem.install_page(page, &bytes);
        mem.set_rights(page, AccessRights::Write);
    }
    // The old owner keeps a read-only copy (valid under LRC until it
    // hears of newer writes).
    ctx.mems[owner.index()]
        .lock()
        .set_rights(page, AccessRights::Read);

    let version = ctx.w.dir[pgidx].version + 1;
    ctx.w.dir[pgidx].version = version;
    ctx.w.dir[pgidx].owner = Some(p);
    ctx.w.dir[pgidx].owner_since = ctx.now();
    ctx.w.dir[pgidx].copyset[p.index()] = true;
    ctx.w.proto.ownership_grants += 1;
    ctx.w.proto.pages_transferred += 1;

    // New owner tells the home where the page lives now.
    if home != p && home != owner {
        let now = ctx.now();
        ctx.w.msg(MsgKind::HomeUpdate, CTRL_BYTES, p, home, now);
    }

    let pc = &mut ctx.w.procs[p.index()].pages[pgidx];
    pc.has_copy = true;
    pc.missing.clear();
    pc.hvn = Some(Hvn { version, proc: p });
    mark_dirty(ctx, p, page);
}

/// The owner writing its own (write-protected or never-touched) page:
/// no messages, just reopen write access and track the modification.
pub(crate) fn soft_write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    debug_assert_eq!(ctx.w.dir[page.index()].owner, Some(p));
    // The owner's copy can be invalid if concurrent writers appeared
    // (adaptive protocols); merge their modifications first.
    // Check and grant under one hold of the memory — unless the merge
    // has to run in between, which takes memories itself.
    let mut mem = ctx.mems[p.index()].lock();
    if !mem.rights(page).readable()
        || !ctx.w.procs[p.index()].pages[page.index()]
            .missing
            .is_empty()
    {
        drop(mem);
        lrc::validate_page(ctx, p, page);
        mem = ctx.mems[p.index()].lock();
    }
    mem.set_rights(page, AccessRights::Write);
    drop(mem);
    let pc = &mut ctx.w.procs[p.index()].pages[page.index()];
    pc.has_copy = true;
    ctx.w.dir[page.index()].copyset[p.index()] = true;
    ctx.w.proto.soft_write_faults += 1;
    // §7 migratory detection: a read-granted owner writing confirms the
    // prediction.
    let pg = &mut ctx.w.dir[page.index()];
    if pg.read_owned && pg.owner == Some(p) {
        pg.read_owned = false;
        pg.migratory_score = (pg.migratory_score + 1).min(3);
    }
    mark_dirty(ctx, p, page);
}

pub(crate) fn mark_dirty(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pc = &mut ctx.w.procs[p.index()].pages[page.index()];
    if !pc.dirty {
        pc.dirty = true;
        ctx.w.procs[p.index()].dirty.push(page);
    }
}
