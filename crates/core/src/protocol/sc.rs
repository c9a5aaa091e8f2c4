//! The sequentially-consistent write-invalidate comparator (IVY-style,
//! after Li & Hudak's shared virtual memory).
//!
//! Not part of the paper's evaluation — the paper builds on Keleher's
//! observation (quoted in §7) that *"the performance benefits resulting
//! from using LRC rather than sequential consistency (SC) are
//! considerably larger than those resulting from allowing multiple
//! writers."* This module provides the SC end of that comparison so the
//! claim can be measured on the same substrate (`repro related`).
//!
//! The protocol is the classical fixed-distributed-manager design:
//!
//! * Every page has a single **owner** holding the only writable copy,
//!   plus any number of read copies tracked in a **copyset**.
//! * A **read fault** asks the manager (statically `page % nprocs`),
//!   which forwards to the owner; the owner downgrades its copy to
//!   read-only and replies with the page. The reader joins the copyset.
//! * A **write fault** asks the manager, which forwards to the owner;
//!   the owner yields ownership (and the page if the requester's copy is
//!   invalid), and every other read copy is **invalidated** (one
//!   invalidation + acknowledgement pair per copy) before the write
//!   proceeds.
//!
//! Consistency is maintained at access granularity, so no intervals,
//! write notices, twins or diffs exist; locks and barriers are plain
//! synchronisation. The cost is that *read-write* false sharing — which
//! LRC tolerates silently — ping-pongs pages here, and every write miss
//! pays an invalidation round.

use adsm_mempage::{AccessRights, PageBuf, PageId, PAGE_SIZE};
use adsm_netsim::{MsgKind, SimTime};
use adsm_vclock::ProcId;

use super::lrc::{Ctx, CTRL_BYTES};

/// SC read fault: fetch a read copy from the owner through the manager.
pub(crate) fn read_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pgidx = page.index();
    let owner = ctx.w.dir[pgidx]
        .owner
        .expect("SC pages always have an owner");

    if owner == p {
        // First touch by the initial owner: its zero-filled frame is the
        // page's initial content.
        let mut mem = ctx.mems[p.index()].lock();
        mem.set_rights(page, AccessRights::Read);
        drop(mem);
        finish_copy(ctx, p, page);
        return;
    }

    let manager = ProcId::new(pgidx % ctx.w.nprocs());
    let cost_model = ctx.w.cfg.cost.clone();
    let now = ctx.now();
    let c_req = ctx.w.msg(MsgKind::PageRequest, CTRL_BYTES, p, manager, now);
    let c_fwd = if manager != owner {
        ctx.w.msg(
            MsgKind::PageForward,
            CTRL_BYTES,
            manager,
            owner,
            now + c_req,
        )
    } else {
        SimTime::ZERO
    };
    let c_rep = ctx
        .w
        .msg(MsgKind::PageReply, PAGE_SIZE, owner, p, now + c_req + c_fwd);
    ctx.charge(c_req + c_fwd + cost_model.service_interrupt + c_rep);
    ctx.interrupt(owner);

    // The owner keeps the page but loses write access, so its next write
    // triggers the invalidation round. Its retained copy joins the
    // copyset — every readable copy must be tracked, or a later writer's
    // invalidation round would miss it and leave it stale.
    let bytes = revoke_then_copy(ctx, owner, page, AccessRights::Read);
    {
        let mut mem = ctx.mems[p.index()].lock();
        mem.install_page(page, &bytes);
        mem.set_rights(page, AccessRights::Read);
    }
    finish_copy(ctx, owner, page);
    ctx.w.proto.pages_transferred += 1;
    finish_copy(ctx, p, page);
}

/// SC write fault: obtain ownership and the sole copy.
pub(crate) fn write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pgidx = page.index();
    let owner = ctx.w.dir[pgidx]
        .owner
        .expect("SC pages always have an owner");
    let cost_model = ctx.w.cfg.cost.clone();

    if owner != p {
        let manager = ProcId::new(pgidx % ctx.w.nprocs());
        let now = ctx.now();
        let c_req = ctx
            .w
            .msg(MsgKind::OwnershipRequest, CTRL_BYTES, p, manager, now);
        let c_fwd = if manager != owner {
            ctx.w.msg(
                MsgKind::OwnershipForward,
                CTRL_BYTES,
                manager,
                owner,
                now + c_req,
            )
        } else {
            SimTime::ZERO
        };
        // The grant carries the page only if the requester's copy is
        // invalid (a requester upgrading a read copy already has the
        // current bytes — every write is propagated before it happens).
        let needs_page = !ctx.mems[p.index()].lock().rights(page).readable();
        let payload = CTRL_BYTES + if needs_page { PAGE_SIZE } else { 0 };
        let c_grant = ctx.w.msg(
            MsgKind::OwnershipGrant,
            payload,
            owner,
            p,
            now + c_req + c_fwd,
        );
        ctx.charge(c_req + c_fwd + cost_model.service_interrupt + c_grant);
        ctx.interrupt(owner);

        if needs_page {
            let bytes = revoke_then_copy(ctx, owner, page, AccessRights::None);
            ctx.mems[p.index()].lock().install_page(page, &bytes);
            ctx.w.proto.pages_transferred += 1;
        }
        ctx.w.dir[pgidx].version += 1;
        ctx.w.dir[pgidx].owner = Some(p);
        ctx.w.dir[pgidx].owner_since = ctx.now();
        ctx.w.proto.ownership_grants += 1;
    }

    invalidate_copies(ctx, p, page);
    ctx.mems[p.index()]
        .lock()
        .set_rights(page, AccessRights::Write);
    finish_copy(ctx, p, page);
    if owner == p {
        ctx.w.proto.soft_write_faults += 1;
    }
}

/// Invalidates every copy except the new owner's: one
/// invalidation/acknowledgement pair per holder, issued in parallel
/// (elapsed time = one round trip; messages counted per holder).
fn invalidate_copies(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pgidx = page.index();
    let nprocs = ctx.w.nprocs();
    let cost_model = ctx.w.cfg.cost.clone();
    let mut invalidated = 0u64;
    for q in ProcId::all(nprocs) {
        if q == p || !ctx.w.dir[pgidx].copyset[q.index()] {
            continue;
        }
        let now = ctx.now();
        let c_inv = ctx.w.msg(MsgKind::Invalidation, CTRL_BYTES, p, q, now);
        ctx.w
            .msg(MsgKind::InvalidationAck, CTRL_BYTES, q, p, now + c_inv);
        ctx.interrupt(q);
        ctx.mems[q.index()]
            .lock()
            .set_rights(page, AccessRights::None);
        ctx.w.dir[pgidx].copyset[q.index()] = false;
        invalidated += 1;
    }
    if invalidated > 0 {
        // The acknowledgements arrive concurrently; the writer waits one
        // round trip plus the serialised ack receive time.
        let rt = cost_model.msg_fixed + cost_model.service_interrupt + cost_model.msg_fixed;
        let acks = SimTime::from_ns(
            cost_model.per_byte_ns
                * (invalidated * (CTRL_BYTES + adsm_netsim::MSG_HEADER_BYTES) as u64),
        );
        ctx.charge(rt + acks);
        ctx.w.proto.invalidations += invalidated;
    }
}

/// Downgrades `owner`'s copy of `page` to `rights` and only then copies
/// its frame, in one hold of the owner's memory lock. The order is the
/// protocol's: on the threads backend the owner opens a write span with
/// nothing but its own memory lock, so a copy taken while it could still
/// write would miss whatever it wrote before the downgrade landed.
fn revoke_then_copy(
    ctx: &mut Ctx<'_>,
    owner: ProcId,
    page: PageId,
    rights: AccessRights,
) -> PageBuf {
    let mut mem = ctx.mems[owner.index()].lock();
    mem.set_rights(page, rights);
    ctx.w.pool.get_copy(mem.page(page))
}

fn finish_copy(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pc = &mut ctx.w.procs[p.index()].pages[page.index()];
    pc.has_copy = true;
    ctx.w.dir[page.index()].copyset[p.index()] = true;
}

/// SC coherence invariants, checked after every fault under
/// [`DsmBuilder::sc_invariant_checks`](crate::DsmBuilder::sc_invariant_checks)
/// (test/debug facility): a single writable copy per page; every
/// readable copy byte-identical to the owner's frame; every readable
/// copy tracked in the copyset.
///
/// # Panics
///
/// Panics (by design) on the first violated invariant.
pub(crate) fn check_invariants(ctx: &Ctx<'_>, label: &str) {
    for pg in 0..ctx.w.cfg.npages {
        let page = PageId::new(pg);
        let owner = ctx.w.dir[pg].owner.expect("SC owner");
        let owner_bytes = ctx.mems[owner.index()].lock().page(page).to_vec();
        let mut writable = 0;
        for q in 0..ctx.w.nprocs() {
            let rights = ctx.mems[q].lock().rights(page);
            if rights.writable() {
                writable += 1;
                assert_eq!(
                    ProcId::new(q),
                    owner,
                    "{label}: page {pg} writable at non-owner p{q}"
                );
            }
            if rights.readable() {
                assert!(
                    ctx.w.dir[pg].copyset[q],
                    "{label}: page {pg} readable at p{q} but not in copyset"
                );
                // The owner is not compared with itself: on threads a
                // writable owner may be mid-span between the two reads.
                if q == owner.index() {
                    continue;
                }
                let bytes = ctx.mems[q].lock().page(page).to_vec();
                assert_eq!(
                    bytes,
                    owner_bytes,
                    "{label}: page {pg} stale readable copy at p{q} (owner p{})",
                    owner.index()
                );
            }
        }
        assert!(writable <= 1, "{label}: page {pg} has {writable} writers");
    }
}
