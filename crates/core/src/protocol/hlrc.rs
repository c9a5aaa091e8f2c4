//! The home-based LRC comparator (after Zhou, Iftode & Li's HLRC).
//!
//! Not part of the paper's evaluation — it is the design the paper
//! positions itself against in §7: *"our adaptive protocols avoid
//! twinning and diffing overhead without using a fixed home node. This
//! avoids unnecessary message traffic if the home node is poorly
//! chosen."* This module provides the home-based end of that comparison
//! (`repro related` sweeps the home placement policies).
//!
//! The protocol keeps the paper's LRC machinery — intervals, vector
//! clocks, write notices carried on acquires and barriers, invalidation
//! on notice receipt — but changes where modifications live:
//!
//! * Every page has a fixed **home** node. The home writes its own pages
//!   in place (no twin, no diff — the single-writer-at-home optimisation
//!   of Zhou et al.).
//! * A non-home writer twins on the first write of an interval and, at
//!   interval close, **flushes** the diff to the home, where it is
//!   applied immediately and discarded. No diff is ever stored, so there
//!   is no diff garbage collection and no diff accumulation.
//! * An access miss fetches the **whole page from the home** — always
//!   two messages, regardless of how many writers modified it.
//!
//! Eager per-interval flushing makes the home's frame reflect every
//! modification that *happened before* any later acquire, so a fetched
//! page always covers the faulting processor's pending notices (flushes
//! precede notice delivery along every happened-before-1 path).
//!
//! The trade-offs measured by the harness: HLRC never pays diff storage
//! (Table 3 collapses) and its misses are always two messages, but every
//! miss moves a full page even for one-word updates, fine-grained
//! sharing turns into whole-page traffic through the home, and a poorly
//! placed home doubles the data path (writer → home → reader).

use adsm_mempage::{AccessRights, Diff, PageId, PAGE_SIZE};
use adsm_netsim::MsgKind;
use adsm_vclock::ProcId;

use super::lrc::{Ctx, CTRL_BYTES};
use super::mw;

/// HLRC read fault: fetch the page from its home.
pub(crate) fn read_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    fetch_from_home(ctx, p, page);
}

/// HLRC write fault: valid copy first, then open a write session — a
/// twin off-home, plain write access at home.
pub(crate) fn write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let readable = ctx.mems[p.index()].lock().rights(page).readable();
    if !readable {
        fetch_from_home(ctx, p, page);
    }
    let home = ctx.w.home_of(page, p);
    if p == home && !ctx.w.cfg.hlrc_backup {
        // The home writes in place: its frame *is* the canonical copy,
        // so no twin is needed and the interval close flushes nothing.
        // With home replication the in-place shortcut is off: the
        // home's writes must travel the same twin-and-flush stream so
        // the backup store stays bit-identical to the home frame.
        ctx.mems[p.index()]
            .lock()
            .set_rights(page, AccessRights::Write);
        let pc = &mut ctx.w.procs[p.index()].pages[page.index()];
        pc.has_copy = true;
        if !pc.dirty {
            pc.dirty = true;
            ctx.w.procs[p.index()].dirty.push(page);
        }
        ctx.w.dir[page.index()].copyset[p.index()] = true;
        ctx.w.proto.soft_write_faults += 1;
    } else {
        mw::ensure_twin_and_write(ctx, p, page);
    }
}

/// Validates `p`'s copy of `page` from the home node. Pending write
/// notices are covered by the fetched copy (flushes happen before the
/// notices travel), so the whole `missing` list is cleared. An open
/// write session survives the install: its uncommitted delta is
/// re-applied on top and the fetched copy becomes the new twin.
pub(crate) fn fetch_from_home(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pidx = p.index();
    let pgidx = page.index();
    let home = ctx.w.home_of(page, p);

    if p == home {
        // The home's own frame is always current; invalidation notices
        // against it carry no work.
        let writable = ctx.w.procs[pidx].pages[pgidx].dirty;
        let rights = if writable {
            AccessRights::Write
        } else {
            AccessRights::Read
        };
        ctx.mems[pidx].lock().set_rights(page, rights);
    } else {
        // Preserve the uncommitted writes of an open session across the
        // install (same delta technique as the LRC merge procedure).
        let delta = {
            let pc = &ctx.w.procs[pidx].pages[pgidx];
            pc.twin.as_ref().map(|twin| {
                // Dirty-window bound: the open session's delta lives in
                // the bytes written since the twin was taken (a
                // fetch-installed twin starts with a full-page window).
                let mem = ctx.mems[pidx].lock();
                let mut delta = Diff::default();
                let (lo, hi) = mem.dirty_span(page).unwrap_or((0, 0));
                Diff::encode_span_into(twin, mem.page(page), lo, hi, &mut delta);
                delta
            })
        };

        let now = ctx.now();
        let c_req = ctx.w.msg(MsgKind::PageRequest, CTRL_BYTES, p, home, now);
        let c_rep = ctx
            .w
            .msg(MsgKind::PageReply, PAGE_SIZE, home, p, now + c_req);
        let cost = c_req + ctx.w.cfg.cost.service_interrupt + c_rep;
        ctx.charge(cost);
        ctx.interrupt(home);
        ctx.w.proto.pages_transferred += 1;

        let bytes = ctx
            .w
            .pool
            .get_copy(ctx.mems[home.index()].lock().page(page));
        let mut mem = ctx.mems[pidx].lock();
        mem.install_page(page, &bytes);
        if let Some(delta) = delta {
            delta.apply(mem.page_mut(page));
            ctx.w.procs[pidx].pages[pgidx].twin = Some(bytes);
        }
        let rights = if ctx.w.procs[pidx].pages[pgidx].twin.is_some() {
            AccessRights::Write
        } else {
            AccessRights::Read
        };
        mem.set_rights(page, rights);
    }

    let pc = &mut ctx.w.procs[pidx].pages[pgidx];
    pc.missing.clear();
    pc.has_copy = true;
    if pc.refetch_pending {
        pc.refetch_pending = false;
        // The home's own frame survived on the replica; only a real
        // fetch counts as recovering lost content.
        if p != home {
            ctx.w.proto.recovery_refetches += 1;
        }
    }
    ctx.w.dir[pgidx].copyset[pidx] = true;
}

/// Flushes one interval-close diff to the page's home: the flush message
/// is charged to the closing processor (returned); the home-side apply
/// is queued on the world's deferred-cost list (no engine handle exists
/// at interval close). The diff is applied to the home frame at once and
/// never stored.
pub(crate) fn flush_diff_to_home(
    w: &mut crate::world::World,
    mems: &[parking_lot::Mutex<adsm_mempage::PagedMemory>],
    p: ProcId,
    page: PageId,
    diff: &Diff,
    now: adsm_netsim::SimTime,
) -> adsm_netsim::SimTime {
    let home = w.home_of(page, p);
    let wire = diff.wire_size();
    // Transient storage accounting: the diff exists only on the wire.
    w.proto.diff_created(wire);
    w.proto.diffs_dropped(1, wire as u64);
    w.proto.home_flushes += 1;

    // Home replication: the same flush stream feeds the backup, so its
    // store stays bit-identical to the home frame (every home write is
    // twinned under `hlrc_backup`, so no modification bypasses this
    // path). The writer pays the extra send; the backup-side apply is
    // deferred like the home's.
    let backup_send = if w.cfg.hlrc_backup {
        let backup = ProcId::new((home.index() + 1) % w.cfg.nprocs);
        if w.backup_store.len() < w.cfg.npages {
            w.backup_store.resize_with(w.cfg.npages, || None);
        }
        if w.backup_store[page.index()].is_none() {
            // First flush of this page: the replicated copy starts from
            // the same all-zeros image every frame starts from.
            w.backup_store[page.index()] = Some(w.pool.get_copy(&[0u8; PAGE_SIZE]));
        }
        diff.apply(w.backup_store[page.index()].as_mut().expect("just grown"));
        if backup == p {
            adsm_netsim::SimTime::ZERO
        } else {
            let send = w.msg(MsgKind::DiffFlush, wire, p, backup, now);
            let apply = w.cfg.cost.diff_apply(diff.modified_bytes()) + w.cfg.cost.service_interrupt;
            w.deferred_costs.push((backup.index(), apply));
            send
        }
    } else {
        adsm_netsim::SimTime::ZERO
    };

    if home == p {
        // Cannot happen for twinned pages (the home writes in place),
        // except when a page's home was resolved lazily *after* this
        // processor already twinned it — or under `hlrc_backup`, where
        // the home twins like everyone else. Applying locally is free;
        // only the backup send (if any) hits the wire.
        diff.apply(mems[p.index()].lock().page_mut(page));
        return backup_send;
    }

    let send = w.msg(MsgKind::DiffFlush, wire, p, home, now);
    let apply = w.cfg.cost.diff_apply(diff.modified_bytes()) + w.cfg.cost.service_interrupt;
    w.deferred_costs.push((home.index(), apply));
    w.proto.diffs_applied += 1;

    {
        let mut mem = mems[home.index()].lock();
        diff.apply(mem.page_mut(page));
    }
    // The home's open twin (if any) must also see the flushed words:
    // otherwise the home's *own* next diff would claim them with stale
    // base values. (Harmless for the frame — the home flushes to itself
    // for free — but it keeps twin/frame deltas exact.)
    if let Some(twin) = w.procs[home.index()].pages[page.index()].twin.as_mut() {
        diff.apply(twin);
    }
    send + backup_send
}
