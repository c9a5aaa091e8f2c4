//! The multiple-writer protocol (TreadMarks, §2.2): twinning and diffing.
//!
//! Any number of processors may hold writable copies of a page. The first
//! write of an interval traps, the handler copies the page (the *twin*)
//! and unprotects it; at interval close the twin and the current copy are
//! compared to produce a diff (see `lrc::close_interval`). Access misses
//! fetch and apply the diffs named by the pending write notices.

use adsm_mempage::{AccessRights, PageId, PAGE_SIZE};
use adsm_vclock::ProcId;

use super::lrc::{self, Ctx};

/// MW write fault: ensure a valid copy, then twin and unprotect.
///
/// Also used by the adaptive protocols for pages in MW mode.
pub(crate) fn write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let readable = ctx.mems[p.index()].lock().rights(page).readable();
    if !readable {
        // Write fault on an invalid page: fetch + merge first (the page
        // request carries the diff requests; costs accounted inside).
        lrc::validate_page(ctx, p, page);
    }
    ensure_twin_and_write(ctx, p, page);
}

/// Creates the twin if the open interval does not have one yet, grants
/// write access, and marks the page dirty.
pub(crate) fn ensure_twin_and_write(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    let pidx = p.index();
    let pgidx = page.index();
    let needs_twin = ctx.w.procs[pidx].pages[pgidx].twin.is_none();
    if needs_twin {
        // Lazy diffing: the page is about to change, so the previous
        // interval's retained twin must be encoded now ("forced diff").
        // It reads this memory itself, so the hold below starts after.
        let mcost = lrc::materialize_pending(ctx.w, ctx.mems, p, page);
        ctx.charge(mcost);
    }
    // One hold for the snapshot and the grant.
    let mut mem = ctx.mems[pidx].lock();
    if needs_twin {
        // The twin is an exact snapshot of the frame: reset the
        // dirty watermark so it bounds precisely the bytes that can
        // differ from this twin — the window the interval-close
        // diff encode scans.
        mem.clear_dirty_span(page);
        let twin = ctx.w.pool.get_copy(mem.page(page));
        ctx.w.procs[pidx].pages[pgidx].twin = Some(twin);
        let cost = ctx.w.cfg.cost.twin;
        ctx.charge(cost);
        ctx.w.proto.twin_created(PAGE_SIZE);
    }
    mem.set_rights(page, AccessRights::Write);
    drop(mem);
    let pc = &mut ctx.w.procs[pidx].pages[pgidx];
    pc.has_copy = true;
    if !pc.dirty {
        pc.dirty = true;
        ctx.w.procs[pidx].dirty.push(page);
    }
    ctx.w.dir[pgidx].copyset[pidx] = true;
}
