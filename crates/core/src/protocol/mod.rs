//! The coherence protocols: five entry points over shared mechanism
//! (see DESIGN.md, "The layered protocol stack").
//!
//! The paper's protocols share one LRC substrate — intervals, write
//! notices, lock and barrier exchange, diff GC — and differ in what a
//! write fault does (§2–3); a read miss is the §3.1.1 merge procedure
//! under all four of them. So the entry points are the five
//! functions of this module, [`read_fault`], [`write_fault`],
//! [`acquire`], [`release`] and [`barrier`], each one `match` on the
//! run's [`ProtocolKind`]; the mechanism modules they call are:
//!
//! * [`lrc`] — shared LRC machinery: intervals, write-notice
//!   propagation, the merge procedure of §3.1.1.
//! * [`mw`] — TreadMarks-style multiple-writer (twins + diffs).
//! * [`sw`] — CVM-style single-writer (ownership + versions + quantum).
//! * [`adaptive`] — the paper's adaptive write-fault path (§3): ownership
//!   request, grant and refusal, and the one adaptation rule telling WFS
//!   from WFS+WG.
//! * [`sync`] — locks and barriers (write-notice propagation).
//! * [`gc`] — diff garbage collection at barriers (§2.2, §3.1.1).
//! * [`recovery`] — crash recovery from the replicated interval log and
//!   HLRC home failover (SC-ABD / Hermes-style extensions).
//! * [`sc`] — the sequentially-consistent comparator (IVY-style; §7).
//! * [`hlrc`] — the home-based LRC comparator (Zhou et al.; §7).
//!
//! Raw, the paper's sequential baseline with coherence removed, is the
//! one arm that touches none of them: its faults are free bookkeeping
//! and its synchronisation does nothing.

pub(crate) mod adaptive;
pub(crate) mod gc;
pub(crate) mod hlrc;
pub(crate) mod lrc;
pub(crate) mod mw;
pub(crate) mod recovery;
pub(crate) mod sc;
pub(crate) mod sw;
pub(crate) mod sync;

use adsm_mempage::{AccessRights, PageId};
use adsm_vclock::ProcId;

pub(crate) use lrc::Ctx;
use sync::{AcquireOutcome, BarrierOutcome};

use crate::ProtocolKind;

/// Handles a read access violation on `page` by processor `p`.
pub(crate) fn read_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    ctx.w.proto.read_faults += 1;
    enter_fault(ctx, page);
    match ctx.w.protocol {
        ProtocolKind::Raw => raw_fault(ctx, p, page),
        ProtocolKind::Mw | ProtocolKind::Sw | ProtocolKind::Wfs | ProtocolKind::WfsWg => {
            lrc::validate_page(ctx, p, page)
        }
        ProtocolKind::Sc => sc_fault(ctx, "read_fault", |ctx| sc::read_fault(ctx, p, page)),
        ProtocolKind::Hlrc => hlrc::read_fault(ctx, p, page),
    }
}

/// Handles a write access violation on `page` by processor `p`.
pub(crate) fn write_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    ctx.w.proto.write_faults += 1;
    enter_fault(ctx, page);
    match ctx.w.protocol {
        ProtocolKind::Raw => raw_fault(ctx, p, page),
        ProtocolKind::Mw => mw::write_fault(ctx, p, page),
        ProtocolKind::Sw => sw::write_fault(ctx, p, page),
        ProtocolKind::Wfs | ProtocolKind::WfsWg => adaptive::write_fault(ctx, p, page),
        ProtocolKind::Sc => sc_fault(ctx, "write_fault", |ctx| sc::write_fault(ctx, p, page)),
        ProtocolKind::Hlrc => hlrc::write_fault(ctx, p, page),
    }
}

/// First half of a lock acquire: the shared LRC lock machinery
/// (TreadMarks-style manager + last-releaser grants) under every
/// protocol but Raw, whose locks are always granted.
pub(crate) fn acquire(ctx: &mut Ctx<'_>, p: ProcId, lock_id: u64) -> AcquireOutcome {
    match ctx.w.protocol {
        ProtocolKind::Raw => AcquireOutcome::Granted,
        _ => sync::acquire(ctx, p, lock_id),
    }
}

/// Lock release: the shared LRC release (local, services queued
/// waiters); nothing under Raw.
pub(crate) fn release(ctx: &mut Ctx<'_>, p: ProcId, lock_id: u64) {
    match ctx.w.protocol {
        ProtocolKind::Raw => {}
        _ => sync::release(ctx, p, lock_id),
    }
}

/// Barrier arrival: the shared centralised barrier with write-notice
/// exchange and barrier-time GC; under Raw every arrival completes.
pub(crate) fn barrier(ctx: &mut Ctx<'_>, p: ProcId) -> BarrierOutcome {
    match ctx.w.protocol {
        ProtocolKind::Raw => BarrierOutcome::Completed,
        _ => sync::barrier_arrive(ctx, p),
    }
}

/// The bookkeeping every fault starts with: deferred charges drained,
/// the page marked touched, and the trap paid — by every protocol but
/// Raw, the paper's sequential runs.
fn enter_fault(ctx: &mut Ctx<'_>, page: PageId) {
    ctx.drain_deferred();
    ctx.w.touch(page);
    if ctx.w.protocol != ProtocolKind::Raw {
        let trap = ctx.w.opts.cost.fault_trap;
        ctx.charge(trap);
    }
}

/// A Raw fault: the page becomes writable here, nothing is charged.
fn raw_fault(ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
    ctx.mems[p.index()]
        .lock()
        .set_rights(page, AccessRights::Write);
    ctx.w.procs[p.index()].pages[page.index()].has_copy = true;
}

/// Runs one SC fault handler. SC's fault handling doubles as its
/// validation procedure, so it is timed into `validate_wall` like the
/// LRC merge path when `measure_host_costs` is on. In a debug build the
/// invariant sweep runs after every fault.
fn sc_fault(ctx: &mut Ctx<'_>, label: &'static str, fault: impl FnOnce(&mut Ctx<'_>)) {
    let t0 = ctx.w.opts.measure_host_costs.then(std::time::Instant::now);
    fault(ctx);
    if let Some(t0) = t0 {
        ctx.w
            .proto
            .validate_wall
            .record(t0.elapsed().as_nanos() as u64);
    }
    if cfg!(debug_assertions) {
        sc::check_invariants(ctx, label);
    }
}
