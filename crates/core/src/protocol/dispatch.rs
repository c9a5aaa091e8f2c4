//! The dispatch layer: one [`Protocol`] object per coherence protocol,
//! selected once when the run is built.
//!
//! The protocol stack has two layers. **Dispatch** (this module)
//! routes the five protocol entry points — read fault, write fault,
//! lock acquire/release, barrier — plus the barrier-time garbage
//! collection to the run's protocol object; the `match ProtocolKind`
//! ladders that used to sit at every entry point are gone, so adding a
//! protocol means adding one impl here, not editing every dispatch
//! site. **Mechanism** (`lrc`, `sync`, `gc`, and the per-protocol
//! modules) is the shared machinery the impls compose. Every SW/MW mode
//! decision that tells WFS from WFS+WG is one rule in `adaptive`.
//!
//! Every impl is a stateless unit struct — per-run protocol state lives
//! in the `World` — so [`protocol_for`] hands out `&'static` objects and
//! selection is one pointer stored in the [`Proc`](crate::Proc) handle.

use adsm_mempage::{AccessRights, PageId};
use adsm_vclock::ProcId;

use super::lrc::Ctx;
use super::sync::{self, AcquireOutcome, BarrierOutcome};
use super::{adaptive, gc, hlrc, lrc, mw, sc, sw};
use crate::ProtocolKind;

/// One coherence protocol's hooks. Entry-point bookkeeping shared by
/// every protocol (deferred-cost drain, fault counters, the fault-trap
/// charge) stays in the `protocol` module's free functions; the hooks
/// receive control immediately after it.
pub(crate) trait Protocol: Send + Sync {
    /// Handles a read access violation on `page` by processor `p`.
    fn read_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId);

    /// Handles a write access violation on `page` by processor `p`.
    fn write_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId);

    /// Does a fault pay the trap cost before the handler runs? Only the
    /// Raw baseline — the paper's sequential runs with coherence
    /// removed — answers no.
    fn charges_fault_trap(&self) -> bool {
        true
    }

    /// First half of a lock acquire. Default: the shared LRC lock
    /// machinery (TreadMarks-style manager + last-releaser grants).
    fn acquire(&self, ctx: &mut Ctx<'_>, p: ProcId, lock_id: u64) -> AcquireOutcome {
        sync::acquire(ctx, p, lock_id)
    }

    /// Lock release. Default: the shared LRC release (local, services
    /// queued waiters).
    fn release(&self, ctx: &mut Ctx<'_>, p: ProcId, lock_id: u64) {
        sync::release(ctx, p, lock_id)
    }

    /// Barrier arrival. Default: the shared centralised barrier with
    /// write-notice exchange; its completion phase calls back into
    /// [`Protocol::gc`] when a collection is due.
    fn barrier(&self, ctx: &mut Ctx<'_>, p: ProcId) -> BarrierOutcome {
        sync::barrier_arrive(ctx, p, |ctx| self.gc(ctx))
    }

    /// Barrier-time diff garbage collection. Default: the shared
    /// collector (last-owner validation and SW exit under the adaptive
    /// protocols, every writer validating under MW).
    fn gc(&self, ctx: &mut Ctx<'_>) {
        gc::collect(ctx)
    }
}

/// The Raw baseline: the paper's sequential runs with all
/// synchronisation and coherence removed — faults are free bookkeeping,
/// synchronisation does nothing.
pub(crate) struct RawProtocol;

impl RawProtocol {
    fn free_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        let mut mem = ctx.mems[p.index()].lock();
        mem.set_rights(page, AccessRights::Write);
        drop(mem);
        ctx.w.procs[p.index()].pages[page.index()].has_copy = true;
    }
}

impl Protocol for RawProtocol {
    fn read_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        self.free_fault(ctx, p, page);
    }
    fn write_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        self.free_fault(ctx, p, page);
    }
    fn charges_fault_trap(&self) -> bool {
        false
    }
    fn acquire(&self, _ctx: &mut Ctx<'_>, _p: ProcId, _lock_id: u64) -> AcquireOutcome {
        AcquireOutcome::Granted
    }
    fn release(&self, _ctx: &mut Ctx<'_>, _p: ProcId, _lock_id: u64) {}
    fn barrier(&self, _ctx: &mut Ctx<'_>, _p: ProcId) -> BarrierOutcome {
        BarrierOutcome::Completed
    }
    fn gc(&self, _ctx: &mut Ctx<'_>) {}
}

/// TreadMarks-style multiple-writer (§2.2): twins and diffs, any number
/// of concurrent writable copies.
pub(crate) struct MwProtocol;

impl Protocol for MwProtocol {
    fn read_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        lrc::validate_page(ctx, p, page);
    }
    fn write_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        mw::write_fault(ctx, p, page);
    }
}

/// CVM-style single-writer (§2.3): ownership, versions, whole-page
/// transfers, the 1 ms quantum.
pub(crate) struct SwProtocol;

impl Protocol for SwProtocol {
    fn read_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        lrc::validate_page(ctx, p, page);
    }
    fn write_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        sw::write_fault(ctx, p, page);
    }
}

/// The paper's adaptive protocols (§3): per-page dynamic choice between
/// SW and MW handling. WFS and WFS+WG share this dispatch — they differ
/// only in the answers of the adaptation rule (`adaptive::sw_ok` and its
/// two siblings).
pub(crate) struct AdaptiveProtocol;

impl Protocol for AdaptiveProtocol {
    fn read_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        adaptive::read_fault(ctx, p, page);
    }
    fn write_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        adaptive::write_fault(ctx, p, page);
    }
}

/// The sequentially-consistent write-invalidate comparator (IVY-style,
/// §7 positioning). Fault handling doubles as its validation procedure,
/// so the hooks carry the same host-cost instrumentation the LRC merge
/// path records into `ProtocolStats::validate_wall`.
pub(crate) struct ScProtocol;

impl ScProtocol {
    /// Runs one SC fault handler with the merge-path instrumentation:
    /// wall-clock into `validate_wall` when `measure_host_costs` is on,
    /// and the post-fault invariant sweep when `sc_check` is set.
    fn instrumented(
        &self,
        ctx: &mut Ctx<'_>,
        label: &'static str,
        fault: impl FnOnce(&mut Ctx<'_>),
    ) {
        let t0 = ctx.w.cfg.measure_host_costs.then(std::time::Instant::now);
        fault(ctx);
        if let Some(t0) = t0 {
            ctx.w
                .proto
                .validate_wall
                .record(t0.elapsed().as_nanos() as u64);
        }
        if ctx.w.cfg.sc_check {
            sc::check_invariants(ctx, label);
        }
    }
}

impl Protocol for ScProtocol {
    fn read_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        self.instrumented(ctx, "read_fault", |ctx| sc::read_fault(ctx, p, page));
    }
    fn write_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        self.instrumented(ctx, "write_fault", |ctx| sc::write_fault(ctx, p, page));
    }
}

/// The home-based LRC comparator (Zhou et al., §7 positioning): diffs
/// flushed to fixed homes, whole-page misses served by the home.
pub(crate) struct HlrcProtocol;

impl Protocol for HlrcProtocol {
    fn read_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        hlrc::read_fault(ctx, p, page);
    }
    fn write_fault(&self, ctx: &mut Ctx<'_>, p: ProcId, page: PageId) {
        hlrc::write_fault(ctx, p, page);
    }
}

/// Resolves a configured [`ProtocolKind`] to its protocol object — the
/// single selection point, evaluated once per run when the `Proc`
/// handles are built.
pub(crate) fn protocol_for(kind: ProtocolKind) -> &'static dyn Protocol {
    match kind {
        ProtocolKind::Raw => &RawProtocol,
        ProtocolKind::Mw => &MwProtocol,
        ProtocolKind::Sw => &SwProtocol,
        ProtocolKind::Wfs | ProtocolKind::WfsWg => &AdaptiveProtocol,
        ProtocolKind::Sc => &ScProtocol,
        ProtocolKind::Hlrc => &HlrcProtocol,
    }
}
