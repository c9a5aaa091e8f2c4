//! The coherence protocols, structured as a three-layer stack (see
//! DESIGN.md, "The layered protocol stack"):
//!
//! * [`dispatch`] — the `Protocol` trait: one object per protocol,
//!   selected once per run; routes faults, locks, barriers and GC.
//! * [`policy`] — the `AdaptPolicy` trait: owns every SW/MW mode
//!   decision (WFS, WFS+WG, hysteresis, static hints).
//! * Mechanism — the machinery the other two layers compose:
//!   * [`lrc`] — shared LRC machinery: intervals, write-notice
//!     propagation, the merge procedure of §3.1.1.
//!   * [`mw`] — TreadMarks-style multiple-writer (twins + diffs).
//!   * [`sw`] — CVM-style single-writer (ownership + versions + quantum).
//!   * [`adaptive`] — the paper's adaptive fault paths (§3).
//!   * [`sync`] — locks and barriers (write-notice propagation).
//!   * [`gc`] — diff garbage collection at barriers (§2.2, §3.1.1).
//!   * [`recovery`] — crash recovery from the replicated interval log
//!     and HLRC home failover (SC-ABD / Hermes-style extensions).
//!   * [`sc`] — the sequentially-consistent comparator (IVY-style; §7).
//!   * [`hlrc`] — the home-based LRC comparator (Zhou et al.; §7).

pub(crate) mod adaptive;
pub(crate) mod dispatch;
pub(crate) mod gc;
pub(crate) mod hlrc;
pub(crate) mod lrc;
pub(crate) mod mw;
pub(crate) mod policy;
pub(crate) mod recovery;
pub(crate) mod sc;
pub(crate) mod sw;
pub(crate) mod sync;

use adsm_mempage::PageId;
use adsm_vclock::ProcId;

pub(crate) use dispatch::{protocol_for, Protocol};
pub(crate) use lrc::Ctx;

/// Handles a read access violation on `page` by processor `p`.
pub(crate) fn read_fault(ctx: &mut Ctx<'_>, proto: &dyn Protocol, p: ProcId, page: PageId) {
    ctx.drain_deferred();
    ctx.w.touch(page);
    ctx.w.proto.read_faults += 1;
    if proto.charges_fault_trap() {
        let trap = ctx.w.cfg.cost.fault_trap;
        ctx.charge(trap);
    }
    proto.read_fault(ctx, p, page);
}

/// Handles a write access violation on `page` by processor `p`.
pub(crate) fn write_fault(ctx: &mut Ctx<'_>, proto: &dyn Protocol, p: ProcId, page: PageId) {
    ctx.drain_deferred();
    ctx.w.touch(page);
    ctx.w.proto.write_faults += 1;
    if proto.charges_fault_trap() {
        let trap = ctx.w.cfg.cost.fault_trap;
        ctx.charge(trap);
    }
    proto.write_fault(ctx, p, page);
}
