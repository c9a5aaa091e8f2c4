//! Diff garbage collection (§2.2 for MW, §3.1.1 for the adaptive
//! protocols).
//!
//! GC is requested when any processor's diff space crosses the threshold
//! (1 MB in the paper's Figure 3) and runs at the next barrier, using the
//! barrier's global synchronisation:
//!
//! * **MW**: every concurrent writer of a page validates its copy by
//!   fetching and applying all outstanding diffs (a burst of messages the
//!   paper calls out for Shallow, Barnes and 3D-FFT); every other copy is
//!   deleted; then all diffs and write notices are discarded.
//! * **Adaptive**: only the *last owner* validates; every other copy is
//!   deleted; the page comes out of GC under SW handling with the
//!   validator as its owner, so future misses fetch the owner's copy
//!   whole.

use adsm_mempage::{AccessRights, PageId};
use adsm_netsim::MsgKind;
use adsm_vclock::ProcId;

use super::lrc::{self, Ctx, CTRL_BYTES};
use crate::world::{Hvn, PageMode};

/// Runs a garbage collection. Called during barrier completion, so all
/// intervals are closed and every processor is up to date on notices.
pub(crate) fn collect(ctx: &mut Ctx<'_>) {
    let nprocs = ctx.w.nprocs();
    let adaptive = ctx.w.protocol.is_adaptive();
    ctx.w.proto.gc_runs += 1;

    // Coordination traffic: manager tells everyone to collect, everyone
    // acknowledges.
    let manager = ProcId::new(0);
    let now = ctx.now();
    for q in ProcId::all(nprocs) {
        if q != manager {
            ctx.w.msg(MsgKind::GcControl, CTRL_BYTES, manager, q, now);
            ctx.w.msg(MsgKind::GcControl, CTRL_BYTES, q, manager, now);
        }
    }

    // Pages that have outstanding diffs anywhere.
    let mut pages: Vec<PageId> = Vec::new();
    for q in 0..nprocs {
        pages.extend(ctx.w.dir.diffs[q].pages());
    }
    pages.sort_unstable();
    pages.dedup();

    for page in pages {
        let pgidx = page.index();
        // Writers: processors holding diffs for the page.
        let writers: Vec<ProcId> = (0..nprocs)
            .map(ProcId::new)
            .filter(|&q| ctx.w.dir.diffs[q.index()].has_page(page))
            .collect();

        // Exit mode: under the adaptive protocols the page leaves GC
        // under SW handling, validated by its last owner alone; under
        // MW every writer validates.
        let validators: Vec<ProcId> = if adaptive {
            vec![choose_last_owner(ctx, page, &writers)]
        } else {
            writers.clone()
        };

        for &v in &validators {
            let invalid = !ctx.mems[v.index()].lock().rights(page).readable()
                || !ctx.w.procs[v.index()].pages[pgidx].missing.is_empty();
            if invalid {
                lrc::validate_page(ctx, v, page);
            }
        }

        // Delete every other copy.
        for q in 0..nprocs {
            if validators.iter().any(|v| v.index() == q) {
                continue;
            }
            let pc = &mut ctx.w.procs[q].pages[pgidx];
            debug_assert!(pc.twin.is_none(), "no open sessions during GC");
            pc.has_copy = false;
            pc.missing.clear();
            ctx.w.dir[pgidx].copyset[q] = false;
            ctx.mems[q].lock().set_rights(page, AccessRights::None);
        }

        if !adaptive {
            // Pure-MW treatment: ownership is vestigial (only ever used
            // to locate an initial copy). The nominal owner's copy may
            // just have been deleted, so future initial fetches must
            // locate an actual copy holder.
            ctx.w.dir[pgidx].owner = None;
        } else {
            // The page leaves GC under SW handling: the validator is the
            // last owner; future misses fetch its copy (§3.1.1).
            let owner = validators[0];
            let version = ctx.w.dir[pgidx].version + 1;
            ctx.w.dir[pgidx].version = version;
            ctx.w.dir[pgidx].owner = Some(owner);
            ctx.w.dir[pgidx].owner_since = ctx.now();
            ctx.w.dir[pgidx].drop_pending = false;
            ctx.w.dir[pgidx].wants_sw = false;
            for q in 0..nprocs {
                let pc = &mut ctx.w.procs[q].pages[pgidx];
                if pc.mode == PageMode::Mw {
                    pc.mode = PageMode::Sw;
                    ctx.w.proto.switches_to_sw += 1;
                }
                pc.hvn = Some(Hvn {
                    version,
                    proc: owner,
                });
            }
            // Re-protect the owner's copy for write detection.
            ctx.mems[owner.index()]
                .lock()
                .set_rights(page, AccessRights::Read);
        }
    }

    // Discard all diffs and prune notice history: everyone is up to
    // date, so interval write lists can be emptied (their vector clocks
    // are kept — they still order future merges).
    ctx.w.log.prune_writes();
    for q in 0..nprocs {
        let (n, b) = ctx.w.dir.diffs[q].clear();
        ctx.w.proto.diffs_dropped(n, b);
        for pc in &mut ctx.w.procs[q].pages {
            // Any surviving pending notice whose diff was just discarded
            // is subsumed by a validator's copy; drop the stale
            // references.
            pc.missing.retain(|n| n.kind.is_owner());
        }
        // The diffs are gone and every surviving copy contains them.
        ctx.w.procs[q].applied.clear();
    }

    ctx.w.gc_requested = false;
    let now = ctx.now();
    ctx.w.sample_diffs(now);
}

/// Last owner of a page for adaptive GC: the authoritative owner if one
/// exists; otherwise the writer whose last write dominates the others;
/// otherwise (still concurrent) the writer with the causally-largest
/// last interval, ties to the highest id — deterministic either way.
fn choose_last_owner(ctx: &Ctx<'_>, page: PageId, writers: &[ProcId]) -> ProcId {
    if let Some(owner) = ctx.w.dir[page.index()].owner {
        return owner;
    }
    let pick = ctx.w.dir[page.index()]
        .last_write
        .iter()
        .flatten()
        .copied()
        .max_by_key(|iv| (ctx.w.vc_of(*iv).sum(), iv.proc.index()))
        .map(|iv| iv.proc);
    pick.unwrap_or_else(|| *writers.first().expect("GC page has writers"))
}
