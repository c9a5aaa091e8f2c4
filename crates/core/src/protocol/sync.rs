//! Synchronisation: locks and barriers, carrying write notices per lazy
//! release consistency (§2.1).
//!
//! Locks follow TreadMarks: a statically assigned manager forwards
//! acquire requests to the current holder / last releaser; the grant
//! carries the write notices the acquirer has not seen. Releases are
//! purely local. Barriers are centralised at processor 0; arrivals carry
//! the arriver's new intervals and the release broadcast carries the
//! merged set. Barrier time is also when diff garbage collection and the
//! adaptive protocols' barrier-time detection (mechanism 3 of §3.1.2)
//! run.

use adsm_mempage::AccessRights;
use adsm_netsim::{MsgKind, SimTime};
use adsm_vclock::ProcId;

use super::lrc::{self, Ctx, CTRL_BYTES};
use crate::notice::{NoticeKind, PendingNotice};
use crate::world::LockState;
use crate::SwitchCause;

/// Outcome of the first half of a lock acquire.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum AcquireOutcome {
    /// Lock granted immediately; the acquire is complete.
    Granted,
    /// Lock is held: the caller must block; the releaser finishes the
    /// handshake (integration + wake-up).
    MustBlock,
}

/// First half of a lock acquire: request (+forward) messages, immediate
/// grant if the lock is free, enqueue otherwise.
pub(crate) fn acquire(ctx: &mut Ctx<'_>, p: ProcId, lock_id: u64) -> AcquireOutcome {
    ctx.drain_deferred();
    let nprocs = ctx.w.nprocs();
    let manager = ProcId::new((lock_id as usize) % nprocs);
    let state = ctx.w.locks.entry(lock_id).or_insert_with(|| LockState {
        holder: None,
        queue: std::collections::VecDeque::new(),
        last_releaser: manager,
        release_time: SimTime::ZERO,
    });

    let holder = state.holder;
    let last_releaser = state.last_releaser;

    // Fast path: free lock whose last releaser is the requester — it
    // still caches everything; no messages at all (lock caching).
    if holder.is_none() && last_releaser == p {
        ctx.w.locks.get_mut(&lock_id).expect("lock exists").holder = Some(p);
        return AcquireOutcome::Granted;
    }

    let target = holder.unwrap_or(last_releaser);
    let send_at = ctx.now();
    let c_req = ctx
        .w
        .msg(MsgKind::LockRequest, CTRL_BYTES, p, manager, send_at);
    let c_fwd = if manager != target {
        ctx.w.msg(
            MsgKind::LockForward,
            CTRL_BYTES,
            manager,
            target,
            send_at + c_req,
        )
    } else {
        SimTime::ZERO
    };
    ctx.charge(c_req + c_fwd);

    if holder.is_none() {
        // Grant from the last releaser: it closes its interval and ships
        // its knowledge.
        let cost_model = ctx.w.opts.cost.clone();
        let grantor = last_releaser;
        let now = ctx.now();
        let close_cost = lrc::close_interval(ctx.w, ctx.mems, grantor, now);
        ctx.charge_other(grantor, close_cost);
        ctx.interrupt(grantor);

        let bytes = lrc::integrate_from_proc(ctx.w, ctx.mems, p, grantor);
        let c_grant = ctx
            .w
            .msg(MsgKind::LockGrant, CTRL_BYTES + bytes, grantor, p, now);
        ctx.charge(cost_model.service_interrupt + close_cost + c_grant);

        ctx.w.locks.get_mut(&lock_id).expect("lock exists").holder = Some(p);
        AcquireOutcome::Granted
    } else {
        ctx.w
            .locks
            .get_mut(&lock_id)
            .expect("lock exists")
            .queue
            .push_back(p);
        AcquireOutcome::MustBlock
    }
}

/// Lock release: local under LRC. If waiters are queued, the releaser
/// services the head: closes its interval, ships notices, applies the
/// acquirer's invalidations, and wakes it.
pub(crate) fn release(ctx: &mut Ctx<'_>, p: ProcId, lock_id: u64) {
    ctx.drain_deferred();
    let state = ctx
        .w
        .locks
        .get_mut(&lock_id)
        .unwrap_or_else(|| panic!("release of unknown lock {lock_id}"));
    assert_eq!(
        state.holder,
        Some(p),
        "lock {lock_id} released by non-holder {p}"
    );
    state.holder = None;
    state.last_releaser = p;
    state.release_time = ctx.task.clock();
    let next = state.queue.pop_front();

    if let Some(r) = next {
        let cost_model = ctx.w.opts.cost.clone();
        let now = ctx.now();
        let close_cost = lrc::close_interval(ctx.w, ctx.mems, p, now);
        ctx.charge(close_cost + cost_model.service_interrupt);

        let bytes = lrc::integrate_from_proc(ctx.w, ctx.mems, r, p);
        let c_grant = ctx.w.msg(MsgKind::LockGrant, CTRL_BYTES + bytes, p, r, now);

        let st = ctx.w.locks.get_mut(&lock_id).expect("lock exists");
        st.holder = Some(r);
        let wake = ctx.now() + c_grant;
        ctx.task.unblock(r.index(), wake);
    }

    // A lock release is a durable-commit point too — the only kind a
    // locks-only program ever reaches — so scheduled crash and failover
    // events fire here as well as at barriers (whichever commit point
    // the victim hits first). The interval is closed explicitly before
    // the crash: a release with no queued waiter leaves it open, and
    // the crash model requires the arriving interval in the replicated
    // log.
    if let Some(k) = super::recovery::pending_crash(ctx.w, p, ctx.now()) {
        let now = ctx.now();
        let close_cost = lrc::close_interval(ctx.w, ctx.mems, p, now);
        ctx.charge(close_cost);
        super::recovery::crash_at_commit(ctx, p, k);
    }
    if let Some(k) = super::recovery::pending_failover(ctx.w, ctx.now()) {
        super::recovery::failover_at_commit(ctx, p, k);
    }
}

/// Outcome of a barrier arrival.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum BarrierOutcome {
    /// Not everyone has arrived; the caller must block.
    MustBlock,
    /// This processor completed the barrier (it arrived last) — everyone
    /// else has been integrated and woken.
    Completed,
}

/// Barrier arrival, centralised at the manager as in the paper (§2.1).
/// An arrival closes its interval, pays its arrival message and records
/// itself; all integration work is the last arriver's. Completion needs
/// no index of its own, because the interval log already is one: the
/// new global clock's entry for q is `log.closed(q)` (no processor ever
/// knows more of q's intervals than q), and what a departing processor
/// p has not seen of q is the log slice `(vc_p[q], closed(q)]` — so the
/// fan-down is [`lrc::integrate_from`] against the global clock, the
/// same walk lock grants and crash recovery use. The adaptive
/// protocols' mechanism-3 candidates come from one sweep of the slices
/// `(last_release_vc[q], closed(q)]`. The transients (payloads, page
/// sets) are pooled on the `World`, so steady-state barriers allocate
/// nothing.
pub(crate) fn barrier_arrive(ctx: &mut Ctx<'_>, p: ProcId) -> BarrierOutcome {
    ctx.drain_deferred();
    let nprocs = ctx.w.nprocs();
    let manager = ProcId::new(0);
    let now = ctx.now();
    let close_cost = lrc::close_interval(ctx.w, ctx.mems, p, now);
    ctx.charge(close_cost);

    // Arrival message carries the arriver's new intervals.
    let arrive_bytes = new_interval_bytes(ctx.w, p);
    let c_arr = ctx
        .w
        .msg(MsgKind::BarrierArrive, arrive_bytes, p, manager, now);
    ctx.charge(c_arr);

    // Scheduled crash: fires at the victim's first barrier arrival at
    // or after the scheduled instant, after the arriving interval was
    // committed to the replicated log (the durable commit point) and
    // before the arrival is recorded — the outage and the recovery
    // re-integration delay this processor's arrival, which is what
    // makes the others wait out the crash.
    if !ctx.w.crashes.is_empty() {
        if let Some(k) = super::recovery::pending_crash(ctx.w, p, ctx.now()) {
            super::recovery::crash_at_commit(ctx, p, k);
        }
    }

    // The arrival's own share of the fan-in (host cost only — the
    // virtual-time arrival message above is the model's).
    let fanin0 = ctx.w.opts.measure_host_costs.then(std::time::Instant::now);
    debug_assert!(
        ctx.w.procs[p.index()]
            .vc
            .dominates(&ctx.w.barrier.last_release_vc),
        "every processor covers the last barrier release"
    );
    ctx.w.barrier.arrived[p.index()] = Some(ctx.now());
    if let Some(t0) = fanin0 {
        ctx.w
            .proto
            .barrier_fanin_wall
            .record(t0.elapsed().as_nanos() as u64);
    }

    if ctx.w.barrier.arrived.iter().any(|a| a.is_none()) {
        return BarrierOutcome::MustBlock;
    }

    // --- Completion (this processor arrived last) ---
    let t0 = ctx
        .w
        .barrier
        .arrived
        .iter()
        .map(|a| a.expect("all arrived"))
        .fold(SimTime::ZERO, SimTime::max);
    ctx.task.advance_to(t0);
    let cost_model = ctx.w.opts.cost.clone();
    ctx.charge(cost_model.service_interrupt);

    // Scheduled HLRC home failover: fires at a barrier completion (all
    // intervals closed, no open write sessions) before the fan-down,
    // so notice integration below already sees the promoted homes.
    if !ctx.w.failovers.is_empty() {
        if let Some(k) = super::recovery::pending_failover(ctx.w, ctx.now()) {
            super::recovery::failover_at_commit(ctx, p, k);
        }
    }

    // The new global clock, read off the log. The last release's clock
    // is dominated by it, so its allocation is reused — and until an
    // entry is overwritten it says where the episode's records of that
    // writer start, which bounds the one sweep that names the
    // mechanism-3 candidate pages. Intervals proxy-closed after their
    // writer arrived (a lock grant closing a blocked grantor's
    // interval) are in the log like any other.
    let adapts = ctx.w.protocol.is_adaptive();
    let mut m3_pages = std::mem::take(&mut ctx.w.bscratch.m3_pages);
    let mut payloads = std::mem::take(&mut ctx.w.bscratch.payloads);
    debug_assert!(m3_pages.is_empty());
    let mut global_vc = std::mem::take(&mut ctx.w.barrier.last_release_vc);
    for q in ProcId::all(nprocs) {
        let closed = ctx.w.log.closed(q);
        if adapts {
            for rec in ctx.w.log.range(q, global_vc.get(q), closed) {
                m3_pages.extend(rec.writes.iter().map(|n| n.page));
            }
        }
        global_vc.set(q, closed);
    }

    // Fan-down: each processor receives, of every writer, the records
    // between its own clock and the global one.
    payloads.clear();
    for q in ProcId::all(nprocs) {
        payloads.push(lrc::integrate_from(ctx.w, ctx.mems, q, &global_vc));
    }

    // Adaptive barrier-time detection (mechanism 3), then GC.
    if adapts {
        m3_pages.sort_unstable();
        m3_pages.dedup();
        mechanism3(ctx, &m3_pages);
    }
    if ctx.w.gc_requested {
        super::gc::collect(ctx);
    }

    // Release broadcast.
    let completion = ctx.now();
    for q in ProcId::all(nprocs) {
        let c_rel = ctx.w.msg(
            MsgKind::BarrierRelease,
            CTRL_BYTES + payloads[q.index()],
            manager,
            q,
            completion,
        );
        if q == p {
            ctx.charge(c_rel);
        } else {
            ctx.task.unblock(q.index(), completion + c_rel);
        }
    }
    if p != manager {
        ctx.interrupt(manager);
    }

    ctx.w.barrier.arrived.fill(None);
    ctx.w.barrier.episodes += 1;
    ctx.w.barrier.last_release_vc = global_vc;
    m3_pages.clear();
    ctx.w.bscratch.m3_pages = m3_pages;
    ctx.w.bscratch.payloads = payloads;
    ctx.w.sample_diffs(completion);
    BarrierOutcome::Completed
}

/// Payload of a barrier-arrival message: the intervals this processor
/// knows that were closed since the last barrier release.
fn new_interval_bytes(w: &crate::world::World, p: ProcId) -> usize {
    let base = &w.barrier.last_release_vc;
    let mine = &w.procs[p.index()].vc;
    let mut bytes = 0usize;
    for q in ProcId::all(w.nprocs()) {
        for rec in w.log.range(q, base.get(q), mine.get(q)) {
            bytes += rec.wire_size();
        }
    }
    bytes
}

/// Mechanism 3 (§3.1.2): at a barrier every processor is up to date; if
/// one write notice for a page dominates all others, write-write false
/// sharing has stopped. The dominating writer becomes the page's owner
/// (its copy is validated here so it can serve future misses) and every
/// processor's belief flips to SW. `pages` is the candidate set —
/// every page a write notice of the episode named, sorted and
/// deduplicated.
fn mechanism3(ctx: &mut Ctx<'_>, pages: &[adsm_mempage::PageId]) {
    for &page in pages {
        let pgidx = page.index();
        if ctx.w.dir[pgidx].owner.is_some() {
            continue; // still under SW handling somewhere
        }
        if !super::adaptive::sw_ok(ctx.w.protocol, ctx.w.dir[pgidx].wants_sw) {
            // Small diffs keep the page in MW mode under WFS+WG (§3.3
            // priority rule).
            continue;
        }
        let cands = || ctx.w.dir[pgidx].last_write.iter().flatten().copied();
        let dominator = cands().find(|&c| cands().all(|o| o == c || ctx.w.vc_of(c).covers(o)));
        let Some(dom) = dominator else {
            continue; // concurrent writers remain: still falsely shared
        };
        let wlast = dom.proc;

        // Validate the new owner's copy so it can serve whole pages.
        if !ctx.w.procs[wlast.index()].pages[pgidx].missing.is_empty()
            || !ctx.mems[wlast.index()].lock().rights(page).readable()
        {
            lrc::validate_page(ctx, wlast, page);
        }

        let now = ctx.now();
        let version = ctx.w.hand_over(page, wlast, now, SwitchCause::Mechanism3);
        for q in ProcId::all(ctx.w.nprocs()).filter(|&q| q != wlast) {
            if !ctx.mems[q.index()].lock().rights(page).readable() {
                // Invalid copies re-fetch from the new owner. The list is
                // refilled in place: its capacity serves the notices the
                // next intervals ship.
                let missing = &mut ctx.w.procs[q.index()].pages[pgidx].missing;
                missing.clear();
                missing.push(PendingNotice {
                    interval: dom,
                    kind: NoticeKind::Owner(version),
                });
            }
        }
        // The owner's page is re-protected so its next write is detected.
        ctx.mems[wlast.index()]
            .lock()
            .set_rights(page, AccessRights::Read);
        ctx.w.sample_diffs(now);
    }
}

#[cfg(test)]
mod tests {
    //! The one delivery rule, checked against the log: over random
    //! interval logs and random per-processor knowledge,
    //! [`lrc::integrate_from`] against a bound hands `p` exactly the
    //! records the bound covers and `p`'s clock does not — found here
    //! by filtering the **whole** log record by record, not by slicing
    //! it — whether the bound is the log's horizon (barrier release,
    //! crash recovery), a grantor's clock, or one after the other.

    use std::collections::BTreeSet;

    use adsm_mempage::{AccessRights, PageId, PagedMemory};
    use adsm_vclock::{IntervalId, ProcId, VectorClock};
    use parking_lot::Mutex;
    use proptest::prelude::*;

    use super::lrc;
    use crate::notice::{IntervalRecord, NoticeKind, WriteNotice};
    use crate::world::World;
    use crate::{ProtocolKind, RunOptions};

    const NPAGES: usize = 8;

    /// A random cluster history: per-proc interval counts at the last
    /// barrier release (`base`) and now (`total`), each proc's
    /// knowledge in between, and a random write list per interval
    /// (distinct pages, ascending, as a close builds it).
    #[derive(Clone, Debug)]
    struct History {
        nprocs: usize,
        base: Vec<u32>,
        total: Vec<u32>,
        /// `known[p][q]` in `[base[q], total[q]]`, `known[p][p] == total[p]`.
        known: Vec<Vec<u32>>,
        /// `writes[q][s]` for interval `(q, s+1)`.
        writes: Vec<Vec<Vec<WriteNotice>>>,
    }

    fn history_strategy() -> impl Strategy<Value = History> {
        (2usize..6)
            .prop_flat_map(|nprocs| {
                let per_proc = prop::collection::vec(
                    // (base, extra-closed-since, per-interval write lists)
                    (0u32..4, 0u32..5),
                    nprocs,
                );
                let knowledge =
                    prop::collection::vec(prop::collection::vec(0u32..5, nprocs), nprocs);
                let writes = prop::collection::vec(
                    prop::collection::vec(
                        prop::collection::vec((0usize..NPAGES, any::<bool>(), 0u32..4), 0..4),
                        9, // >= max total intervals per proc
                    ),
                    nprocs,
                );
                (Just(nprocs), per_proc, knowledge, writes)
            })
            .prop_map(|(nprocs, per_proc, knowledge, writes)| {
                let base: Vec<u32> = per_proc.iter().map(|&(b, _)| b).collect();
                let total: Vec<u32> = per_proc.iter().map(|&(b, e)| b + e).collect();
                let known: Vec<Vec<u32>> = (0..nprocs)
                    .map(|p| {
                        (0..nprocs)
                            .map(|q| {
                                if p == q {
                                    total[q]
                                } else {
                                    // Clamp the raw sample into [base, total].
                                    base[q] + knowledge[p][q] % (total[q] - base[q] + 1)
                                }
                            })
                            .collect()
                    })
                    .collect();
                let writes: Vec<Vec<Vec<WriteNotice>>> = writes
                    .into_iter()
                    .map(|per_interval| {
                        per_interval
                            .into_iter()
                            .map(|mut list| {
                                // Distinct pages, ascending: the only
                                // write list a close builds, and the
                                // only one `IntervalLog::push` takes.
                                list.sort_unstable_by_key(|&(pg, _, _)| pg);
                                list.dedup_by_key(|&mut (pg, _, _)| pg);
                                list.into_iter()
                                    .map(|(pg, owner, v)| WriteNotice {
                                        page: PageId::new(pg),
                                        kind: if owner {
                                            NoticeKind::Owner(v)
                                        } else {
                                            NoticeKind::NonOwner
                                        },
                                    })
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                History {
                    nprocs,
                    base,
                    total,
                    known,
                    writes,
                }
            })
    }

    /// Builds a `World` whose log, clocks and barrier base reflect the
    /// history.
    fn build_world(h: &History) -> World {
        let mut w = World::new(ProtocolKind::Wfs, h.nprocs, NPAGES, RunOptions::default());
        for q in 0..h.nprocs {
            let qid = ProcId::new(q);
            for s in 1..=h.total[q] {
                let vc = VectorClock::new(h.nprocs);
                w.log.push(
                    qid,
                    IntervalRecord {
                        id: IntervalId::new(qid, s),
                        vc: crate::notice::CloseVc::fresh(vc, qid, s),
                        writes: h.writes[q][(s - 1) as usize].clone().into(),
                    },
                );
            }
        }
        for p in 0..h.nprocs {
            for q in 0..h.nprocs {
                w.procs[p].vc.set(ProcId::new(q), h.known[p][q]);
            }
        }
        w.barrier.last_release_vc = VectorClock::new(h.nprocs);
        for q in 0..h.nprocs {
            w.barrier.last_release_vc.set(ProcId::new(q), h.base[q]);
        }
        w
    }

    /// One readable memory per processor, so that an invalidation
    /// shows as a lost right.
    fn readable_mems(nprocs: usize) -> Vec<Mutex<PagedMemory>> {
        (0..nprocs)
            .map(|_| {
                let mut mem = PagedMemory::new(NPAGES);
                for pg in 0..NPAGES {
                    mem.set_rights(PageId::new(pg), AccessRights::Read);
                }
                Mutex::new(mem)
            })
            .collect()
    }

    /// The log's horizon: what a barrier completion or a recovery
    /// reads as the global clock.
    fn horizon(w: &World) -> VectorClock {
        let mut vc = VectorClock::new(w.nprocs());
        for q in ProcId::all(w.nprocs()) {
            vc.set(q, w.log.closed(q));
        }
        vc
    }

    /// Wire bytes and pages of every foreign record in the log that
    /// `bound` covers and `known` does not.
    fn uncovered(
        w: &World,
        p: usize,
        known: &VectorClock,
        bound: &VectorClock,
    ) -> (usize, BTreeSet<usize>) {
        let mut bytes = 0;
        let mut pages = BTreeSet::new();
        for q in ProcId::all(w.nprocs()).filter(|q| q.index() != p) {
            for rec in w.log.range(q, 0, w.log.closed(q)) {
                if bound.covers(rec.id) && !known.covers(rec.id) {
                    bytes += rec.wire_size();
                    pages.extend(rec.writes.iter().map(|n| n.page.index()));
                }
            }
        }
        (bytes, pages)
    }

    /// Ships to `p` against `bound` and checks the delivery: `shipped`
    /// bytes (what earlier ships to `p` already carried, plus this one)
    /// are the wire size of the records `known` — `p`'s clock before
    /// any of them — left uncovered, `p`'s clock reaches the bound, and
    /// `p` lost access to exactly the pages those records name.
    fn ship_and_check(
        w: &mut World,
        mems: &[Mutex<PagedMemory>],
        p: usize,
        known: &VectorClock,
        bound: &VectorClock,
        shipped: usize,
    ) {
        let (bytes, pages) = uncovered(w, p, known, bound);
        let shipped = shipped + lrc::integrate_from(w, mems, ProcId::new(p), bound);
        assert_eq!(shipped, bytes, "proc {p} payload");
        assert!(
            w.procs[p].vc.dominates(bound),
            "proc {p} short of the bound"
        );
        let mem = mems[p].lock();
        for pg in 0..NPAGES {
            assert_eq!(
                mem.rights(PageId::new(pg)).readable(),
                !pages.contains(&pg),
                "proc {p} page {pg}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Crash recovery's re-integration — `integrate_from` against
        /// the log horizon, run with the victim's durable clock — ships
        /// exactly the full-log frontier that clock leaves uncovered:
        /// nothing the victim already integrated is replayed, and
        /// nothing short of the horizon is left out.
        #[test]
        fn recovery_reintegration_equals_full_log_frontier(h in history_strategy()) {
            let mut w = build_world(&h);
            let mems = readable_mems(h.nprocs);
            let bound = horizon(&w);
            for p in 0..h.nprocs {
                let known = w.procs[p].vc.clone();
                ship_and_check(&mut w, &mems, p, &known, &bound, 0);
                prop_assert_eq!(&w.procs[p].vc, &bound);
            }
        }

        /// A barrier episode with lock grants inside it: a grantor's
        /// interval is closed on its behalf (the record lands in the
        /// log after everyone's knowledge was drawn) and the acquirer
        /// is shipped the grantor's knowledge; at completion the bound
        /// is read from the log. Grant and release together deliver
        /// each processor what one ship against the horizon would have
        /// — the late record included, and to the acquirer only once.
        #[test]
        fn grants_then_release_deliver_each_record_once(
            h in history_strategy(),
            grants in prop::collection::vec(0usize..8, 0..3),
        ) {
            let mut w = build_world(&h);
            let mems = readable_mems(h.nprocs);
            let known: Vec<VectorClock> = w.procs.iter().map(|pc| pc.vc.clone()).collect();
            let mut shipped = vec![0usize; h.nprocs];
            for g in grants {
                let grantor = ProcId::new(g % h.nprocs);
                let acquirer = (g + 1) % h.nprocs;
                let seq = w.procs[grantor.index()].vc.tick(grantor);
                let vc = w.procs[grantor.index()].vc.clone();
                w.log.push(
                    grantor,
                    IntervalRecord {
                        id: IntervalId::new(grantor, seq),
                        vc: crate::notice::CloseVc::fresh(vc.clone(), grantor, seq),
                        writes: h.writes[grantor.index()][(seq - 1) as usize].clone().into(),
                    },
                );
                shipped[acquirer] += lrc::integrate_from(&mut w, &mems, ProcId::new(acquirer), &vc);
            }
            let bound = horizon(&w);
            for p in 0..h.nprocs {
                ship_and_check(&mut w, &mems, p, &known[p], &bound, shipped[p]);
            }
        }
    }

    /// A proc that learned of another's interval through a lock grant
    /// (knowledge above the barrier base) must not receive that record
    /// again at the barrier.
    #[test]
    fn frontier_skips_lock_granted_records() {
        let h = History {
            nprocs: 2,
            base: vec![0, 0],
            total: vec![2, 0],
            known: vec![vec![2, 0], vec![1, 0]], // proc 1 already has (0,1)
            writes: vec![
                vec![
                    vec![WriteNotice {
                        page: PageId::new(0),
                        kind: NoticeKind::NonOwner,
                    }],
                    vec![WriteNotice {
                        page: PageId::new(1),
                        kind: NoticeKind::NonOwner,
                    }],
                ],
                vec![],
            ],
        };
        let mut w = build_world(&h);
        let mems = readable_mems(2);
        let bound = horizon(&w);
        let second = w.log.record(IntervalId::new(ProcId::new(0), 2)).wire_size();
        let bytes = lrc::integrate_from(&mut w, &mems, ProcId::new(1), &bound);
        assert_eq!(bytes, second, "only the uncovered record ships");
        let mem = mems[1].lock();
        assert!(
            mem.rights(PageId::new(0)).readable(),
            "(0,1) was not re-sent"
        );
        assert!(!mem.rights(PageId::new(1)).readable());
        assert_eq!(w.procs[1].vc, bound);
    }
}
