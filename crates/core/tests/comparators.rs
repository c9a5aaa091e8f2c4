//! Behavioural tests of the two related-work comparator protocols —
//! sequentially-consistent write-invalidate (SC, IVY-style) and
//! home-based LRC (HLRC, Zhou et al.) — on the access patterns of the
//! paper's Figure 1, plus the §7 claims they exist to measure.

use adsm_core::{Dsm, HomePolicy, ProtocolKind, RunOptions, RunOutcome, SimTime};

const COMPARATORS: [ProtocolKind; 2] = [ProtocolKind::Sc, ProtocolKind::Hlrc];

fn producer_consumer(protocol: ProtocolKind, iters: usize) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol).nprocs(4).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    dsm.run(move |p| {
        for it in 0..iters {
            if p.index() == 0 {
                for i in 0..data.len() {
                    data.set(p, i, (it * 1000 + i) as u64);
                }
            }
            p.barrier();
            assert_eq!(data.get(p, 10), (it * 1000 + 10) as u64);
            p.compute(SimTime::from_us(100));
            p.barrier();
        }
    })
    .unwrap()
}

fn migratory_counter(protocol: ProtocolKind, rounds: usize) -> (RunOutcome, Vec<u64>) {
    let mut dsm = Dsm::builder(protocol).nprocs(4).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let probe = data;
    let out = dsm
        .run(move |p| {
            for _ in 0..rounds {
                p.lock(0);
                for i in 0..data.len() {
                    data.update(p, i, |v| v + 1);
                }
                p.unlock(0);
                p.compute(SimTime::from_us(200));
            }
            p.barrier();
        })
        .unwrap();
    let vals = out.read_vec(&probe);
    (out, vals)
}

fn false_sharing(protocol: ProtocolKind, iters: usize) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol).nprocs(4).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    dsm.run(move |p| {
        let chunk = data.len() / p.nprocs();
        let base = p.index() * chunk;
        for it in 0..iters {
            for i in 0..chunk {
                data.set(p, base + i, (it + 1) as u64 * (base + i) as u64);
            }
            p.compute(SimTime::from_us(50));
            p.barrier();
            let nb = ((p.index() + 1) % p.nprocs()) * chunk;
            assert_eq!(data.get(p, nb), (it + 1) as u64 * nb as u64);
            p.barrier();
        }
    })
    .unwrap()
}

#[test]
fn comparators_are_coherent_on_all_three_patterns() {
    for k in COMPARATORS {
        let out = producer_consumer(k, 3);
        assert!(out.report.net.total_messages() > 0, "{k}: no traffic?");
        let (_, vals) = migratory_counter(k, 3);
        assert!(vals.iter().all(|&v| v == 12), "{k}: wrong migratory counts");
        let _ = false_sharing(k, 3);
    }
}

#[test]
fn comparator_runs_are_deterministic() {
    for k in COMPARATORS {
        let a = false_sharing(k, 2).report;
        let b = false_sharing(k, 2).report;
        assert_eq!(a.time, b.time, "{k}: time not reproducible");
        assert_eq!(
            a.net.total_messages(),
            b.net.total_messages(),
            "{k}: traffic not reproducible"
        );
        assert_eq!(a.proto, b.proto, "{k}: counters not reproducible");
    }
}

#[test]
fn sc_never_twins_or_diffs() {
    for make in [producer_consumer, false_sharing] {
        let r = make(ProtocolKind::Sc, 3).report;
        assert_eq!(r.proto.twins_created, 0);
        assert_eq!(r.proto.diffs_created, 0);
        assert_eq!(r.proto.gc_runs, 0);
        assert_eq!(r.proto.storage_bytes_created(), 0);
    }
}

#[test]
fn sc_invalidates_read_copies_before_writes() {
    // Producer-consumer: all four processors hold read copies after the
    // consume phase, so the producer's next write round must invalidate
    // three of them.
    let r = producer_consumer(ProtocolKind::Sc, 3).report;
    assert!(
        r.proto.invalidations >= 3,
        "expected invalidation rounds, got {}",
        r.proto.invalidations
    );
    assert!(r.net.messages(adsm_core::MsgKind::Invalidation) >= 3);
    assert_eq!(
        r.net.messages(adsm_core::MsgKind::Invalidation),
        r.net.messages(adsm_core::MsgKind::InvalidationAck),
        "every invalidation is acknowledged"
    );
}

#[test]
fn lrc_tolerates_read_write_false_sharing_that_ping_pongs_sc() {
    // Read-write false sharing (§2.1): p0 repeatedly writes one half of a
    // page while p1 reads the *other* half, with no synchronisation
    // between the accesses inside an iteration. LRC needs no traffic at
    // all between the barrier pairs; SC ping-pongs the page on every
    // write-after-read.
    let run = |protocol: ProtocolKind| {
        let mut dsm = Dsm::builder(protocol).nprocs(2).build();
        let data = dsm.alloc_page_aligned::<u64>(512);
        dsm.run(move |p| {
            // Both halves start known-zero; p1 only ever reads what p0
            // wrote in *previous* iterations, after a barrier.
            for it in 0..10u64 {
                if p.index() == 0 {
                    for i in 0..16 {
                        data.set(p, i, it + 1);
                    }
                } else {
                    for i in 256..272 {
                        let v = data.get(p, i);
                        assert_eq!(v, 0, "p1's half is never written");
                    }
                }
                p.barrier();
            }
        })
        .unwrap()
        .report
    };
    let sc = run(ProtocolKind::Sc);
    let sw = run(ProtocolKind::Sw);
    let wfs = run(ProtocolKind::Wfs);
    // Under LRC the reader misses at most once per iteration (after the
    // barrier's notices). Under SC the writer's invalidation lands *inside*
    // the iteration, so the reader fetches the page twice per round.
    assert!(
        sc.proto.pages_transferred >= 2 * sw.proto.pages_transferred.max(1),
        "SC should ping-pong the page: SC {} vs SW {}",
        sc.proto.pages_transferred,
        sw.proto.pages_transferred
    );
    assert!(
        sc.net.total_messages() > wfs.net.total_messages(),
        "SC traffic {} should exceed WFS {}",
        sc.net.total_messages(),
        wfs.net.total_messages()
    );
}

#[test]
fn hlrc_stores_no_diffs_and_never_garbage_collects() {
    for make in [producer_consumer, false_sharing] {
        let r = make(ProtocolKind::Hlrc, 3).report;
        assert_eq!(r.proto.diffs_alive, 0, "flushed diffs are not stored");
        assert_eq!(r.proto.diff_bytes_alive, 0);
        assert_eq!(r.proto.gc_runs, 0, "nothing to collect");
        // Transient storage: peak is at most one twin + one in-flight
        // diff per processor.
        assert!(
            r.proto.peak_storage_bytes <= 4 * 2 * 4096 + 4 * 4096,
            "peak {} exceeds transient bound",
            r.proto.peak_storage_bytes
        );
    }
}

#[test]
fn hlrc_flushes_diffs_to_homes_at_interval_close() {
    let (out, _) = migratory_counter(ProtocolKind::Hlrc, 3);
    let r = out.report;
    assert!(r.proto.home_flushes > 0, "migratory writers must flush");
    assert!(
        r.net.messages(adsm_core::MsgKind::DiffFlush) > 0,
        "flushes travel as messages"
    );
    // The home node writes in place: with the counter page homed on one
    // of the writers (round-robin), that writer's rounds flush nothing.
    assert!(
        r.proto.home_flushes < 12,
        "home's own writes must not flush ({} flushes)",
        r.proto.home_flushes
    );
}

#[test]
fn hlrc_open_write_session_survives_home_fetch() {
    // p1 writes one end of the page under lock 1 (creating a twin), then
    // synchronises with p0 via lock 0 — the grant carries p0's notice for
    // the same page, invalidating p1's copy mid-session. p1's next access
    // refetches from the home; its uncommitted writes must survive.
    let mut dsm = Dsm::builder(ProtocolKind::Hlrc).nprocs(2).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let probe = data;
    let out = dsm
        .run(move |p| {
            if p.index() == 0 {
                p.lock(0);
                data.set(p, 0, 111);
                p.unlock(0);
                p.barrier();
            } else {
                p.lock(1);
                data.set(p, 511, 222); // open session on the page
                p.lock(0); // ships p0's notice for the same page
                p.unlock(0);
                assert_eq!(data.get(p, 0), 111, "remote write visible");
                assert_eq!(data.get(p, 511), 222, "own uncommitted write kept");
                p.unlock(1);
                p.barrier();
            }
        })
        .unwrap();
    let vals = out.read_vec(&probe);
    assert_eq!(vals[0], 111);
    assert_eq!(vals[511], 222);
}

#[test]
fn hlrc_home_placement_changes_traffic() {
    // One page, written and read only by p1. A first-touch home makes all
    // coherence local; homing the page on p0 forces every miss and flush
    // across the wire — §7's "poorly chosen home".
    let run = |policy: HomePolicy| {
        let mut dsm = Dsm::builder(ProtocolKind::Hlrc)
            .nprocs(2)
            .options(RunOptions {
                home_policy: policy,
                ..RunOptions::default()
            })
            .build();
        let data = dsm.alloc_page_aligned::<u64>(512);
        dsm.run(move |p| {
            for _ in 0..6 {
                if p.index() == 1 {
                    p.lock(0);
                    for i in 0..data.len() {
                        data.update(p, i, |v| v + 1);
                    }
                    p.unlock(0);
                }
                p.barrier();
            }
        })
        .unwrap()
        .report
    };
    let local = run(HomePolicy::FirstTouch);
    let remote = run(HomePolicy::Fixed(0));
    assert!(
        remote.net.total_bytes() > 2 * local.net.total_bytes().max(1),
        "fixed-on-p0 home should move much more data: {} vs {}",
        remote.net.total_bytes(),
        local.net.total_bytes()
    );
    assert!(
        remote.net.messages(adsm_core::MsgKind::DiffFlush) > 0,
        "remote home receives flushes"
    );
    assert_eq!(
        local.net.messages(adsm_core::MsgKind::DiffFlush),
        0,
        "first-touch home writes in place"
    );
}

#[test]
fn hlrc_misses_are_always_two_messages() {
    // Under HLRC a miss is exactly request + reply, regardless of how
    // many writers modified the page — unlike MW, whose miss cost grows
    // with the writer count (diff accumulation).
    let run = |protocol: ProtocolKind| {
        let mut dsm = Dsm::builder(protocol).nprocs(4).build();
        let data = dsm.alloc_page_aligned::<u64>(512);
        dsm.run(move |p| {
            // All four processors write disjoint quarters...
            let chunk = data.len() / p.nprocs();
            for i in 0..chunk {
                data.set(p, p.index() * chunk + i, p.index() as u64 + 1);
            }
            p.barrier();
            // ...then p3 reads the whole page (one miss).
            if p.index() == 3 {
                let mut sum = 0u64;
                for i in 0..data.len() {
                    sum += data.get(p, i);
                }
                assert_eq!(sum, (1 + 2 + 3 + 4) * chunk as u64);
            }
            p.barrier();
        })
        .unwrap()
        .report
    };
    let hlrc = run(ProtocolKind::Hlrc);
    let mw = run(ProtocolKind::Mw);
    // MW's miss needs diff requests to three remote writers; HLRC's is a
    // single page fetch.
    assert!(
        mw.net.messages(adsm_core::MsgKind::DiffRequest) >= 3,
        "MW accumulates diffs from every writer"
    );
    assert_eq!(
        hlrc.net.messages(adsm_core::MsgKind::DiffRequest),
        0,
        "HLRC never requests diffs"
    );
}
