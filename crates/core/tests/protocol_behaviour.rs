//! Behavioural tests of the four protocols on the three access patterns
//! of the paper's Figure 1 (producer-consumer, migratory, write-write
//! false sharing) plus coherence and adaptation checks.

use adsm_core::{Dsm, ExecBackend, ProtocolKind, RunOutcome, SimTime};

const KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Mw,
    ProtocolKind::Sw,
    ProtocolKind::Wfs,
    ProtocolKind::WfsWg,
];

/// Producer-consumer over barriers: P0 writes a page, everyone reads it.
fn producer_consumer(protocol: ProtocolKind, iters: usize) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol).nprocs(4).build();
    let data = dsm.alloc_page_aligned::<u64>(512); // exactly one page
    dsm.run(move |p| {
        for it in 0..iters {
            if p.index() == 0 {
                for i in 0..data.len() {
                    data.set(p, i, (it * 1000 + i) as u64);
                }
            }
            p.barrier();
            let v = data.get(p, 10);
            assert_eq!(v, (it * 1000 + 10) as u64);
            p.compute(SimTime::from_us(100));
            p.barrier();
        }
    })
    .unwrap()
}

/// Migratory: a counter page moves P0 -> P1 -> P2 -> P3 under a lock.
fn migratory(protocol: ProtocolKind, rounds: usize) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol).nprocs(4).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    dsm.run(move |p| {
        for _ in 0..rounds {
            p.lock(0);
            // Overwrite the whole page: large-granularity migratory data
            // (the IS pattern).
            for i in 0..data.len() {
                data.update(p, i, |v| v + 1);
            }
            p.unlock(0);
            p.compute(SimTime::from_us(200));
        }
        p.barrier();
    })
    .unwrap()
}

/// Write-write false sharing: 4 processors write disjoint quarters of
/// the same page between barriers.
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
            // Read a neighbour's quarter.
            let nb = ((p.index() + 1) % p.nprocs()) * chunk;
            assert_eq!(
                data.get(p, nb),
                (it + 1) as u64 * nb as u64,
                "stale neighbour read"
            );
            p.barrier();
        }
    })
    .unwrap()
}

#[test]
fn producer_consumer_is_coherent_under_all_protocols() {
    for k in KINDS {
        let out = producer_consumer(k, 3);
        assert!(out.report.net.total_messages() > 0, "{k}: no traffic?");
    }
}

#[test]
fn migratory_is_coherent_under_all_protocols() {
    for k in KINDS {
        let out = migratory(k, 3);
        // After 4 procs x 3 rounds, every element is 12.
        // (Checked via the final image.)
        let _ = out;
    }
}

#[test]
fn migratory_final_values_are_correct() {
    for k in KINDS {
        let mut dsm = Dsm::builder(k).nprocs(4).build();
        let data = dsm.alloc_page_aligned::<u64>(512);
        let out = dsm
            .run(move |p| {
                for _ in 0..3 {
                    p.lock(0);
                    for i in 0..data.len() {
                        data.update(p, i, |v| v + 1);
                    }
                    p.unlock(0);
                }
                p.barrier();
            })
            .unwrap();
        let mut dsm2 = Dsm::builder(k).nprocs(4).build();
        let data2 = dsm2.alloc_page_aligned::<u64>(512);
        let vals = out.read_vec(&data2);
        assert!(vals.iter().all(|&v| v == 12), "{k}: wrong final counts");
        let _ = data2;
    }
}

#[test]
fn false_sharing_is_coherent_under_all_protocols() {
    for k in KINDS {
        let _ = false_sharing(k, 3);
    }
}

#[test]
fn sw_never_creates_twins_or_diffs() {
    let out = false_sharing(ProtocolKind::Sw, 3);
    assert_eq!(out.report.proto.twins_created, 0);
    assert_eq!(out.report.proto.diffs_created, 0);
    assert_eq!(out.report.proto.storage_bytes_created(), 0);
}

#[test]
fn mw_never_sends_ownership_requests() {
    let out = false_sharing(ProtocolKind::Mw, 3);
    assert_eq!(out.report.net.ownership_requests(), 0);
}

#[test]
fn wfs_refuses_ownership_under_false_sharing() {
    let out = false_sharing(ProtocolKind::Wfs, 4);
    assert!(
        out.report.proto.ownership_refusals > 0,
        "false sharing must trigger refusals"
    );
    assert!(
        out.report.proto.switches_to_mw > 0,
        "refusals must switch pages to MW mode"
    );
}

#[test]
fn wfs_producer_consumer_stays_single_writer() {
    // One writer, several readers: no write-write false sharing, so WFS
    // must keep the page in SW mode and never twin or diff.
    let out = producer_consumer(ProtocolKind::Wfs, 4);
    assert_eq!(
        out.report.proto.ownership_refusals, 0,
        "producer-consumer has no false sharing"
    );
    assert_eq!(out.report.proto.twins_created, 0, "WFS should stay SW");
    assert_eq!(out.report.proto.diffs_created, 0);
}

#[test]
fn wfs_migratory_transfers_ownership_without_twins() {
    let out = migratory(ProtocolKind::Wfs, 3);
    assert!(
        out.report.proto.ownership_grants > 0,
        "ownership must migrate"
    );
    assert_eq!(out.report.proto.ownership_refusals, 0);
    assert_eq!(out.report.proto.twins_created, 0, "migratory stays SW");
}

#[test]
fn sw_ping_pongs_on_false_sharing() {
    // Under SW, concurrent writers to one page bounce ownership back and
    // forth; the adaptive protocol avoids that after the first refusals.
    let sw = false_sharing(ProtocolKind::Sw, 4);
    let wfs = false_sharing(ProtocolKind::Wfs, 4);
    assert!(
        sw.report.proto.ownership_grants > wfs.report.proto.ownership_grants,
        "SW grants ({}) should exceed WFS grants ({})",
        sw.report.proto.ownership_grants,
        wfs.report.proto.ownership_grants
    );
    assert!(
        sw.report.net.total_bytes() > wfs.report.net.total_bytes(),
        "ping-ponging moves more data"
    );
}

#[test]
fn wfs_wg_keeps_small_diff_pages_in_mw_mode() {
    // Small writes to a shared page (two writers, tiny stores): WFS+WG
    // should keep using diffs, not whole-page transfers.
    let mut dsm = Dsm::builder(ProtocolKind::WfsWg).nprocs(2).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let out = dsm
        .run(move |p| {
            for it in 0..6 {
                // Each proc writes ONE word of the page (migratory-ish,
                // sequential by lock) — tiny granularity.
                p.lock(0);
                data.update(p, p.index(), |v| v + it as u64);
                p.unlock(0);
                p.barrier();
            }
        })
        .unwrap();
    assert!(
        out.report.proto.diffs_created > 0,
        "small writes should be diffed under WFS+WG"
    );
}

#[test]
fn wfs_wg_switches_large_diff_pages_to_sw() {
    // Migratory whole-page overwrites: after measuring 4 KB diffs,
    // WFS+WG must move the page to SW mode (the IS behaviour).
    let mut dsm = Dsm::builder(ProtocolKind::WfsWg).nprocs(4).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let out = dsm
        .run(move |p| {
            for _ in 0..6 {
                p.lock(0);
                for i in 0..data.len() {
                    // Change every byte of the element so the diff is a
                    // true whole-page overwrite (4 KB > the 3 KB
                    // threshold).
                    data.update(p, i, |v| v.wrapping_add(0x0101_0101_0101_0101));
                }
                p.unlock(0);
                p.barrier();
            }
        })
        .unwrap();
    assert!(
        out.report.proto.switches_to_sw > 0,
        "large diffs must push the page back to SW"
    );
    assert!(
        out.report.final_sw_pages > 0,
        "the data page should end in SW mode"
    );
}

#[test]
fn adaptive_switches_back_to_sw_after_false_sharing_stops() {
    // Phase 1: false sharing. Phase 2: single writer. WFS must detect
    // the cessation (mechanism 3 at barriers) and stop diffing.
    let mut dsm = Dsm::builder(ProtocolKind::Wfs).nprocs(2).build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let out = dsm
        .run(move |p| {
            // Phase 1: both write the same page concurrently. The
            // per-element compute makes the write bursts long enough to
            // overlap in virtual time (as they would on real CPUs), so
            // ownership requests land mid-burst and version knowledge
            // goes stale — the refusal-protocol trigger.
            for _ in 0..3 {
                let base = p.index() * 256;
                for i in 0..256 {
                    data.update(p, base + i, |v| v + 1);
                    p.compute(SimTime::from_us(20));
                }
                p.barrier();
            }
            // Phase 2: only P0 writes; P1 reads.
            for it in 0..5 {
                if p.index() == 0 {
                    for i in 0..64 {
                        data.set(p, i, (100 + it + i) as u64);
                    }
                }
                p.barrier();
                let _ = data.get(p, 5);
                p.barrier();
            }
        })
        .unwrap();
    assert!(out.report.proto.switches_to_mw > 0, "phase 1 goes MW");
    assert!(
        out.report.proto.switches_to_sw > 0,
        "phase 2 must recover SW mode"
    );
    assert_eq!(out.report.final_sw_pages, 1, "page ends in SW mode");
}

#[test]
fn reports_are_deterministic() {
    let a = false_sharing(ProtocolKind::Wfs, 3);
    let b = false_sharing(ProtocolKind::Wfs, 3);
    assert_eq!(a.report.time, b.report.time);
    assert_eq!(a.report.net, b.report.net);
    assert_eq!(a.report.proto, b.report.proto);
    assert_eq!(a.report.proc_times, b.report.proc_times);
}

#[test]
fn profiler_sees_false_sharing_only_where_it_exists() {
    let fs = false_sharing(ProtocolKind::Mw, 3);
    assert!(
        fs.report.profile.pct_ww_false_shared > 99.0,
        "one fully falsely-shared page: {}",
        fs.report.profile.pct_ww_false_shared
    );
    let pc = producer_consumer(ProtocolKind::Mw, 3);
    assert_eq!(
        pc.report.profile.ww_false_shared_pages, 0,
        "single writer: no false sharing"
    );
}

#[test]
fn raw_runs_without_any_traffic() {
    let mut dsm = Dsm::builder(ProtocolKind::Raw).nprocs(1).build();
    let data = dsm.alloc::<u64>(4096);
    let out = dsm
        .run(move |p| {
            for i in 0..data.len() {
                data.set(p, i, i as u64);
            }
            p.compute(SimTime::from_ms(2));
        })
        .unwrap();
    assert_eq!(out.report.net.total_messages(), 0);
    // 2 ms of compute plus the charged memory-access time.
    assert!(out.report.time >= SimTime::from_ms(2));
    assert!(out.report.time < SimTime::from_ms(3));
    assert_eq!(out.read_vec(&data)[4095], 4095);
}

#[test]
fn raw_rejects_multiple_processors() {
    let dsm = Dsm::builder(ProtocolKind::Raw).nprocs(2).build();
    let err = dsm.run(|_| {}).unwrap_err();
    assert!(matches!(err, adsm_core::RunError::BadConfig(_)));
}

#[test]
fn deadlock_is_reported() {
    // One scheduler finds the deadlock under both backends, so both say
    // the same thing, word for word.
    for backend in [ExecBackend::Sim, ExecBackend::Threads] {
        let dsm = Dsm::builder(ProtocolKind::Mw)
            .nprocs(2)
            .backend(backend)
            .build();
        let err = dsm
            .run(|p| {
                // P0 takes lock 0 and never releases it. The barrier
                // tells P1 so; P1 then waits for the lock for ever, and
                // P0 at a second barrier P1 can never reach.
                if p.index() == 0 {
                    p.lock(0);
                    p.barrier();
                    p.barrier();
                } else {
                    p.barrier();
                    p.lock(0);
                }
            })
            .unwrap_err();
        let report = "all simulated processors are blocked: \
                      task 0 waiting on the barrier; task 1 waiting on lock 0";
        assert_eq!(
            err,
            adsm_core::RunError::Deadlock(report.into()),
            "{backend:?}"
        );
        assert_eq!(err.to_string(), report);
    }
}

#[test]
fn an_app_panic_that_says_blocked_is_not_a_deadlock() {
    // The engine says which task found a deadlock; what a panic message
    // happens to contain decides nothing.
    let dsm = Dsm::builder(ProtocolKind::Mw).nprocs(2).build();
    let err = dsm
        .run(|p| {
            if p.index() == 1 {
                panic!("blocked on purpose");
            }
            p.barrier();
        })
        .unwrap_err();
    assert_eq!(
        err,
        adsm_core::RunError::AppPanic("blocked on purpose".into())
    );
}

#[test]
fn app_panics_are_reported() {
    let dsm = Dsm::builder(ProtocolKind::Mw).nprocs(2).build();
    let err = dsm
        .run(|p| {
            if p.index() == 1 {
                panic!("boom in app");
            }
            p.barrier();
        })
        .unwrap_err();
    match err {
        adsm_core::RunError::AppPanic(msg) => assert!(msg.contains("boom")),
        other => panic!("expected AppPanic, got {other:?}"),
    }
}

#[test]
fn a_poisoned_task_unwinds_through_its_lock_guard() {
    // P0 is inside a critical section, waiting at a barrier, when P1
    // panics: the poison unwinds P0 through its live guard, whose drop
    // must not reach for the lock again (a second panic there aborts
    // the process).
    for backend in [ExecBackend::Sim, ExecBackend::Threads] {
        let dsm = Dsm::builder(ProtocolKind::Mw)
            .nprocs(2)
            .backend(backend)
            .build();
        let err = dsm
            .run(|p| {
                if p.index() == 1 {
                    panic!("boom beside a held lock");
                }
                p.critical(7, |p| p.barrier());
            })
            .unwrap_err();
        assert_eq!(
            err,
            adsm_core::RunError::AppPanic("boom beside a held lock".into()),
            "{backend:?}"
        );
    }
}

#[test]
fn gc_triggers_and_empties_diff_stores() {
    // MW with whole-page overwrites each iteration: diff space grows by
    // ~8 pages/iter; a tiny GC threshold forces collections.
    let mut cost = adsm_core::CostModel::sparc_atm();
    cost.gc_threshold_bytes = 64 * 1024;
    let mut dsm = Dsm::builder(ProtocolKind::Mw)
        .nprocs(4)
        .cost_model(cost)
        .build();
    let data = dsm.alloc_page_aligned::<u64>(8 * 512); // 8 pages
    let out = dsm
        .run(move |p| {
            let chunk = data.len() / p.nprocs();
            let base = p.index() * chunk;
            for it in 0..40 {
                for i in 0..chunk {
                    data.set(p, base + i, (it * 7 + i) as u64);
                }
                p.barrier();
                // The neighbour's first element holds it*7 + 0.
                let other = ((p.index() + 1) % p.nprocs()) * chunk;
                assert_eq!(data.get(p, other), (it * 7) as u64);
                p.barrier();
            }
        })
        .unwrap();
    assert!(out.report.proto.gc_runs > 0, "GC must have run");
    assert!(
        out.report.trace.gc_count() > 0,
        "GC must appear in the trace"
    );
    // After GCs, alive diffs were reset; cumulative >> alive.
    assert!(out.report.proto.diffs_created > out.report.proto.diffs_alive);
}

/// The §7 future-work extension: with the migratory optimisation on,
/// ownership of a detected-migratory page moves with the read miss, so
/// the separate ownership exchange disappears.
fn migratory_with_opt(opt: bool) -> RunOutcome {
    let mut dsm = Dsm::builder(ProtocolKind::Wfs)
        .nprocs(4)
        .migratory_optimization(opt)
        .build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let out = dsm
        .run(move |p| {
            for _ in 0..8 {
                p.lock(0);
                let mut vals = data.read_range(p, 0, 512);
                for v in vals.iter_mut() {
                    *v = v.wrapping_add(0x0101_0101_0101_0101);
                }
                data.write_from(p, 0, &vals);
                p.compute(SimTime::from_us(400));
                p.unlock(0);
            }
            p.barrier();
        })
        .unwrap();
    let vals = out.read_vec(&data);
    assert!(
        vals.iter()
            .all(|&v| v == 0x0101_0101_0101_0101u64.wrapping_mul(32)),
        "migratory loop corrupted data (opt={opt})"
    );
    out
}

#[test]
fn migratory_optimization_moves_ownership_on_read_miss() {
    let off = migratory_with_opt(false);
    let on = migratory_with_opt(true);
    assert_eq!(off.report.proto.migratory_grants, 0);
    assert!(
        on.report.proto.migratory_grants > 0,
        "the migratory pattern must be detected"
    );
    assert!(
        on.report.net.ownership_requests() < off.report.net.ownership_requests(),
        "read-miss grants must replace ownership requests ({} vs {})",
        on.report.net.ownership_requests(),
        off.report.net.ownership_requests()
    );
    assert!(
        on.report.net.total_messages() < off.report.net.total_messages(),
        "two messages per hop instead of four"
    );
    assert!(on.report.time < off.report.time, "and it must be faster");
}

#[test]
fn migratory_optimization_leaves_producer_consumer_alone() {
    // Readers that never write must not steal ownership.
    let run = |opt: bool| {
        let mut dsm = Dsm::builder(ProtocolKind::Wfs)
            .nprocs(4)
            .migratory_optimization(opt)
            .build();
        let data = dsm.alloc_page_aligned::<u64>(512);
        dsm.run(move |p| {
            for it in 0..6u64 {
                if p.index() == 0 {
                    let vals: Vec<u64> = (0..512).map(|i| it * 512 + i as u64).collect();
                    data.write_from(p, 0, &vals);
                }
                p.barrier();
                assert_eq!(data.get(p, 99), it * 512 + 99);
                p.barrier();
            }
        })
        .unwrap()
    };
    let on = run(true);
    assert_eq!(
        on.report.proto.migratory_grants, 0,
        "read-only consumers must never trigger migration"
    );
    assert_eq!(on.report.proto.twins_created, 0);
}

#[test]
fn migratory_optimization_is_coherent_under_false_sharing() {
    // Mispredictions must reset cleanly: run the false-sharing pattern
    // with the optimisation enabled and check coherence + refusals.
    let mut dsm = Dsm::builder(ProtocolKind::Wfs)
        .nprocs(4)
        .migratory_optimization(true)
        .build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let out = dsm
        .run(move |p| {
            let chunk = 512 / p.nprocs();
            let base = p.index() * chunk;
            for it in 0..5u64 {
                for i in 0..chunk {
                    data.set(p, base + i, (it + 1) * (base + i + 1) as u64);
                    p.compute(SimTime::from_us(4));
                }
                p.barrier();
                let nb = ((p.index() + 1) % p.nprocs()) * chunk;
                assert_eq!(data.get(p, nb), (it + 1) * (nb + 1) as u64);
                p.barrier();
            }
        })
        .unwrap();
    assert!(out.report.proto.ownership_refusals > 0);
}
