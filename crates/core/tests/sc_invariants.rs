//! SC comparator invariants, checked after every fault via
//! `DsmBuilder::sc_invariant_checks`: at most one writable copy per
//! page, readable
//! copies byte-identical to the owner's frame, and complete copyset
//! tracking. The IS-like workload below (skewed compute, uneven bands,
//! three processors) is the exact schedule that exposed an untracked
//! stale read copy during development — kept as a regression test.

use adsm_core::{Dsm, ProtocolKind, SharedVec, SimTime};

#[test]
fn locked_rmw_with_skewed_compute_upholds_invariants() {
    let nb = 1024usize;
    let nprocs = 3;
    let mut dsm = Dsm::builder(ProtocolKind::Sc)
        .nprocs(nprocs)
        .sc_invariant_checks(true)
        .build();
    let buckets: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(nb);
    let checksum: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(1);
    let probe = buckets;
    let out = dsm
        .run(move |p| {
            let mut shared = vec![0u64; nb];
            for _it in 0..3 {
                // Skewed pre-lock compute: reorders the lock queue so a
                // non-initial-owner merges first (the regression trigger).
                p.compute(SimTime::from_ns(54_600 + 40 * p.index() as u64));
                p.lock(0);
                buckets.read_into(p, 0, &mut shared);
                for s in shared.iter_mut() {
                    *s += 1;
                }
                buckets.write_from(p, 0, &shared);
                p.compute(SimTime::from_ns(nb as u64 * 15));
                p.unlock(0);
                p.barrier();
                if p.index() == 0 {
                    buckets.read_into(p, 0, &mut shared);
                    let total: u64 = shared.iter().sum();
                    checksum.set(p, 0, total);
                    p.compute(SimTime::from_ns(nb as u64 * 5));
                }
                p.barrier();
            }
        })
        .unwrap();
    let vals = out.read_vec(&probe);
    assert!(vals.iter().all(|&v| v == 9), "lost locked updates");
    assert_eq!(out.read_elem(&checksum, 0), 9 * nb as u64);
}

#[test]
fn served_owner_copies_join_the_copyset() {
    // A reader pulling a page from an owner that never accessed it gives
    // the owner a tracked readable copy; the next writer must invalidate
    // it (this is the precise shape of the regression).
    let mut dsm = Dsm::builder(ProtocolKind::Sc)
        .nprocs(3)
        .sc_invariant_checks(true)
        .build();
    let data = dsm.alloc_page_aligned::<u64>(512);
    let probe = data;
    let out = dsm
        .run(move |p| {
            // p1 reads first (page owned by untouched p0), then p2
            // writes, then everyone reads.
            if p.index() == 1 {
                assert_eq!(data.get(p, 0), 0);
            }
            p.barrier();
            if p.index() == 2 {
                data.set(p, 0, 7);
            }
            p.barrier();
            assert_eq!(data.get(p, 0), 7, "stale copy at p{}", p.index());
        })
        .unwrap();
    assert_eq!(out.read_vec(&probe)[0], 7);
}
