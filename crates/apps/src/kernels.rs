//! The three access-pattern microkernels of the paper's Figure 1 —
//! producer-consumer, migratory, and write-write false sharing — plus
//! the **diff accumulation** pattern of §3.2.
//!
//! These drive the protocol-behaviour discussions in §3.1.1/§3.2 and are
//! used by the test suite and the `fig1` reproduction to demonstrate how
//! each protocol treats each pattern (ownership retained / migrated /
//! refused / diffs accumulated).

use adsm_core::{Dsm, ProtocolKind, RunOutcome, SharedVec, SimTime};

use crate::support::work;

/// Iterations each kernel runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParams {
    /// Repetitions of the pattern.
    pub iters: usize,
    /// Processors.
    pub nprocs: usize,
    /// Per-element modelled compute (nanoseconds).
    pub ns_per_elem: u64,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            iters: 6,
            nprocs: 4,
            ns_per_elem: 200,
        }
    }
}

/// Producer-consumer (Fig. 1 top left): processor 0 overwrites a page,
/// everyone else reads it. Under WFS the producer keeps ownership and the
/// page moves without twins or diffs.
pub fn producer_consumer(protocol: ProtocolKind, params: KernelParams) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol).nprocs(params.nprocs).build();
    let page: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(512);
    dsm.run(move |p| {
        for it in 0..params.iters {
            if p.index() == 0 {
                let vals: Vec<u64> = (0..512).map(|i| (it * 1000 + i) as u64).collect();
                page.write_from(p, 0, &vals);
                p.compute(work(512, params.ns_per_elem));
            }
            p.barrier();
            let v = page.get(p, 7);
            assert_eq!(v, (it * 1000 + 7) as u64);
            p.barrier();
        }
    })
    .expect("producer-consumer kernel failed")
}

/// Migratory (Fig. 1 top right): the page travels from processor to
/// processor under a lock, each one rewriting it completely. Under WFS
/// ownership migrates with the page and no twins are made.
pub fn migratory(protocol: ProtocolKind, params: KernelParams) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol).nprocs(params.nprocs).build();
    let page: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(512);
    let nprocs = params.nprocs;
    let out = dsm.run(move |p| {
        for _ in 0..params.iters {
            p.critical(0, |p| {
                let mut vals = page.read_range(p, 0, 512);
                for v in vals.iter_mut() {
                    // Change every byte of every word (true whole-page
                    // granularity).
                    *v = v.wrapping_add(0x0101_0101_0101_0101);
                }
                page.write_from(p, 0, &vals);
                p.compute(work(512, params.ns_per_elem));
            });
        }
        p.barrier();
    });
    let out = out.expect("migratory kernel failed");
    let rounds = (params.iters * nprocs) as u64;
    assert!(
        out.elems(&page)
            .all(|v| v == 0x0101_0101_0101_0101u64.wrapping_mul(rounds)),
        "migratory kernel produced wrong counts"
    );
    out
}

/// Write-write false sharing (Fig. 1 bottom): every processor repeatedly
/// writes its own quarter of one page with no intervening
/// synchronisation, then all synchronise at a barrier. SW ping-pongs;
/// MW diffs; WFS detects the false sharing via ownership refusals and
/// switches the page to MW mode.
pub fn false_sharing(protocol: ProtocolKind, params: KernelParams) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol).nprocs(params.nprocs).build();
    let page: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(512);
    dsm.run(move |p| {
        let chunk = 512 / p.nprocs();
        let base = p.index() * chunk;
        for it in 0..params.iters {
            for i in 0..chunk {
                page.set(p, base + i, ((it + 1) * (base + i + 1)) as u64);
                p.compute(SimTime::from_ns(params.ns_per_elem * 20));
            }
            p.barrier();
            // Read a neighbour's element written in the same epoch.
            let nb = ((p.index() + 1) % p.nprocs()) * chunk;
            assert_eq!(page.get(p, nb), ((it + 1) * (nb + 1)) as u64);
            p.barrier();
        }
    })
    .expect("false-sharing kernel failed")
}

/// Diff accumulation (§3.2): a sequence of writers completely overwrite
/// the same page one after another (barrier-ordered); a reader that
/// touched the page early and reads it again only at the end. Under MW
/// the reader must fetch and apply the diff of **every** intervening
/// interval — *"even if the modifications overwrite each other. This
/// causes extra data to be sent"* — while the adaptive protocols move
/// one whole page. The returned outcome's `DiffReply` traffic measures
/// the accumulation.
pub fn diff_accumulation(protocol: ProtocolKind, params: KernelParams) -> RunOutcome {
    let mut dsm = Dsm::builder(protocol).nprocs(params.nprocs).build();
    let page: SharedVec<u64> = dsm.alloc_page_aligned::<u64>(512);
    let rounds = params.iters;
    // Full-width values: every byte of every word changes each round, so
    // the per-interval diff really is page-sized (values below 2^32 would
    // leave the high half of each u64 untouched and halve the diff).
    let val = |round: usize, i: usize| {
        (((round + 1) * 1000 + i) as u64).wrapping_mul(0x0101_0101_0101_0101)
    };
    let out = dsm.run(move |p| {
        // Everyone (the eventual reader included) holds an initial copy.
        assert_eq!(page.get(p, 0), 0);
        p.barrier();
        for it in 0..rounds {
            // One designated writer per round, never processor 0.
            let writer = 1 + it % (p.nprocs() - 1);
            if p.index() == writer {
                let vals: Vec<u64> = (0..512).map(|i| val(it + 1, i)).collect();
                page.write_from(p, 0, &vals);
                p.compute(work(512, params.ns_per_elem));
            }
            p.barrier();
        }
        // The reader returns after all the overwrites.
        if p.index() == 0 {
            let vals = page.read_range(p, 0, 512);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(*v, val(rounds, i), "stale word {i}");
            }
        }
        p.barrier();
    });
    out.expect("diff-accumulation kernel failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsm_core::MsgKind;

    const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Mw,
        ProtocolKind::Sw,
        ProtocolKind::Wfs,
        ProtocolKind::WfsWg,
    ];

    #[test]
    fn kernels_run_under_all_protocols() {
        let params = KernelParams {
            iters: 3,
            ..KernelParams::default()
        };
        for k in ALL {
            producer_consumer(k, params);
            migratory(k, params);
            false_sharing(k, params);
            diff_accumulation(k, params);
        }
    }

    #[test]
    fn mw_accumulates_diffs_where_adaptive_moves_one_page() {
        // §3.2: with 9 barrier-ordered whole-page overwrites, MW's diff
        // traffic carries each overwrite as its own (page-sized) diff;
        // WFS transfers pages and never requests a diff; WFS+WG measures
        // the large granularity and switches the page to SW mode.
        let params = KernelParams {
            iters: 9,
            ..KernelParams::default()
        };
        let mw = diff_accumulation(ProtocolKind::Mw, params).report;
        let wfs = diff_accumulation(ProtocolKind::Wfs, params).report;
        let wg = diff_accumulation(ProtocolKind::WfsWg, params).report;

        let mw_diff_bytes = mw.net.bytes(MsgKind::DiffReply);
        assert!(
            mw_diff_bytes as usize > 6 * adsm_core::PAGE_SIZE,
            "MW should ship several page-sized diffs (got {mw_diff_bytes} B)"
        );
        assert_eq!(
            wfs.net.bytes(MsgKind::DiffReply),
            0,
            "WFS keeps the page in SW mode: whole pages, no diffs"
        );
        assert!(
            wg.net.bytes(MsgKind::DiffReply) < mw_diff_bytes / 2,
            "WFS+WG must stop diffing once it has measured the granularity"
        );
        // The adaptive protocols move less total data than MW's
        // accumulated diffs on this pattern.
        assert!(wfs.net.total_bytes() < mw.net.total_bytes());
    }

    #[test]
    fn wfs_handles_each_pattern_as_the_paper_describes() {
        let params = KernelParams::default();

        // Producer-consumer: ownership stays with the producer; no twins.
        let pc = producer_consumer(ProtocolKind::Wfs, params);
        assert_eq!(pc.report.proto.twins_created, 0);
        assert_eq!(pc.report.proto.ownership_refusals, 0);

        // Migratory: ownership moves; still no twins.
        let mig = migratory(ProtocolKind::Wfs, params);
        assert!(mig.report.proto.ownership_grants > 0);
        assert_eq!(mig.report.proto.twins_created, 0);

        // False sharing: refusals push the page to MW mode.
        let fs = false_sharing(ProtocolKind::Wfs, params);
        assert!(fs.report.proto.ownership_refusals > 0);
        assert!(fs.report.proto.twins_created > 0);
    }

    #[test]
    fn sw_moves_most_data_under_false_sharing() {
        let params = KernelParams::default();
        let sw = false_sharing(ProtocolKind::Sw, params);
        let wfs = false_sharing(ProtocolKind::Wfs, params);
        let mw = false_sharing(ProtocolKind::Mw, params);
        assert!(sw.report.net.total_bytes() > wfs.report.net.total_bytes());
        assert!(sw.report.net.total_bytes() > mw.report.net.total_bytes());
    }
}
