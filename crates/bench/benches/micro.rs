//! Micro-benchmarks of the protocol substrate: the operations whose
//! paper-measured costs calibrate the virtual-time model (§4), plus an
//! ablation of the cost model itself (paper ATM network vs a 10x faster
//! interconnect — the sensitivity §3.2 alludes to).

use adsm_apps::{run_app, App, Scale};
use adsm_bench::hotpaths::dirty_page;
use adsm_core::{CostModel, Dsm, ProtocolKind};
use adsm_mempage::{AccessRights, Diff, PageId, PagePool, PagedMemory, PAGE_SIZE};
use adsm_vclock::{ProcId, VectorClock};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

/// Twin creation and diff encode/apply — the §4 micro-measurements.
fn twin_and_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("twin_and_diff");
    for frac in [1usize, 8, 64] {
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        for i in 0..(PAGE_SIZE / frac / 4) {
            cur[i * 4 * frac] = 7;
        }
        g.bench_function(format!("encode_1of{frac}"), |b| {
            b.iter(|| Diff::encode(&twin, &cur))
        });
        let diff = Diff::encode(&twin, &cur);
        g.bench_function(format!("apply_1of{frac}"), |b| {
            b.iter_batched(
                || twin.clone(),
                |mut page| diff.apply(&mut page),
                BatchSize::SmallInput,
            )
        });
    }
    g.bench_function("twin_copy", |b| {
        let page = vec![3u8; PAGE_SIZE];
        b.iter(|| page.clone())
    });
    g.finish();
}

/// The allocation-lean hot paths: chunked vs naive diff encode on
/// sparse/dense pages, buffer-reusing encode, pooled page copies, and
/// the scheduler's allocation-free pick.
fn bench_hotpaths(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths");

    // Sparse page (8 dirty words) — the write pattern the paper's
    // fine-grained apps produce; the chunked encoder's best case.
    let (stwin, scur) = dirty_page(8);
    g.bench_function("encode_sparse8_chunked", |b| {
        b.iter(|| Diff::encode(&stwin, &scur))
    });
    g.bench_function("encode_sparse8_naive", |b| {
        b.iter(|| Diff::encode_naive(&stwin, &scur))
    });
    let mut reused = Diff::default();
    g.bench_function("encode_into_sparse8", |b| {
        b.iter(|| Diff::encode_into(&stwin, &scur, &mut reused))
    });

    // Dense page (every word dirty) — the chunked encoder must not
    // regress the worst case.
    let (dtwin, dcur) = dirty_page(PAGE_SIZE / 4);
    g.bench_function("encode_dense_chunked", |b| {
        b.iter(|| Diff::encode(&dtwin, &dcur))
    });
    g.bench_function("encode_dense_naive", |b| {
        b.iter(|| Diff::encode_naive(&dtwin, &dcur))
    });

    let diff = Diff::encode(&stwin, &scur);
    let mut onto = vec![0u8; PAGE_SIZE];
    g.bench_function("apply_onto_sparse8", |b| {
        b.iter(|| diff.apply_onto(&stwin, &mut onto))
    });

    // Pooled page copy vs a fresh heap allocation per copy.
    let pool = PagePool::new();
    g.bench_function("pool_get_copy", |b| b.iter(|| pool.get_copy(&scur)));
    g.bench_function("heap_to_vec", |b| b.iter(|| scur.to_vec()));

    // The merge procedure at 4 pending diffs: shared handles applied
    // in order.
    let (chain, merge_base, _) = adsm_bench::hotpaths::pending_diff_chain(4);
    let chain_refs: Vec<&Diff> = chain.iter().collect();
    let mut merge_page = merge_base.clone();
    g.bench_function("validate_merge4_apply_many", |b| {
        b.iter(|| {
            merge_page.copy_from_slice(&merge_base);
            Diff::apply_many(&chain_refs, &mut merge_page);
        })
    });

    // Scheduler pick: single min-scan, no ready-list allocation.
    g.bench_function("sched_pick_det8_x1k", |b| {
        b.iter(|| adsm_engine::sched_pick_rounds(8, None, 1000))
    });
    g.bench_function("sched_pick_fuzz8_x1k", |b| {
        b.iter(|| adsm_engine::sched_pick_rounds(8, Some(7), 1000))
    });
    g.finish();
}

/// Vector-clock operations (per-message protocol overhead).
fn vclock_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("vclock");
    let mut a = VectorClock::new(8);
    let mut b8 = VectorClock::new(8);
    for i in 0..8 {
        a.set(ProcId::new(i), (i * 3) as u32);
        b8.set(ProcId::new(i), (24 - i * 3) as u32);
    }
    g.bench_function("merge_8", |b| {
        b.iter_batched(
            || a.clone(),
            |mut x| {
                x.merge(&b8);
                x
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("dominates_8", |b| b.iter(|| a.dominates(&b8)));
    g.finish();
}

/// Software-MMU fast path: checked page access.
fn mmu_fast_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("mmu");
    let mut mem = PagedMemory::new(4);
    mem.set_rights(PageId::new(0), AccessRights::Write);
    g.bench_function("checked_read_8B", |b| {
        b.iter(|| {
            let bytes = mem.try_read(16, 8).expect("readable");
            bytes[0]
        })
    });
    g.bench_function("checked_write_8B", |b| {
        b.iter(|| {
            mem.try_write(16, &[1, 2, 3, 4, 5, 6, 7, 8])
                .expect("writable")
        })
    });
    g.finish();
}

/// End-to-end simulated run throughput (wall time of the simulator
/// itself, not virtual time).
fn simulator_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.bench_function("sor_tiny_wfs_x4", |b| {
        b.iter(|| {
            let run = run_app(App::Sor, ProtocolKind::Wfs, 4, Scale::Tiny);
            assert!(run.ok);
        })
    });
    g.bench_function("barrier_round_x8", |b| {
        b.iter(|| {
            let dsm = Dsm::builder(ProtocolKind::Mw).nprocs(8).build();
            dsm.run(|p| {
                for _ in 0..10 {
                    p.barrier();
                }
            })
            .expect("barrier round")
        })
    });
    g.finish();
}

/// Ablation: the same false-sharing workload on the paper's ATM network
/// vs a 10x faster interconnect. On fast networks whole-page transfers
/// get relatively cheaper and the diff-vs-page crossover moves (§3.2).
fn network_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_ablation");
    g.sample_size(10);
    for (name, cost) in [
        ("atm_155mbps", CostModel::sparc_atm()),
        ("fast_10x", CostModel::fast_network()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut dsm = Dsm::builder(ProtocolKind::WfsWg)
                    .nprocs(4)
                    .cost_model(cost.clone())
                    .build();
                let data = dsm.alloc_page_aligned::<u64>(512);
                let out = dsm
                    .run(move |p| {
                        let chunk = 512 / p.nprocs();
                        let base = p.index() * chunk;
                        for it in 0..4u64 {
                            for i in 0..chunk {
                                data.set(p, base + i, it * 31 + i as u64);
                            }
                            p.barrier();
                        }
                    })
                    .expect("ablation run");
                out.report.time
            })
        });
    }
    g.finish();
}

criterion_group!(
    micro,
    twin_and_diff,
    bench_hotpaths,
    vclock_ops,
    mmu_fast_path,
    simulator_throughput,
    network_ablation
);
criterion_main!(micro);
