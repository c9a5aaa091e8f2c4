//! Micro-kernels: one ns/op figure per public hot-path function of each
//! layer, timed from outside. They run in their own pinned child, each
//! figure is the median of [`SAMPLES`] samples of at least
//! [`SAMPLE_TIME`] each, and every input derives from `--seed`.

use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use adsm_apps::{App, RunOptions, Scale};
use adsm_core::{Dsm, ExecBackend, ProtocolKind};
use adsm_engine::{Engine, Task};
use adsm_mempage::{AccessRights, Diff, FaultKind, PageId, PagePool, PagedMemory, PAGE_SIZE};
use adsm_netsim::{Delivery, MsgKind, NetStats, Scenario, SimTime};
use adsm_vclock::{ProcId, VectorClock};

use crate::host::CpuMask;
use crate::metric::Metric;
use crate::stats::{median, splitmix64};
use crate::workload::{chaos_scenario, run_cell, Cell};

/// Samples per figure.
const SAMPLES: usize = 5;
/// Least wall time of one sample (5 × 40 ms = 200 ms per figure).
const SAMPLE_TIME: Duration = Duration::from_millis(40);

/// Times `run(batch)` — which does `batch` rounds of work and returns
/// their wall time and how many operations that was — with the batch
/// doubled until one sample lasts [`SAMPLE_TIME`]; the figure is the
/// median ns/op of [`SAMPLES`] samples.
fn figure(name: &str, mut run: impl FnMut(u64) -> (Duration, u64)) -> Metric {
    run(1); // warm-up
    let mut batch = 1u64;
    while run(batch).0 < SAMPLE_TIME && batch < 1 << 32 {
        batch *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (wall, ops) = run(batch);
            wall.as_nanos() as f64 / ops as f64
        })
        .collect();
    Metric::median_of(name, &samples, "ns")
}

/// A ns/op figure for a plain closure.
fn kernel(name: &str, mut f: impl FnMut()) -> Metric {
    figure(name, |batch| {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        (start.elapsed(), batch)
    })
}

/// A twin/current page pair: seeded random contents, `dirty_words`
/// 4-byte words changed at seeded distinct positions. Returns the pair
/// and the byte window `[lo, hi)` containing every change.
pub fn dirty_page(seed: u64, dirty_words: usize) -> (Vec<u8>, Vec<u8>, (usize, usize)) {
    let words = PAGE_SIZE / 4;
    assert!(dirty_words <= words);
    let mut twin = vec![0u8; PAGE_SIZE];
    for (i, chunk) in twin.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&splitmix64(seed ^ (i as u64) << 20).to_le_bytes());
    }
    let mut cur = twin.clone();
    // A seeded permutation prefix: distinct word positions.
    let mut order: Vec<usize> = (0..words).collect();
    for k in 0..dirty_words {
        let pick = k + (splitmix64(seed.wrapping_add(0xd1f7) ^ k as u64) as usize) % (words - k);
        order.swap(k, pick);
    }
    let (mut lo, mut hi) = (PAGE_SIZE, 0);
    for &w in &order[..dirty_words] {
        cur[w * 4] ^= 0xff;
        lo = lo.min(w * 4);
        hi = hi.max(w * 4 + 4);
    }
    (twin, cur, (lo, hi))
}

/// Like [`dirty_page`], with every change inside one aligned 256-byte
/// window (the dirty watermark a span guard records).
pub fn windowed_page(seed: u64) -> (Vec<u8>, Vec<u8>, (usize, usize)) {
    let (twin, _, _) = dirty_page(seed, 0);
    let mut cur = twin.clone();
    let lo = (splitmix64(seed ^ 0x77) as usize % (PAGE_SIZE / 256)) * 256;
    for k in 0..8 {
        cur[lo + k * 32] ^= 0xff;
    }
    (twin, cur, (lo, lo + 256))
}

/// A vector clock of `n` entries with seeded sequence numbers.
pub fn seeded_clock(seed: u64, n: usize) -> VectorClock {
    let mut vc = VectorClock::new(n);
    for i in 0..n {
        vc.set(
            ProcId::new(i),
            (splitmix64(seed ^ (i as u64) << 8) % 1000) as u32,
        );
    }
    vc
}

fn mempage(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut diff = Diff::default();

    let (stwin, scur, _) = dirty_page(seed, 8);
    out.push(kernel("mempage.encode_sparse_ns", || {
        Diff::encode_into(black_box(&stwin), black_box(&scur), &mut diff);
        black_box(&diff);
    }));
    let (dtwin, dcur, _) = dirty_page(seed ^ 1, PAGE_SIZE / 8);
    out.push(kernel("mempage.encode_dense_ns", || {
        Diff::encode_into(black_box(&dtwin), black_box(&dcur), &mut diff);
        black_box(&diff);
    }));
    let (wtwin, wcur, (lo, hi)) = windowed_page(seed ^ 2);
    out.push(kernel("mempage.encode_span_ns", || {
        Diff::encode_span_into(black_box(&wtwin), black_box(&wcur), lo, hi, &mut diff);
        black_box(&diff);
    }));

    let sparse = Diff::encode(&stwin, &scur);
    let mut target = stwin.clone();
    out.push(kernel("mempage.apply_sparse_ns", || {
        sparse.apply(black_box(&mut target));
    }));
    assert_eq!(target, scur, "apply reproduces the modified page");

    // Four pending diffs of one page, each a different seeded sparse
    // write set, merged in one k-way pass.
    let chain: Vec<Diff> = (0..4u64)
        .map(|k| {
            let (t, c, _) = dirty_page(seed ^ (0x40 + k), 64);
            Diff::encode(&t, &c)
        })
        .collect();
    let refs: Vec<&Diff> = chain.iter().collect();
    let mut merged = vec![0u8; PAGE_SIZE];
    out.push(kernel("mempage.apply_many4_ns", || {
        Diff::apply_many(&refs, black_box(&mut merged));
    }));

    let pool = PagePool::new();
    out.push(kernel("mempage.pool_get_copy_ns", || {
        black_box(pool.get_copy(black_box(&scur)));
    }));

    let mut mem = PagedMemory::new(4);
    for p in 0..4 {
        mem.set_rights(PageId::new(p), AccessRights::Write);
    }
    let addr = PAGE_SIZE * (splitmix64(seed ^ 3) as usize % 4);
    out.push(kernel("mempage.rights_check_ns", || {
        black_box(mem.first_fault(black_box(addr), PAGE_SIZE, FaultKind::Write));
    }));
    out
}

fn vclock(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    for n in [8usize, 64] {
        let mut a = seeded_clock(seed, n);
        let b = seeded_clock(seed ^ 0xb, n);
        out.push(kernel(&format!("vclock.merge{n}_ns"), || {
            black_box(&mut a).merge(black_box(&b));
        }));
    }
    // `a` has absorbed `b`, so the scan cannot exit early.
    let mut a = seeded_clock(seed, 64);
    let b = seeded_clock(seed ^ 0xb, 64);
    a.merge(&b);
    out.push(kernel("vclock.dominates64_ns", || {
        black_box(black_box(&a).dominates(black_box(&b)));
    }));
    out
}

fn netsim(seed: u64) -> Vec<Metric> {
    let transmit = |name: &str, scenario: Scenario| {
        let scenario = scenario.into_arc();
        figure(name, |batch| {
            // A fresh engine per sample: the journal a lossy run records
            // grows with every deviation, and its growth is part of the
            // cost being measured but must not carry across samples.
            let mut delivery = Delivery::record(scenario.clone(), 8);
            let mut net = NetStats::new();
            let start = Instant::now();
            for i in 0..batch {
                let src = (i % 8) as usize;
                let dst = (src + 1 + (i / 8 % 7) as usize) % 8;
                black_box(delivery.transmit(
                    MsgKind::DiffRequest,
                    64,
                    src,
                    dst,
                    SimTime::from_us(i),
                    SimTime::from_us(200),
                    &mut net,
                ));
            }
            let dt = start.elapsed();
            black_box(&net);
            (dt, batch)
        })
    };
    vec![
        transmit("netsim.transmit_clean_ns", Scenario::perfect()),
        transmit("netsim.transmit_lossy_ns", chaos_scenario(seed)),
    ]
}

/// Runs `body` as every task of `engine` on its own thread; returns the
/// wall time from the instant all threads exist to the last `finish`.
fn run_tasks(engine: &Engine, body: impl Fn(&mut Task) + Sync) -> Duration {
    let n = engine.ntasks();
    let gate = Barrier::new(n + 1);
    let start = std::thread::scope(|s| {
        for id in 0..n {
            let mut task = engine.task(id);
            let (gate, body) = (&gate, &body);
            s.spawn(move || {
                gate.wait();
                task.begin();
                body(&mut task);
                task.finish();
            });
        }
        gate.wait();
        Instant::now()
    });
    start.elapsed()
}

/// ns per turn point: `n` tasks looping `advance` + `yield_turn`. With
/// equal charges the tasks run round-robin, so under the simulator
/// every turn point is a real handoff.
fn turn_kernel(name: &str, n: usize, make: fn(usize) -> Engine) -> Metric {
    figure(name, |turns| {
        let dt = run_tasks(&make(n), |task| {
            for _ in 0..turns {
                task.advance(SimTime::from_us(10));
                task.yield_turn();
            }
        });
        (dt, turns * n as u64)
    })
}

/// ns per block/wake pair under the simulator, barrier-shaped: tasks
/// `1..n` block, task 0 (always the furthest ahead in virtual time, so
/// it runs only once the others are parked) wakes them all.
fn sim_blockwake_kernel(name: &str, n: usize) -> Metric {
    figure(name, |rounds| {
        let dt = run_tasks(&Engine::new(n), |task| {
            for _ in 0..rounds {
                if task.id() == 0 {
                    task.advance(SimTime::from_us(20));
                    task.yield_turn();
                    let now = task.clock();
                    for other in 1..n {
                        task.unblock(other, now);
                    }
                } else {
                    task.advance(SimTime::from_us(10));
                    task.block();
                }
            }
        });
        (dt, rounds * (n as u64 - 1))
    })
}

/// ns per block/wake pair on the threads backend: two tasks pass one
/// permit back and forth.
fn threads_blockwake_kernel(name: &str) -> Metric {
    figure(name, |rounds| {
        let dt = run_tasks(&Engine::threaded(2), |task| {
            let (me, peer) = (task.id(), 1 - task.id());
            for _ in 0..rounds {
                if me == 0 {
                    task.unblock(peer, SimTime::ZERO);
                    task.block();
                } else {
                    task.block();
                    task.unblock(peer, SimTime::ZERO);
                }
            }
        });
        (dt, rounds * 2)
    })
}

fn engine() -> Vec<Metric> {
    const ROUNDS: usize = 4096;
    let pick = |name: &str, n: usize| {
        figure(name, |batch| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(adsm_engine::sched_pick_rounds(n, None, ROUNDS));
            }
            (start.elapsed(), batch * ROUNDS as u64)
        })
    };
    vec![
        turn_kernel("engine.sim_turn8_ns", 8, Engine::new),
        turn_kernel("engine.sim_turn64_ns", 64, Engine::new),
        sim_blockwake_kernel("engine.sim_blockwake8_ns", 8),
        turn_kernel("engine.threads_turn8_ns", 8, Engine::threaded),
        threads_blockwake_kernel("engine.threads_blockwake_ns"),
        pick("engine.pick8_ns", 8),
        pick("engine.pick64_ns", 64),
    ]
}

/// The application-facing access layer, measured inside a one-processor
/// MW run so each path pays its real rights checks and turn points.
fn core(seed: u64) -> Vec<Metric> {
    const ELEMS: usize = 512; // exactly one page of u64
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(1).build();
    let data = dsm.alloc_page_aligned::<u64>(ELEMS);
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = out.clone();
    dsm.run(move |p| {
        let init: Vec<u64> = (0..ELEMS as u64).map(|i| splitmix64(seed ^ i)).collect();
        data.write_from(p, 0, &init);
        let view = kernel("core.span_view_ns", || {
            let v = data.view(p, 0..ELEMS);
            black_box(v.iter().fold(0u64, u64::wrapping_add));
        });
        let mut i = 0;
        let get = kernel("core.elem_get_ns", || {
            black_box(data.get(p, i));
            i = (i + 1) % ELEMS;
        });
        *sink.lock().expect("no panic while held") = vec![view, get];
    })
    .expect("one-processor MW run completes");
    let metrics = out.lock().expect("no panic while held").clone();
    metrics
}

/// Median wall of `runs` runs of one cell at 8 processors.
fn cell_wall_s(cell: Cell, scale: Scale, backend: ExecBackend, runs: usize) -> f64 {
    let opts = RunOptions {
        backend,
        ..RunOptions::default()
    };
    let walls: Vec<f64> = (0..runs)
        .map(|_| {
            let s = run_cell(cell, 8, scale, &opts);
            assert!(s.failure.is_none(), "{cell:?}: {:?}", s.failure);
            s.wall_ns as f64 / 1e9
        })
        .collect();
    median(&walls)
}

/// What pinning buys: the same cell's wall on every CPU of `wide` ÷ on
/// one CPU. `wide` is the mask the child started with, `None` when the
/// child could not be pinned (the ratio is then 1 by construction, and
/// the equal side figures say so).
fn unpinned_ratio(
    name: &str,
    wide: Option<CpuMask>,
    cell: Cell,
    scale: Scale,
    backend: ExecBackend,
    runs: usize,
) -> Metric {
    let pinned_s = cell_wall_s(cell, scale, backend, runs);
    let unpinned_s = match wide {
        Some(mask) if mask.apply() => {
            let s = cell_wall_s(cell, scale, backend, runs);
            crate::host::pin_to_one_cpu();
            s
        }
        _ => pinned_s,
    };
    Metric::new(name, unpinned_s / pinned_s, "ratio")
        .with("pinned_s", pinned_s)
        .with("unpinned_s", unpinned_s)
}

/// Every micro-kernel figure, in layer order. The caller has already
/// pinned the process (`wide` is its mask from before).
pub fn run_all(seed: u64, wide: Option<CpuMask>) -> Vec<Metric> {
    let mut out = mempage(seed);
    out.extend(vclock(seed));
    out.extend(netsim(seed));
    out.extend(engine());
    // The simulator's baton on two CPUs is cross-core wake traffic; the
    // threads backend's answer says whether the cores help at all.
    let mw = |app| Cell {
        app,
        protocol: ProtocolKind::Mw,
    };
    out.push(unpinned_ratio(
        "engine.sim_unpinned_ratio",
        wide,
        mw(App::Fft3d),
        Scale::Small,
        ExecBackend::Sim,
        5,
    ));
    out.push(unpinned_ratio(
        "engine.threads_unpinned_ratio",
        wide,
        mw(App::Sor),
        Scale::Paper,
        ExecBackend::Threads,
        3,
    ));
    out.extend(core(seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_kernel_inputs_are_a_function_of_the_seed() {
        assert_eq!(dirty_page(11, 8), dirty_page(11, 8));
        assert_ne!(dirty_page(11, 8).1, dirty_page(12, 8).1);
        assert_eq!(windowed_page(11), windowed_page(11));
        assert_eq!(seeded_clock(11, 64), seeded_clock(11, 64));
        assert_ne!(seeded_clock(11, 64), seeded_clock(12, 64));
    }

    #[test]
    fn dirty_page_changes_exactly_the_requested_words() {
        for dirty in [0usize, 8, 512, PAGE_SIZE / 4] {
            let (twin, cur, (lo, hi)) = dirty_page(5, dirty);
            let changed = twin
                .chunks(4)
                .zip(cur.chunks(4))
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(changed, dirty);
            let d = Diff::encode(&twin, &cur);
            assert_eq!(d.modified_bytes(), dirty * 4);
            if dirty > 0 {
                assert!(twin[..lo] == cur[..lo] && twin[hi..] == cur[hi..]);
            }
        }
    }

    #[test]
    fn windowed_page_keeps_changes_inside_its_watermark() {
        let (twin, cur, (lo, hi)) = windowed_page(9);
        assert_eq!(hi - lo, 256);
        assert!(twin[..lo] == cur[..lo] && twin[hi..] == cur[hi..]);
        let mut span = Diff::default();
        Diff::encode_span_into(&twin, &cur, lo, hi, &mut span);
        assert_eq!(span, Diff::encode(&twin, &cur));
        assert!(!span.is_empty());
    }

    #[test]
    fn engine_kernels_complete_on_both_backends() {
        // One tiny round of each shape: the patterns must neither
        // deadlock nor trip the simulator's unblock assertion.
        let dt = run_tasks(&Engine::new(4), |task| {
            for _ in 0..3 {
                if task.id() == 0 {
                    task.advance(SimTime::from_us(20));
                    task.yield_turn();
                    let now = task.clock();
                    (1..4).for_each(|o| task.unblock(o, now));
                } else {
                    task.advance(SimTime::from_us(10));
                    task.block();
                }
            }
        });
        assert!(dt > Duration::ZERO);
        run_tasks(&Engine::threaded(2), |task| {
            let peer = 1 - task.id();
            for _ in 0..100 {
                if task.id() == 0 {
                    task.unblock(peer, SimTime::ZERO);
                    task.block();
                } else {
                    task.block();
                    task.unblock(peer, SimTime::ZERO);
                }
            }
        });
    }
}
