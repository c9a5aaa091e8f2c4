//! Hot-path microbenchmarks: the per-event constants the allocation-lean
//! refactor targets — chunked diff encode/apply, the page pool, and the
//! scheduler pick — measured with plain wall-clock loops so the numbers
//! can be emitted as machine-readable JSON (`BENCH_hotpaths.json`) and
//! tracked across PRs.

use std::fmt::Write as _;
use std::time::Instant;

use adsm_core::{Dsm, ProtocolKind, RunReport, SimTime};
use adsm_mempage::{Diff, PagePool, PAGE_SIZE};

/// Times `f` adaptively: batches are doubled until a measured span
/// exceeds ~10 ms; the whole measurement repeats five times and the
/// minimum mean ns per call is returned (the minimum is robust against
/// scheduling noise and frequency excursions).
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut batch = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            let dt = start.elapsed();
            if dt.as_millis() >= 10 || batch >= 1 << 24 {
                best = best.min(dt.as_nanos() as f64 / batch as f64);
                break;
            }
            batch *= 2;
        }
    }
    best
}

/// A twin/page pair with `dirty` modified words spread across the page.
pub fn dirty_page(dirty: usize) -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; PAGE_SIZE];
    let mut cur = twin.clone();
    let words = PAGE_SIZE / 4;
    for k in 0..dirty {
        let w = k * words / dirty.max(1);
        cur[w * 4] = 7;
    }
    (twin, cur)
}

/// A happened-before chain of `k` diffs over one page, shaped like the
/// paper's §3.2 diff-accumulation pattern — the input the merge
/// procedure sees when a reader validates a page that successive
/// intervals kept rewriting: every interval rewrites a contested
/// half-page band (so the later diff wins every contested word) plus a
/// small private stripe. Returns the diffs in happened-before order
/// together with the base page and the expected merge result.
pub fn pending_diff_chain(k: usize) -> (Vec<Diff>, Vec<u8>, Vec<u8>) {
    let mut page = vec![0u8; PAGE_SIZE];
    let base = page.clone();
    let mut diffs = Vec::with_capacity(k);
    let contested = PAGE_SIZE / 2;
    let stripe = (PAGE_SIZE / 2) / k.max(1);
    for i in 0..k {
        let mut next = page.clone();
        // The accumulation band every interval rewrites.
        next[..contested].fill(i as u8 + 1);
        // This interval's private stripe.
        let own = contested + i * stripe;
        next[own..own + stripe].fill(0x40 + i as u8);
        diffs.push(Diff::encode(&page, &next));
        page = next;
    }
    (diffs, base, page)
}

/// Measured hot-path numbers (all ns/op unless noted).
pub struct HotpathReport {
    pub encode_sparse_chunked: f64,
    pub encode_sparse_naive: f64,
    pub encode_dense_chunked: f64,
    pub encode_dense_naive: f64,
    pub encode_into_sparse: f64,
    pub apply_sparse: f64,
    pub apply_onto_sparse: f64,
    pub pool_get_copy: f64,
    pub vec_to_vec: f64,
    pub pick_det_8: f64,
    pub pick_det_64: f64,
    pub pick_fuzz_8: f64,
    /// Merge cost of a validate_page with 4 pending diffs: the shared
    /// handles applied in order (`Diff::apply_many`).
    pub validate_merge4: f64,
    /// Span-guard read of one page (512 u64) through a zero-copy view …
    pub span_guard_ns: f64,
    /// … vs the same page decoded by the new buffered `read_into` …
    pub span_read_into_ns: f64,
    /// … vs the pre-span-guard `read_into` (per-call byte temporary) …
    pub span_legacy_read_into_ns: f64,
    /// … vs a per-element `get` loop (one rights check + tick each).
    pub span_elem_loop_ns: f64,
    /// Heap allocations per guard-span read in steady state (target: 0).
    pub span_guard_allocs: f64,
    /// Deep diff copies on the fetch path of a real MW run (target: 0).
    pub fetch_clones: u64,
    /// Shared-handle diff fetches in the same run (sanity: > 0, the
    /// merge path was actually exercised).
    pub diffs_fetched: u64,
    /// SOR steady state: fresh pool allocations per extra simulated
    /// interval (the acceptance target is exactly 0).
    pub allocs_per_interval: f64,
    pub steady_intervals: u64,
    pub steady_reuse_delta: u64,
}

impl HotpathReport {
    /// Speedup of the chunked encoder over the naive word scan on the
    /// sparse (8 dirty words) page.
    pub fn sparse_speedup(&self) -> f64 {
        self.encode_sparse_naive / self.encode_sparse_chunked
    }

    /// Pooled page copy cost relative to a raw heap `to_vec` (the
    /// acceptance band is ≤ 1.2).
    pub fn pool_copy_ratio(&self) -> f64 {
        self.pool_get_copy / self.vec_to_vec
    }

    /// Speedup of the guard-span read over the pre-span-guard
    /// `read_into` on a one-page span (the acceptance floor is 2×).
    pub fn span_speedup(&self) -> f64 {
        self.span_legacy_read_into_ns / self.span_guard_ns
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"hotpaths\",");
        let _ = writeln!(s, "  \"page_size\": {PAGE_SIZE},");
        let _ = writeln!(s, "  \"encode\": {{");
        let _ = writeln!(s, "    \"sparse_dirty_words\": 8,");
        let _ = writeln!(
            s,
            "    \"sparse_chunked_ns\": {:.1},",
            self.encode_sparse_chunked
        );
        let _ = writeln!(
            s,
            "    \"sparse_naive_ns\": {:.1},",
            self.encode_sparse_naive
        );
        let _ = writeln!(s, "    \"sparse_speedup\": {:.2},", self.sparse_speedup());
        let _ = writeln!(
            s,
            "    \"dense_chunked_ns\": {:.1},",
            self.encode_dense_chunked
        );
        let _ = writeln!(s, "    \"dense_naive_ns\": {:.1},", self.encode_dense_naive);
        let _ = writeln!(
            s,
            "    \"encode_into_sparse_ns\": {:.1}",
            self.encode_into_sparse
        );
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"apply\": {{");
        let _ = writeln!(s, "    \"sparse_ns\": {:.1},", self.apply_sparse);
        let _ = writeln!(
            s,
            "    \"apply_onto_sparse_ns\": {:.1}",
            self.apply_onto_sparse
        );
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"validate\": {{");
        let _ = writeln!(s, "    \"pending_diffs\": 4,");
        let _ = writeln!(
            s,
            "    \"merge4_apply_many_ns\": {:.1},",
            self.validate_merge4
        );
        let _ = writeln!(s, "    \"fetch_clones\": {},", self.fetch_clones);
        let _ = writeln!(s, "    \"diffs_fetched\": {}", self.diffs_fetched);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"span_access\": {{");
        let _ = writeln!(s, "    \"span_elems\": 512,");
        let _ = writeln!(s, "    \"guard_ns\": {:.1},", self.span_guard_ns);
        let _ = writeln!(s, "    \"read_into_ns\": {:.1},", self.span_read_into_ns);
        let _ = writeln!(
            s,
            "    \"legacy_read_into_ns\": {:.1},",
            self.span_legacy_read_into_ns
        );
        let _ = writeln!(s, "    \"elem_loop_ns\": {:.1},", self.span_elem_loop_ns);
        let _ = writeln!(
            s,
            "    \"guard_vs_legacy_speedup\": {:.2},",
            self.span_speedup()
        );
        let _ = writeln!(
            s,
            "    \"guard_allocs_per_span\": {:.4}",
            self.span_guard_allocs
        );
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"pool\": {{");
        let _ = writeln!(s, "    \"get_copy_ns\": {:.1},", self.pool_get_copy);
        let _ = writeln!(s, "    \"heap_to_vec_ns\": {:.1},", self.vec_to_vec);
        let _ = writeln!(s, "    \"copy_ratio\": {:.2}", self.pool_copy_ratio());
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"sched_pick\": {{");
        let _ = writeln!(s, "    \"det_8_tasks_ns\": {:.1},", self.pick_det_8);
        let _ = writeln!(s, "    \"det_64_tasks_ns\": {:.1},", self.pick_det_64);
        let _ = writeln!(s, "    \"fuzz_8_tasks_ns\": {:.1}", self.pick_fuzz_8);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"steady_state\": {{");
        let _ = writeln!(s, "    \"workload\": \"sor_mw_4procs\",");
        let _ = writeln!(s, "    \"extra_intervals\": {},", self.steady_intervals);
        let _ = writeln!(
            s,
            "    \"allocs_per_interval\": {:.4},",
            self.allocs_per_interval
        );
        let _ = writeln!(s, "    \"pool_reuse_delta\": {}", self.steady_reuse_delta);
        let _ = writeln!(s, "  }}");
        let _ = write!(s, "}}");
        s
    }
}

/// Cluster size and iteration counts of the steady-state workload; the
/// interval denominator below is derived from these.
const SOR_NPROCS: usize = 4;
const SOR_SHORT_ITERS: usize = 3;
const SOR_LONG_ITERS: usize = 9;
/// Barriers (= interval closes per processor) per SOR iteration.
const SOR_BARRIERS_PER_ITER: usize = 2;

/// SOR-style red/black sweep used for the steady-state allocation count
/// (same shape as the `allocation_free` integration test).
fn sor_run(iters: usize) -> RunReport {
    const NPROCS: usize = SOR_NPROCS;
    const N: usize = 64;
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(NPROCS).build();
    let grid = dsm.alloc_page_aligned::<u64>(N * N);
    dsm.run(move |p| {
        let rows = N / p.nprocs();
        let lo = p.index() * rows;
        for it in 0..iters {
            for colour in 0..2usize {
                for r in lo..lo + rows {
                    if r % 2 != colour {
                        continue;
                    }
                    for c in 0..N {
                        let up = if r == 0 {
                            0
                        } else {
                            grid.get(p, (r - 1) * N + c)
                        };
                        let v = up / 2 + (it + colour) as u64;
                        grid.set(p, r * N + c, v);
                    }
                }
                p.compute(SimTime::from_us(20));
                p.barrier();
            }
        }
    })
    .expect("SOR bench run completes")
    .report
}

/// Timed numbers of the `span_access` section: the application-facing
/// access layer on a one-page span (512 u64), measured **inside** a
/// single-processor MW run so every path pays its real per-access
/// machinery (rights checks, ticks, turn points).
fn measure_span_access() -> (f64, f64, f64, f64, f64) {
    use std::sync::{Arc, Mutex};
    const ELEMS: usize = 512; // exactly one page of u64
    let mut dsm = Dsm::builder(ProtocolKind::Mw).nprocs(1).build();
    let data = dsm.alloc_page_aligned::<u64>(ELEMS);
    let out = Arc::new(Mutex::new((0.0, 0.0, 0.0, 0.0, 0.0)));
    let sink = out.clone();
    dsm.run(move |p| {
        // Fault the page in for write once; reads never fault again.
        let seed: Vec<u64> = (0..ELEMS as u64).collect();
        data.write_from(p, 0, &seed);
        let mut buf = vec![0u64; ELEMS];

        // Guard span: zero-copy view, elements decoded in place.
        let guard = time_ns(|| {
            let v = data.view(p, 0..ELEMS);
            std::hint::black_box(v.iter().fold(0u64, u64::wrapping_add));
        });
        // New buffered bulk path (span guard + decode into a buffer).
        let read_into = time_ns(|| {
            data.read_into(p, 0, &mut buf);
            std::hint::black_box(buf.iter().copied().fold(0u64, u64::wrapping_add));
        });
        // The pre-span-guard bulk path: per-call byte temporary.
        let legacy = time_ns(|| {
            data.legacy_read_into(p, 0, &mut buf);
            std::hint::black_box(buf.iter().copied().fold(0u64, u64::wrapping_add));
        });
        // Element loop: one rights check + tick + turn point per load.
        let elem_loop = time_ns(|| {
            let mut sum = 0u64;
            for i in 0..ELEMS {
                sum = sum.wrapping_add(data.get(p, i));
            }
            std::hint::black_box(sum);
        });
        // Steady-state allocations per guard span (exact, per-thread).
        const ROUNDS: u64 = 4096;
        let before = crate::alloc_count::thread_allocs();
        for _ in 0..ROUNDS {
            let v = data.view(p, 0..ELEMS);
            std::hint::black_box(v.at(11));
        }
        let allocs = (crate::alloc_count::thread_allocs() - before) as f64 / ROUNDS as f64;

        *sink.lock().unwrap() = (guard, read_into, legacy, elem_loop, allocs);
    })
    .expect("span-access bench run completes");
    let res = *out.lock().unwrap();
    res
}

/// Runs the whole hot-path suite.
pub fn measure_hotpaths() -> HotpathReport {
    let (stwin, scur) = dirty_page(8);
    let (dtwin, dcur) = dirty_page(PAGE_SIZE / 4);

    let encode_sparse_chunked = time_ns(|| {
        std::hint::black_box(Diff::encode(&stwin, &scur));
    });
    let encode_sparse_naive = time_ns(|| {
        std::hint::black_box(Diff::encode_naive(&stwin, &scur));
    });
    let encode_dense_chunked = time_ns(|| {
        std::hint::black_box(Diff::encode(&dtwin, &dcur));
    });
    let encode_dense_naive = time_ns(|| {
        std::hint::black_box(Diff::encode_naive(&dtwin, &dcur));
    });
    let mut reused = Diff::default();
    let encode_into_sparse = time_ns(|| {
        Diff::encode_into(&stwin, &scur, &mut reused);
        std::hint::black_box(&reused);
    });

    let diff = Diff::encode(&stwin, &scur);
    let mut target = stwin.clone();
    let apply_sparse = time_ns(|| {
        diff.apply(std::hint::black_box(&mut target));
    });
    let mut onto = vec![0u8; PAGE_SIZE];
    let apply_onto_sparse = time_ns(|| {
        diff.apply_onto(&stwin, std::hint::black_box(&mut onto));
    });

    // The merge procedure at 4 pending diffs, fetched as shared handles
    // and applied in order.
    let (chain, merge_base, merge_expect) = pending_diff_chain(4);
    let mut merge_page = merge_base.clone();
    let chain_refs: Vec<&Diff> = chain.iter().collect();
    let validate_merge4 = time_ns(|| {
        merge_page.copy_from_slice(&merge_base);
        Diff::apply_many(&chain_refs, std::hint::black_box(&mut merge_page));
    });
    assert_eq!(merge_page, merge_expect, "apply_many result");

    let pool = PagePool::new();
    let pool_get_copy = time_ns(|| {
        std::hint::black_box(pool.get_copy(&scur));
    });
    let vec_to_vec = time_ns(|| {
        std::hint::black_box(scur.to_vec());
    });

    const ROUNDS: usize = 4096;
    let pick_det_8 = time_ns(|| {
        std::hint::black_box(adsm_engine::sched_pick_rounds(8, None, ROUNDS));
    }) / ROUNDS as f64;
    let pick_det_64 = time_ns(|| {
        std::hint::black_box(adsm_engine::sched_pick_rounds(64, None, ROUNDS));
    }) / ROUNDS as f64;
    let pick_fuzz_8 = time_ns(|| {
        std::hint::black_box(adsm_engine::sched_pick_rounds(8, Some(42), ROUNDS));
    }) / ROUNDS as f64;

    let (
        span_guard_ns,
        span_read_into_ns,
        span_legacy_read_into_ns,
        span_elem_loop_ns,
        span_guard_allocs,
    ) = measure_span_access();

    let short = sor_run(SOR_SHORT_ITERS);
    let long = sor_run(SOR_LONG_ITERS);
    // The fetch path of a real MW run: diffs must flow to validations as
    // shared handles only.
    let fetch_clones = long.proto.diff_fetch_clones;
    let diffs_fetched = long.proto.diffs_fetched;
    // One interval close per processor per barrier.
    let steady_intervals =
        ((SOR_LONG_ITERS - SOR_SHORT_ITERS) * SOR_BARRIERS_PER_ITER * SOR_NPROCS) as u64;
    let created_delta = long
        .proto
        .pool_pages_created
        .saturating_sub(short.proto.pool_pages_created);
    let allocs_per_interval = created_delta as f64 / steady_intervals as f64;
    let steady_reuse_delta = long
        .proto
        .pool_pages_reused
        .saturating_sub(short.proto.pool_pages_reused);

    HotpathReport {
        encode_sparse_chunked,
        encode_sparse_naive,
        encode_dense_chunked,
        encode_dense_naive,
        encode_into_sparse,
        apply_sparse,
        apply_onto_sparse,
        pool_get_copy,
        vec_to_vec,
        pick_det_8,
        pick_det_64,
        pick_fuzz_8,
        validate_merge4,
        span_guard_ns,
        span_read_into_ns,
        span_legacy_read_into_ns,
        span_elem_loop_ns,
        span_guard_allocs,
        fetch_clones,
        diffs_fetched,
        allocs_per_interval,
        steady_intervals,
        steady_reuse_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_page_produces_the_requested_density() {
        let (twin, cur) = dirty_page(8);
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.modified_bytes(), 8 * 4);
        assert_eq!(d, Diff::encode_naive(&twin, &cur));
    }

    #[test]
    fn pending_diff_chain_merges_to_the_final_page() {
        let (chain, base, expect) = pending_diff_chain(4);
        assert_eq!(chain.len(), 4);
        // Overlap: every diff after the first rewrites the common band.
        assert!(chain[0].overlaps(&chain[1]));
        let mut seq = base.clone();
        for d in &chain {
            d.apply(&mut seq);
        }
        assert_eq!(seq, expect);
        let refs: Vec<&Diff> = chain.iter().collect();
        let mut merged = base.clone();
        Diff::apply_many(&refs, &mut merged);
        assert_eq!(merged, expect);
    }

    #[test]
    fn json_report_is_well_formed() {
        let r = HotpathReport {
            encode_sparse_chunked: 100.0,
            encode_sparse_naive: 400.0,
            encode_dense_chunked: 1.0,
            encode_dense_naive: 1.0,
            encode_into_sparse: 1.0,
            apply_sparse: 1.0,
            apply_onto_sparse: 1.0,
            pool_get_copy: 1.0,
            vec_to_vec: 1.0,
            pick_det_8: 1.0,
            pick_det_64: 1.0,
            pick_fuzz_8: 1.0,
            validate_merge4: 100.0,
            span_guard_ns: 500.0,
            span_read_into_ns: 700.0,
            span_legacy_read_into_ns: 1500.0,
            span_elem_loop_ns: 9000.0,
            span_guard_allocs: 0.0,
            fetch_clones: 0,
            diffs_fetched: 12,
            allocs_per_interval: 0.0,
            steady_intervals: 48,
            steady_reuse_delta: 10,
        };
        assert!((r.sparse_speedup() - 4.0).abs() < 1e-9);
        assert!((r.pool_copy_ratio() - 1.0).abs() < 1e-9);
        assert!((r.span_speedup() - 3.0).abs() < 1e-9);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"sparse_speedup\": 4.00"));
        assert!(json.contains("\"merge4_apply_many_ns\": 100.0"));
        assert!(json.contains("\"guard_vs_legacy_speedup\": 3.00"));
        assert!(json.contains("\"guard_allocs_per_span\": 0.0000"));
        assert!(json.contains("\"fetch_clones\": 0"));
        assert!(json.contains("\"allocs_per_interval\": 0.0000"));
    }
}
