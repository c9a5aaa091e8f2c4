use std::fmt;

use adsm_netsim::{NetStats, SimTime, Trace};

use crate::ProtocolKind;

/// Protocol-level counters for one run (beyond raw network traffic).
///
/// These drive the paper's Table 3 (twin + diff memory) and the detailed
/// per-application discussion in §6.4.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Twins created over the run.
    pub twins_created: u64,
    /// Bytes ever allocated to twins (cumulative).
    pub twin_bytes_created: u64,
    /// Diffs created over the run.
    pub diffs_created: u64,
    /// Bytes ever allocated to diff storage (cumulative wire size).
    pub diff_bytes_created: u64,
    /// Diffs currently alive (created and not yet garbage collected).
    pub diffs_alive: u64,
    /// Bytes of diff storage currently alive.
    pub diff_bytes_alive: u64,
    /// Twins currently alive.
    pub twins_alive: u64,
    /// Bytes of twin storage currently alive.
    pub twin_bytes_alive: u64,
    /// Peak of `diff_bytes_alive + twin_bytes_alive`.
    pub peak_storage_bytes: u64,
    /// Diffs applied (including during GC validation).
    pub diffs_applied: u64,
    /// Garbage collections performed.
    pub gc_runs: u64,
    /// Read faults taken (remote or local).
    pub read_faults: u64,
    /// Write faults taken (remote or local).
    pub write_faults: u64,
    /// Write faults resolved locally by the page's owner (no messages).
    pub soft_write_faults: u64,
    /// Ownership requests granted.
    pub ownership_grants: u64,
    /// Ownership requests refused (adaptive protocols: write-write false
    /// sharing detected).
    pub ownership_refusals: u64,
    /// Page-mode transitions SW -> MW (counted per processor per page).
    pub switches_to_mw: u64,
    /// Page-mode transitions MW -> SW (counted per processor per page).
    pub switches_to_sw: u64,
    /// Full pages transferred (page replies + ownership grants carrying
    /// pages).
    pub pages_transferred: u64,
    /// Ownership migrations performed on read misses (the §7 migratory
    /// optimisation, when enabled).
    pub migratory_grants: u64,
    /// SC comparator: read copies invalidated before writes proceeded.
    pub invalidations: u64,
    /// HLRC comparator: diffs flushed to page homes at interval close.
    pub home_flushes: u64,
    /// Page buffers the page pool allocated from the heap (pool misses).
    /// Flat after warm-up: the steady state allocates nothing.
    pub pool_pages_created: u64,
    /// Page buffers the page pool served by recycling (pool hits).
    pub pool_pages_reused: u64,
    /// Diffs handed to the merge procedure by the per-page diff store
    /// (every one a shared `Arc` handle).
    pub diffs_fetched: u64,
    /// Merge scratch sets allocated from the heap (`validate_page` pool
    /// misses). Flat after warm-up: steady-state merges draw their
    /// delta diff and working lists from the world's scratch pool.
    pub merge_scratch_created: u64,
    /// Write-notice lists heap-allocated at interval close. Closing an
    /// interval compares the fresh notice list against the processor's
    /// previous record and **shares** that record's `Arc` when the list
    /// is unchanged — the steady state of an iterative application
    /// (same pages written every interval) — so this counter is flat
    /// after warm-up (asserted in `allocation_free.rs`). The closing
    /// vector-clock snapshot is delta-shared the same way; see
    /// [`close_vc_shares`](Self::close_vc_shares).
    pub interval_close_allocs: u64,
    /// Interval closes whose vector-timestamp snapshot was
    /// **delta-shared** against the processor's previous close: when no
    /// *other* processor's entry changed between two closes (no
    /// intervening acquire merged anything — the steady state of a
    /// cached-lock loop), the new record reuses the previous record's
    /// `Arc<VectorClock>` base and carries only its own new sequence
    /// number, so the close allocates no clock at all. Closes that do
    /// see a changed base pay one fresh `Arc<VectorClock>` clone.
    pub close_vc_shares: u64,
    /// Message copies discarded by the Hermes-style epoch fence: the
    /// destination's incarnation was dead (crashed, not yet restarted)
    /// when the copy arrived. Mirrors the delivery layer's
    /// [`NetStats::epoch_drops`](adsm_netsim::NetStats); **zero** on
    /// every crash-free run (asserted in `allocation_free.rs`).
    pub epoch_drops: u64,
    /// Process crashes taken (one per `ProcCrash` fault that fired).
    pub proc_crashes: u64,
    /// Post-restart page fetches re-acquiring a copy the crash wiped:
    /// the restarted processor held the page before the crash and had
    /// to fetch it again on first access. Counted once per wiped page,
    /// on its first post-crash fetch. Zero on crash-free runs.
    pub recovery_refetches: u64,
    /// Pages whose HLRC home moved to the replicated backup when a
    /// `HomeFailover` fault fired. Zero on failover-free runs.
    pub failover_promotions: u64,
    /// Total virtual time restarted processors spent down + recovering
    /// (restart time minus crash time, summed over crashes, plus the
    /// recovery re-integration costs). Zero on crash-free runs.
    pub recovery_ns: u64,
    /// Host wall-clock cost of `validate_page` calls (the paper's merge
    /// procedure). Only populated when
    /// [`measure_host_costs`](crate::DsmBuilder::measure_host_costs) is
    /// on; `benchmark/` reports its percentiles (`core.validate_*`).
    pub validate_wall: NsHistogram,
    /// Host wall-clock cost of barrier completion (global clock,
    /// per-processor fan-down, adaptation mechanism 3, GC, release
    /// broadcast). One sample per episode; gated like `validate_wall`.
    pub barrier_wall: NsHistogram,
    /// Host wall-clock cost of one barrier **arrival**'s share of the
    /// fan-in, which is recording itself: all integration work is the
    /// completion's ([`barrier_wall`](Self::barrier_wall)), so samples
    /// must not grow with the processor count — the scaling gate of
    /// `repro bench-scale`. One sample per arrival; gated like
    /// `validate_wall`.
    pub barrier_fanin_wall: NsHistogram,
}

impl ProtocolStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total twin+diff bytes ever allocated — the paper's Table 3
    /// "memory consumption" metric.
    pub fn storage_bytes_created(&self) -> u64 {
        self.twin_bytes_created + self.diff_bytes_created
    }

    /// Records a twin of `bytes` bytes coming into existence.
    pub fn twin_created(&mut self, bytes: usize) {
        self.twins_created += 1;
        self.twin_bytes_created += bytes as u64;
        self.twins_alive += 1;
        self.twin_bytes_alive += bytes as u64;
        self.update_peak();
    }

    /// Records a twin being discarded.
    pub fn twin_dropped(&mut self, bytes: usize) {
        self.twins_alive -= 1;
        self.twin_bytes_alive -= bytes as u64;
    }

    /// Records a diff of `bytes` wire bytes being stored.
    pub fn diff_created(&mut self, bytes: usize) {
        self.diffs_created += 1;
        self.diff_bytes_created += bytes as u64;
        self.diffs_alive += 1;
        self.diff_bytes_alive += bytes as u64;
        self.update_peak();
    }

    /// Records `n` diffs totalling `bytes` wire bytes being discarded.
    pub fn diffs_dropped(&mut self, n: u64, bytes: u64) {
        self.diffs_alive -= n;
        self.diff_bytes_alive -= bytes;
    }

    fn update_peak(&mut self) {
        let alive = self.diff_bytes_alive + self.twin_bytes_alive;
        if alive > self.peak_storage_bytes {
            self.peak_storage_bytes = alive;
        }
    }
}

/// A log-scaled histogram of nanosecond samples: 8 sub-buckets per
/// octave (≈12.5% value resolution), exact below 16 ns. Fixed memory,
/// no allocation per sample — cheap enough to sit on a hot path behind
/// a config flag.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NsHistogram {
    /// Bucket counts, grown on demand (index ≈ log₂ with 3 mantissa
    /// bits; see [`NsHistogram::bucket`]).
    buckets: Vec<u64>,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl NsHistogram {
    /// Bucket index for a sample: identity below 16, then
    /// `16 + 8·(exp−4) + top-3-mantissa-bits`.
    fn bucket(ns: u64) -> usize {
        if ns < 16 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as usize;
        let frac = ((ns >> (exp - 3)) & 0b111) as usize;
        16 + (exp - 4) * 8 + frac
    }

    /// Upper-bound nanosecond value represented by bucket `i` (the
    /// value reported for percentiles landing in the bucket).
    fn bucket_value(i: usize) -> u64 {
        if i < 16 {
            return i as u64;
        }
        let exp = (i - 16) / 8 + 4;
        let frac = ((i - 16) % 8) as u64;
        // Start of the bucket plus one sub-bucket width.
        ((8 + frac + 1) << exp) / 8
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let b = Self::bucket(ns);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Folds another histogram into this one (bucket-wise sum): the
    /// aggregation the scale sweep uses to combine per-run fan-in
    /// histograms into one distribution per (proc count, backend)
    /// point before taking percentiles.
    pub fn merge(&mut self, other: &NsHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The value at quantile `q` in [0, 1], to bucket resolution
    /// (≈12.5%). Returns 0 when empty.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

impl fmt::Display for ProtocolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} twins, {} diffs, {:.2} MB twin+diff storage, {} GCs",
            self.twins_created,
            self.diffs_created,
            self.storage_bytes_created() as f64 / 1e6,
            self.gc_runs,
        )
    }
}

/// Everything measured during one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Protocol that produced the run.
    pub protocol: ProtocolKind,
    /// Execution backend that drove the run. Simulator reports are
    /// deterministic; threads-backend reports are honest accumulations
    /// but schedule-dependent (see
    /// [`ExecBackend`](crate::ExecBackend)).
    pub backend: crate::ExecBackend,
    /// Number of processors.
    pub nprocs: usize,
    /// Per-processor finishing virtual times.
    pub proc_times: Vec<SimTime>,
    /// Wall virtual time of the run (max over processors).
    pub time: SimTime,
    /// Network traffic (Table 4).
    pub net: NetStats,
    /// Protocol counters (Table 3 and §6.4).
    pub proto: ProtocolStats,
    /// Event trace (Figure 3).
    pub trace: Trace,
    /// Sharing profile (Table 2).
    pub profile: crate::profile::ProfileSummary,
    /// Pages in SW mode on a majority of processors when the run ended
    /// (adaptive protocols; equals all touched pages for SW, none for MW).
    pub final_sw_pages: usize,
    /// Per-page final adaptation outcome (`true` = touched and SW on a
    /// majority of processors). `final_sw_pages` is its popcount; the
    /// static-hint adaptation policy
    /// ([`AdaptPolicyKind::StaticHint`](crate::AdaptPolicyKind::StaticHint))
    /// is seeded from a profiling run's map.
    pub sw_page_map: Vec<bool>,
    /// Pages ever touched by any processor.
    pub touched_pages: usize,
}

impl RunReport {
    /// Speedup of this run relative to a sequential time.
    pub fn speedup(&self, sequential: SimTime) -> f64 {
        sequential.as_ns() as f64 / self.time.as_ns() as f64
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} x{}] time {} | {} | {}",
            self.protocol, self.nprocs, self.time, self.net, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_accounting() {
        let mut s = ProtocolStats::new();
        s.twin_created(4096);
        s.twin_created(4096);
        assert_eq!(s.twins_alive, 2);
        assert_eq!(s.peak_storage_bytes, 8192);
        s.twin_dropped(4096);
        assert_eq!(s.twins_alive, 1);
        assert_eq!(s.twin_bytes_created, 8192);
        // Peak is sticky.
        assert_eq!(s.peak_storage_bytes, 8192);
    }

    #[test]
    fn diff_accounting() {
        let mut s = ProtocolStats::new();
        s.diff_created(100);
        s.diff_created(50);
        assert_eq!(s.diffs_alive, 2);
        s.diffs_dropped(2, 150);
        assert_eq!(s.diffs_alive, 0);
        assert_eq!(s.diff_bytes_alive, 0);
        assert_eq!(s.storage_bytes_created(), 150);
    }

    #[test]
    fn ns_histogram_percentiles() {
        let mut h = NsHistogram::default();
        assert_eq!(h.percentile_ns(0.5), 0);
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean_ns() - 500.5).abs() < 1e-9);
        assert_eq!(h.max_ns(), 1000);
        // Bucket resolution is ~12.5%: accept that much slack.
        let p50 = h.percentile_ns(0.5) as f64;
        assert!((440.0..=580.0).contains(&p50), "p50 {p50}");
        let p99 = h.percentile_ns(0.99) as f64;
        assert!((870.0..=1000.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile_ns(1.0), 1000);
    }

    #[test]
    fn ns_histogram_is_exact_for_tiny_samples() {
        let mut h = NsHistogram::default();
        h.record(0);
        h.record(3);
        h.record(3);
        h.record(15);
        assert_eq!(h.percentile_ns(0.26), 3);
        assert_eq!(h.percentile_ns(0.75), 3);
        assert_eq!(h.percentile_ns(1.0), 15);
    }

    #[test]
    fn peak_tracks_combined_storage() {
        let mut s = ProtocolStats::new();
        s.twin_created(10);
        s.diff_created(20);
        assert_eq!(s.peak_storage_bytes, 30);
        s.twin_dropped(10);
        s.diff_created(5);
        assert_eq!(s.peak_storage_bytes, 30);
    }
}
