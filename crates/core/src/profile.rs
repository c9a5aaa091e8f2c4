//! Sharing profiler: measures the application characteristics of the
//! paper's Table 2 — prevailing write granularity and the percentage of
//! shared pages that are write-write falsely shared.
//!
//! A page is **write-write falsely shared** when two different processors
//! write it in intervals that are concurrent under happened-before-1
//! (§1: "concurrent writes from different processors to non-overlapping
//! parts of the same page"). The profiler watches interval closes; the
//! protocol layer reports, for every page a closing interval wrote,
//! whether that write was concurrent with another processor's most
//! recent write to the same page.
//!
//! Write granularity is sampled from diff sizes (bytes of modified data
//! per page per interval), so Table 2 measurements are taken from an MW
//! run, where every write session produces a diff.

use std::fmt;

use adsm_mempage::PageId;
use adsm_vclock::{IntervalId, ProcId};

/// Coarse write-granularity classes, as used in the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GrainClass {
    /// Mean write size well under a kilobyte.
    Small,
    /// Mean write size under the 3 KB WFS+WG threshold.
    Medium,
    /// Mean write size at or above the 3 KB threshold.
    Large,
    /// Write size changes substantially over the run (e.g. SOR).
    Variable,
}

impl fmt::Display for GrainClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GrainClass::Small => "small",
            GrainClass::Medium => "medium",
            GrainClass::Large => "large",
            GrainClass::Variable => "variable",
        };
        f.write_str(s)
    }
}

/// Aggregated sharing profile of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileSummary {
    /// Pages written by at least one processor.
    pub written_pages: usize,
    /// Pages with at least one pair of concurrent writes by different
    /// processors.
    pub ww_false_shared_pages: usize,
    /// `ww_false_shared_pages / written_pages`, in percent.
    pub pct_ww_false_shared: f64,
    /// Mean bytes modified per page write session (diff-based; zero when
    /// the protocol created no diffs, e.g. SW).
    pub mean_write_grain: f64,
    /// Largest single write session observed, in bytes.
    pub max_write_grain: usize,
    /// Number of granularity samples observed.
    pub grain_samples: usize,
    /// Coarse classification for Table 2.
    pub grain_class: GrainClass,
}

impl fmt::Display for ProfileSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} written pages, {:.1}% ww-false-shared, grain {} (mean {:.0} B)",
            self.written_pages, self.pct_ww_false_shared, self.grain_class, self.mean_write_grain
        )
    }
}

/// Incremental profiler state. Lives inside the world and is fed by the
/// protocol layer at interval closes.
#[derive(Clone, Debug)]
pub(crate) struct Profiler {
    /// `[page][proc]` — the interval of `proc`'s most recent write to
    /// `page`, if any.
    last_write: Vec<Vec<Option<IntervalId>>>,
    /// Page observed write-write falsely shared.
    ww_false: Vec<bool>,
    /// Page ever written.
    written: Vec<bool>,
    /// Time-ordered write-session sizes (bytes), for granularity.
    grain_samples: Vec<u32>,
}

impl Profiler {
    pub fn new(nprocs: usize, npages: usize) -> Self {
        Profiler {
            last_write: vec![vec![None; nprocs]; npages],
            ww_false: vec![false; npages],
            written: vec![false; npages],
            grain_samples: Vec::new(),
        }
    }

    /// The most recent write interval of every processor for `page`, in
    /// processor order.
    pub fn last_writes(&self, page: PageId) -> Vec<IntervalId> {
        self.last_write[page.index()]
            .iter()
            .filter_map(|iv| *iv)
            .collect()
    }

    /// The most recent write interval of every *other* processor for
    /// `page` (the protocol layer checks these for concurrency against a
    /// closing interval, once per dirty page: nothing is collected).
    pub fn other_writers(&self, page: PageId, me: ProcId) -> impl Iterator<Item = IntervalId> + '_ {
        self.last_write[page.index()]
            .iter()
            .enumerate()
            .filter(move |&(q, _)| q != me.index())
            .filter_map(|(_, iv)| *iv)
    }

    /// Records that `interval` (belonging to `proc`) wrote `page`;
    /// `concurrent` says whether that write was concurrent with another
    /// processor's latest write to the page.
    pub fn note_write(
        &mut self,
        page: PageId,
        proc: ProcId,
        interval: IntervalId,
        concurrent: bool,
    ) {
        self.written[page.index()] = true;
        self.last_write[page.index()][proc.index()] = Some(interval);
        if concurrent {
            self.ww_false[page.index()] = true;
        }
    }

    /// Records the size in bytes of one write session (one diff).
    pub fn note_grain(&mut self, modified_bytes: usize) {
        self.grain_samples.push(modified_bytes as u32);
    }

    /// Is `page` known to be write-write falsely shared?
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_ww_false_shared(&self, page: PageId) -> bool {
        self.ww_false[page.index()]
    }

    /// Produces the Table 2 summary.
    pub fn summary(&self) -> ProfileSummary {
        let written = self.written.iter().filter(|&&w| w).count();
        let ww = self.ww_false.iter().filter(|&&w| w).count();
        let n = self.grain_samples.len();
        let sum: u64 = self.grain_samples.iter().map(|&s| s as u64).sum();
        let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let max = self.grain_samples.iter().copied().max().unwrap_or(0) as usize;

        // Variable granularity: the mean of the first and last thirds of
        // the samples differ by more than 4x (e.g. SOR, where the number
        // of changed elements grows every iteration).
        let grain_class = if n >= 30 {
            let third = n / 3;
            let head: u64 = self.grain_samples[..third].iter().map(|&s| s as u64).sum();
            let tail: u64 = self.grain_samples[n - third..]
                .iter()
                .map(|&s| s as u64)
                .sum();
            let head_mean = head as f64 / third as f64;
            let tail_mean = tail as f64 / third as f64;
            let lo = head_mean.min(tail_mean).max(1.0);
            let hi = head_mean.max(tail_mean);
            if hi / lo > 4.0 {
                GrainClass::Variable
            } else {
                Self::classify_mean(mean)
            }
        } else {
            Self::classify_mean(mean)
        };

        ProfileSummary {
            written_pages: written,
            ww_false_shared_pages: ww,
            pct_ww_false_shared: if written == 0 {
                0.0
            } else {
                100.0 * ww as f64 / written as f64
            },
            mean_write_grain: mean,
            max_write_grain: max,
            grain_samples: n,
            grain_class,
        }
    }

    fn classify_mean(mean: f64) -> GrainClass {
        if mean >= 3072.0 {
            GrainClass::Large
        } else if mean >= 512.0 {
            GrainClass::Medium
        } else {
            GrainClass::Small
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcId {
        ProcId::new(i)
    }

    fn iv(p: usize, s: u32) -> IntervalId {
        IntervalId::new(pid(p), s)
    }

    #[test]
    fn empty_profile() {
        let p = Profiler::new(2, 4);
        let s = p.summary();
        assert_eq!(s.written_pages, 0);
        assert_eq!(s.pct_ww_false_shared, 0.0);
        assert_eq!(s.grain_class, GrainClass::Small);
    }

    #[test]
    fn concurrent_writes_mark_false_sharing() {
        let mut p = Profiler::new(2, 2);
        p.note_write(PageId::new(0), pid(0), iv(0, 1), false);
        p.note_write(PageId::new(0), pid(1), iv(1, 1), true);
        p.note_write(PageId::new(1), pid(0), iv(0, 2), false);
        assert!(p.is_ww_false_shared(PageId::new(0)));
        assert!(!p.is_ww_false_shared(PageId::new(1)));
        let s = p.summary();
        assert_eq!(s.written_pages, 2);
        assert_eq!(s.ww_false_shared_pages, 1);
        assert!((s.pct_ww_false_shared - 50.0).abs() < 1e-9);
    }

    #[test]
    fn other_writers_excludes_self() {
        let mut p = Profiler::new(3, 1);
        p.note_write(PageId::new(0), pid(0), iv(0, 1), false);
        p.note_write(PageId::new(0), pid(2), iv(2, 5), false);
        let others: Vec<_> = p.other_writers(PageId::new(0), pid(0)).collect();
        assert_eq!(others, vec![iv(2, 5)]);
    }

    #[test]
    fn grain_classification() {
        let mut small = Profiler::new(1, 1);
        for _ in 0..10 {
            small.note_grain(16);
        }
        assert_eq!(small.summary().grain_class, GrainClass::Small);

        let mut medium = Profiler::new(1, 1);
        for _ in 0..10 {
            medium.note_grain(1024);
        }
        assert_eq!(medium.summary().grain_class, GrainClass::Medium);

        let mut large = Profiler::new(1, 1);
        for _ in 0..10 {
            large.note_grain(4096);
        }
        assert_eq!(large.summary().grain_class, GrainClass::Large);
    }

    #[test]
    fn growing_grain_is_variable() {
        let mut p = Profiler::new(1, 1);
        for i in 0..60 {
            p.note_grain(16 * (i + 1));
        }
        assert_eq!(p.summary().grain_class, GrainClass::Variable);
    }

    #[test]
    fn mean_and_max() {
        let mut p = Profiler::new(1, 1);
        p.note_grain(100);
        p.note_grain(300);
        let s = p.summary();
        assert_eq!(s.mean_write_grain, 200.0);
        assert_eq!(s.max_write_grain, 300);
        assert_eq!(s.grain_samples, 2);
    }
}
