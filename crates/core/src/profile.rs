//! Sharing profile: measures the application characteristics of the
//! paper's Table 2 — prevailing write granularity and the percentage of
//! shared pages that are write-write falsely shared.
//!
//! A page is **write-write falsely shared** when two different processors
//! write it in intervals that are concurrent under happened-before-1
//! (§1: "concurrent writes from different processors to non-overlapping
//! parts of the same page"). Interval closing records, in each written
//! page's directory entry, the writer's interval and whether that write
//! was concurrent with another processor's most recent write to the
//! page; `ProfileSummary::of` counts those entries at the end of a run.
//!
//! Write granularity is sampled from diff sizes (bytes of modified data
//! per page per interval), so Table 2 measurements are taken from an MW
//! run, where every write session produces a diff.

use std::fmt;

use crate::world::PageGlobal;

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
    /// Coarse classification for Table 2.
    pub grain_class: GrainClass,
}

impl ProfileSummary {
    /// The Table 2 summary of a run's directory entries and its diff
    /// sizes (`grains`, in creation order).
    pub(crate) fn of(pages: &[PageGlobal], grains: &[u32]) -> Self {
        let written = pages
            .iter()
            .filter(|pg| pg.last_write.iter().any(Option::is_some))
            .count();
        let ww = pages.iter().filter(|pg| pg.ww_false_shared).count();
        let n = grains.len();
        let sum: u64 = grains.iter().map(|&s| s as u64).sum();
        let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };

        // Variable granularity: the mean of the first and last thirds of
        // the samples differ by more than 4x (e.g. SOR, where the number
        // of changed elements grows every iteration).
        let grain_class = if n >= 30 {
            let third = n / 3;
            let head: u64 = grains[..third].iter().map(|&s| s as u64).sum();
            let tail: u64 = grains[n - third..].iter().map(|&s| s as u64).sum();
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
    use crate::world::Directory;
    use adsm_vclock::{IntervalId, ProcId};

    fn iv(p: usize, s: u32) -> IntervalId {
        IntervalId::new(ProcId::new(p), s)
    }

    /// `npages` fresh directory entries of a `nprocs`-processor run.
    fn pages(npages: usize, nprocs: usize) -> Vec<PageGlobal> {
        Directory::new(npages, nprocs, ProcId::new(0)).pages
    }

    #[test]
    fn empty_profile() {
        let s = ProfileSummary::of(&pages(4, 2), &[]);
        assert_eq!(s.written_pages, 0);
        assert_eq!(s.pct_ww_false_shared, 0.0);
        assert_eq!(s.grain_class, GrainClass::Small);
    }

    #[test]
    fn concurrent_writes_mark_false_sharing() {
        let mut pgs = pages(2, 2);
        pgs[0].last_write = vec![Some(iv(0, 1)), Some(iv(1, 1))];
        pgs[0].ww_false_shared = true;
        pgs[1].last_write[0] = Some(iv(0, 2));
        let s = ProfileSummary::of(&pgs, &[]);
        assert_eq!(s.written_pages, 2);
        assert_eq!(s.ww_false_shared_pages, 1);
        assert!((s.pct_ww_false_shared - 50.0).abs() < 1e-9);
    }

    #[test]
    fn other_writers_excludes_self() {
        let mut pgs = pages(1, 3);
        pgs[0].last_write = vec![Some(iv(0, 1)), None, Some(iv(2, 5))];
        let others: Vec<_> = pgs[0].other_writers(ProcId::new(0)).collect();
        assert_eq!(others, vec![iv(2, 5)]);
    }

    #[test]
    fn grain_classification() {
        let class = |grain: u32| ProfileSummary::of(&[], &[grain; 10]).grain_class;
        assert_eq!(class(16), GrainClass::Small);
        assert_eq!(class(1024), GrainClass::Medium);
        assert_eq!(class(4096), GrainClass::Large);
    }

    #[test]
    fn growing_grain_is_variable() {
        let grains: Vec<u32> = (0..60).map(|i| 16 * (i + 1)).collect();
        assert_eq!(
            ProfileSummary::of(&[], &grains).grain_class,
            GrainClass::Variable
        );
    }

    #[test]
    fn mean_write_grain() {
        let s = ProfileSummary::of(&[], &[100, 300]);
        assert_eq!(s.mean_write_grain, 200.0);
    }
}
