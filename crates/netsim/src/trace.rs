use std::fmt;

use crate::SimTime;

/// What happened at a trace point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// One or more diffs were created.
    DiffCreate,
    /// Diffs were discarded by garbage collection.
    GarbageCollect,
    /// A page switched from SW to MW mode somewhere in the cluster.
    SwitchToMw,
    /// A page switched from MW to SW mode somewhere in the cluster.
    SwitchToSw,
    /// A barrier completed (used to mark iteration boundaries in plots).
    Barrier,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::DiffCreate => "diff",
            TraceKind::GarbageCollect => "gc",
            TraceKind::SwitchToMw => "->mw",
            TraceKind::SwitchToSw => "->sw",
            TraceKind::Barrier => "barrier",
        };
        f.write_str(s)
    }
}

/// One sample of the cluster-wide diff population, as plotted in the
/// paper's Figure 3 (total number of diffs on all processors over time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracePoint {
    /// Virtual time of the event (max over involved processors).
    pub time: SimTime,
    /// Event kind.
    pub kind: TraceKind,
    /// Diffs alive on all processors after the event.
    pub diffs_alive: u64,
}

/// An append-only event trace recorded during a run.
///
/// # Examples
///
/// ```
/// use adsm_netsim::{SimTime, Trace, TraceKind};
///
/// let mut t = Trace::new();
/// t.push(SimTime::from_us(10), TraceKind::DiffCreate, 1);
/// t.push(SimTime::from_us(20), TraceKind::GarbageCollect, 0);
/// assert_eq!(t.points().len(), 2);
/// assert_eq!(t.peak_diffs(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    points: Vec<TracePoint>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, time: SimTime, kind: TraceKind, diffs_alive: u64) {
        self.points.push(TracePoint {
            time,
            kind,
            diffs_alive,
        });
    }

    /// All recorded points, in insertion order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Highest number of simultaneously alive diffs seen.
    pub fn peak_diffs(&self) -> u64 {
        self.points.iter().map(|p| p.diffs_alive).max().unwrap_or(0)
    }

    /// Number of garbage collections recorded.
    pub fn gc_count(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.kind == TraceKind::GarbageCollect)
            .count()
    }

    /// Down-samples the trace to at most `n` points for plotting
    /// (keeps first, last, and evenly spaced points in between).
    pub fn downsample(&self, n: usize) -> Vec<TracePoint> {
        if self.points.len() <= n || n < 2 {
            return self.points.clone();
        }
        let mut out = Vec::with_capacity(n);
        let step = (self.points.len() - 1) as f64 / (n - 1) as f64;
        for i in 0..n {
            out.push(self.points[(i as f64 * step).round() as usize]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_over_empty_trace_are_zero() {
        let t = Trace::new();
        assert_eq!(t.peak_diffs(), 0);
        assert_eq!(t.gc_count(), 0);
    }

    #[test]
    fn tracks_peaks_and_gcs() {
        let mut t = Trace::new();
        t.push(SimTime::from_us(1), TraceKind::DiffCreate, 5);
        t.push(SimTime::from_us(2), TraceKind::DiffCreate, 9);
        t.push(SimTime::from_us(3), TraceKind::GarbageCollect, 0);
        t.push(SimTime::from_us(4), TraceKind::DiffCreate, 2);
        assert_eq!(t.peak_diffs(), 9);
        assert_eq!(t.gc_count(), 1);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut t = Trace::new();
        for i in 0..100 {
            t.push(SimTime::from_us(i), TraceKind::DiffCreate, i);
        }
        let d = t.downsample(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].time, SimTime::from_us(0));
        assert_eq!(d[9].time, SimTime::from_us(99));
    }

    #[test]
    fn downsample_noop_when_small() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, TraceKind::Barrier, 0);
        assert_eq!(t.downsample(10).len(), 1);
    }
}
