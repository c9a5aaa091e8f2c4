//! Chaos scenarios: declarative descriptions of an imperfect network.
//!
//! A [`Scenario`] names a seed, one loss/duplication/reorder/jitter
//! profile shared by every link, and a fault schedule keyed on **virtual
//! time**. The [`crate::Delivery`] layer draws every message's fate from
//! a deterministic PRNG seeded by the scenario, so the same scenario
//! value always produces the same run under the simulator backend.

use crate::SimTime;
use std::sync::Arc;

/// Loss/duplication/reorder rates and latency jitter of every link.
///
/// Rates are integer **parts per million**; `jitter_ns` is the maximum
/// extra one-way latency, drawn uniformly in `[0, jitter_ns]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkProfile {
    /// Probability (ppm) that a transmission is lost in flight.
    pub loss_ppm: u32,
    /// Probability (ppm) that a delivered message arrives twice.
    pub dup_ppm: u32,
    /// Probability (ppm) that a message is overtaken by later traffic
    /// (modelled as extra delay of up to one base message cost).
    pub reorder_ppm: u32,
    /// Maximum uniform extra one-way latency, in nanoseconds.
    pub jitter_ns: u64,
}

impl LinkProfile {
    /// A lossless, in-order, jitter-free link.
    pub const PERFECT: LinkProfile = LinkProfile {
        loss_ppm: 0,
        dup_ppm: 0,
        reorder_ppm: 0,
        jitter_ns: 0,
    };

    /// True when the link never deviates from perfect delivery.
    pub fn is_perfect(&self) -> bool {
        *self == LinkProfile::PERFECT
    }
}

/// What a scheduled fault does while its window is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A congestion burst: all links lose at least this rate.
    LossBurst {
        /// Loss floor (ppm) while the burst is active.
        loss_ppm: u32,
    },
    /// The processor's DSM incarnation dies. The crash takes effect at
    /// the processor's first barrier arrival at or after `at` (the
    /// arriving interval is committed to the replicated interval log
    /// first, SC-ABD style, then the incarnation's cached state — page
    /// copies, twins, notice frontier — is lost and its epoch number is
    /// bumped). The processor is *down* from `at` until its matching
    /// [`FaultKind::ProcRestart`] (or, with none scheduled, until the
    /// window's own `at + duration`); transmissions addressed to it in
    /// that span are dropped by the epoch fence and retried.
    ProcCrash {
        /// The crashing processor.
        proc: u32,
    },
    /// Ends the down window opened by the most recent
    /// [`FaultKind::ProcCrash`] of the same processor: the restarted
    /// incarnation rebuilds its view from the interval log and resumes.
    ProcRestart {
        /// The restarting processor.
        proc: u32,
    },
    /// Planned failover of an HLRC home node: at the first barrier
    /// completion at or after `at`, every page homed at `home` is
    /// promoted to its replicated backup home and readers are redirected
    /// through the directory. HLRC only: scheduling one is what makes
    /// the flush stream replicate every home onto its backup.
    HomeFailover {
        /// The home processor being decommissioned.
        home: u32,
    },
}

/// One scheduled fault window on the virtual-time axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Window start (virtual time).
    pub at: SimTime,
    /// Window length.
    pub duration: SimTime,
    /// Effect while active.
    pub kind: FaultKind,
}

impl Fault {
    /// Whether the window covers virtual time `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.at <= t && t < self.end()
    }

    /// First instant after the window.
    pub fn end(&self) -> SimTime {
        self.at + self.duration
    }
}

/// A resolved processor down-time span: `proc` is dead over
/// `[start, end)`. Built by [`crash_windows`] from a fault schedule's
/// [`FaultKind::ProcCrash`] / [`FaultKind::ProcRestart`] pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed processor.
    pub proc: u32,
    /// Instant the incarnation dies.
    pub start: SimTime,
    /// First instant the restarted incarnation is reachable again. A
    /// crash with no matching restart and zero duration reboots
    /// instantly: `end == start`, so no transmission ever lands in the
    /// window, but the state loss and epoch bump still happen.
    pub end: SimTime,
}

impl CrashWindow {
    /// Whether `proc` is down at virtual time `t`.
    pub fn covers(&self, proc: u32, t: SimTime) -> bool {
        self.proc == proc && self.start <= t && t < self.end
    }
}

/// Resolves a fault schedule's crash events into down-time windows: each
/// [`FaultKind::ProcCrash`] pairs with the first
/// [`FaultKind::ProcRestart`] of the same processor at or after it, or
/// falls back to its own `at + duration` when none is scheduled.
pub fn crash_windows(faults: &[Fault]) -> Vec<CrashWindow> {
    let mut out = Vec::new();
    for f in faults {
        if let FaultKind::ProcCrash { proc } = f.kind {
            let end = faults
                .iter()
                .filter_map(|g| match g.kind {
                    FaultKind::ProcRestart { proc: p } if p == proc && g.at >= f.at => Some(g.at),
                    _ => None,
                })
                .min()
                .unwrap_or_else(|| f.end());
            out.push(CrashWindow {
                proc,
                start: f.at,
                end,
            });
        }
    }
    out
}

/// A complete chaos scenario: seed, link profile and fault schedule.
///
/// The value is the record of a run: the same scenario over the same
/// program decides the same fates.
///
/// # Examples
///
/// ```
/// use adsm_netsim::Scenario;
///
/// let s = Scenario::lossy("flaky", 42, 10_000); // 1% loss
/// assert!(s.is_chaotic());
/// assert_eq!(s.link.loss_ppm, 10_000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name, used in reports and journals.
    pub name: String,
    /// PRNG seed; all fate draws derive from it.
    pub seed: u64,
    /// Profile of every link.
    pub link: LinkProfile,
    /// Scheduled fault windows.
    pub faults: Vec<Fault>,
}

impl Scenario {
    /// The all-zero-rates scenario: every message delivered instantly,
    /// in order, exactly once. Running under it is bit-identical to not
    /// configuring a scenario at all.
    pub fn perfect() -> Self {
        Scenario {
            name: "perfect".to_string(),
            seed: 1,
            link: LinkProfile::PERFECT,
            faults: Vec::new(),
        }
    }

    /// A uniform lossy scenario: every link loses `loss_ppm` of its
    /// transmissions.
    pub fn lossy(name: &str, seed: u64, loss_ppm: u32) -> Self {
        Scenario {
            name: name.to_string(),
            seed,
            link: LinkProfile {
                loss_ppm,
                ..LinkProfile::PERFECT
            },
            ..Scenario::perfect()
        }
    }

    /// The committed scenario corpus swept by `repro scenarios`:
    /// perfect, lossy-1pct, lossy-10pct-reorder, bursty-loss, and
    /// jittery-latency.
    pub fn corpus() -> Vec<Scenario> {
        let mut lossy1 = Scenario::lossy("lossy-1pct", 42, 10_000);
        lossy1.link.dup_ppm = 5_000;

        let mut lossy10 = Scenario::lossy("lossy-10pct-reorder", 1997, 100_000);
        lossy10.link.reorder_ppm = 200_000;

        let mut bursty = Scenario {
            name: "bursty-loss".to_string(),
            seed: 7,
            ..Scenario::perfect()
        };
        for k in 0..24u64 {
            bursty.faults.push(Fault {
                at: SimTime::from_ms(10 + k * 40),
                duration: SimTime::from_ms(8),
                kind: FaultKind::LossBurst { loss_ppm: 500_000 },
            });
        }

        let jittery = Scenario {
            name: "jittery-latency".to_string(),
            seed: 77,
            link: LinkProfile {
                dup_ppm: 10_000,
                jitter_ns: 600_000,
                ..LinkProfile::PERFECT
            },
            ..Scenario::perfect()
        };

        vec![Scenario::perfect(), lossy1, lossy10, bursty, jittery]
    }

    /// Looks up a scenario from [`Scenario::corpus`] by name.
    pub fn from_corpus(name: &str) -> Option<Scenario> {
        Scenario::corpus().into_iter().find(|s| s.name == name)
    }

    /// True when the links can deviate from perfect delivery or any
    /// fault is scheduled. A non-chaotic scenario takes the zero-cost
    /// fast path: no draws, no journal entries, no allocations.
    pub fn is_chaotic(&self) -> bool {
        !self.link.is_perfect() || !self.faults.is_empty()
    }

    /// Convenience: wraps the scenario for sharing with a run.
    pub fn into_arc(self) -> Arc<Scenario> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_perfect_is_first() {
        let corpus = Scenario::corpus();
        assert_eq!(corpus[0].name, "perfect");
        assert!(!corpus[0].is_chaotic());
        let mut names: Vec<_> = corpus.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn fault_windows_are_half_open() {
        let f = Fault {
            at: SimTime::from_ms(10),
            duration: SimTime::from_ms(5),
            kind: FaultKind::LossBurst { loss_ppm: 1 },
        };
        assert!(!f.active_at(SimTime::from_ms(9)));
        assert!(f.active_at(SimTime::from_ms(10)));
        assert!(f.active_at(SimTime::from_ns(14_999_999)));
        assert!(!f.active_at(SimTime::from_ms(15)));
    }

    #[test]
    fn crash_windows_pair_crash_with_first_following_restart() {
        let ev = |at_ms: u64, kind| Fault {
            at: SimTime::from_ms(at_ms),
            duration: SimTime::ZERO,
            kind,
        };
        let faults = vec![
            ev(10, FaultKind::ProcCrash { proc: 2 }),
            ev(12, FaultKind::ProcRestart { proc: 2 }),
            ev(20, FaultKind::ProcCrash { proc: 2 }),
            ev(30, FaultKind::ProcRestart { proc: 2 }),
            // Restart of another proc must not close proc 2's window.
            ev(21, FaultKind::ProcRestart { proc: 1 }),
            Fault {
                at: SimTime::from_ms(40),
                duration: SimTime::from_ms(5),
                kind: FaultKind::ProcCrash { proc: 3 },
            },
        ];
        let w = crash_windows(&faults);
        assert_eq!(w.len(), 3);
        assert_eq!(
            (w[0].proc, w[0].start, w[0].end),
            (2, SimTime::from_ms(10), SimTime::from_ms(12))
        );
        assert_eq!(
            (w[1].proc, w[1].start, w[1].end),
            (2, SimTime::from_ms(20), SimTime::from_ms(30))
        );
        // No restart scheduled: fall back to the crash's own duration.
        assert_eq!(
            (w[2].proc, w[2].start, w[2].end),
            (3, SimTime::from_ms(40), SimTime::from_ms(45))
        );
        assert!(w[0].covers(2, SimTime::from_ms(11)));
        assert!(!w[0].covers(2, SimTime::from_ms(12)), "window is half-open");
        assert!(!w[0].covers(1, SimTime::from_ms(11)));
        // An instant-reboot crash has an empty window but still exists.
        let instant = crash_windows(&[ev(5, FaultKind::ProcCrash { proc: 0 })]);
        assert_eq!(instant[0].start, instant[0].end);
        assert!(!instant[0].covers(0, SimTime::from_ms(5)));
    }

    #[test]
    fn crash_faults_make_a_scenario_chaotic() {
        let mut sc = Scenario::perfect();
        sc.name = "crash-only".to_string();
        sc.faults.push(Fault {
            at: SimTime::ZERO,
            duration: SimTime::ZERO,
            kind: FaultKind::ProcCrash { proc: 1 },
        });
        assert!(sc.is_chaotic());
    }
}
