use std::fmt;

use adsm_netsim::{CostModel, Fault, Scenario};

/// Which coherence protocol a run uses.
///
/// The four protocols of the paper's evaluation (§3.3) plus a `Raw`
/// baseline used to obtain sequential execution times with all
/// synchronisation and coherence removed (the basis of the speedup
/// figures, as in the paper's Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// TreadMarks-style multiple-writer protocol: twins and diffs,
    /// several writable copies of a page may coexist.
    Mw,
    /// CVM-style single-writer protocol: one writable copy, page
    /// ownership with version numbers, whole-page transfers, a static
    /// home for locating owners, and a 1 ms ownership quantum.
    Sw,
    /// Adaptive protocol: per-page choice between SW and MW driven by
    /// write-write false sharing (ownership refusal protocol, §3.1).
    Wfs,
    /// Adaptive protocol: WFS plus adaptation to write granularity —
    /// pages with small diffs stay in MW mode even without false sharing
    /// (§3.2).
    WfsWg,
    /// No coherence at all; only valid for single-processor runs. Used to
    /// measure sequential time.
    Raw,
    /// Sequentially-consistent write-invalidate protocol (IVY-style, after
    /// Li & Hudak): one writable copy, every write fault invalidates all
    /// other copies before proceeding. Not part of the paper's evaluation;
    /// provided as the comparator behind §7's observation (after Keleher)
    /// that moving from SC to LRC matters more than MW-vs-SW.
    Sc,
    /// Home-based lazy release consistency (after Zhou, Iftode & Li):
    /// every page has a fixed home; diffs are flushed to the home at
    /// interval close and discarded; access misses fetch the whole page
    /// from the home. The comparator behind §7's claim that the adaptive
    /// protocols avoid the traffic of a poorly chosen home node.
    Hlrc,
}

impl ProtocolKind {
    /// The four protocols compared in the paper's evaluation, in the
    /// order of Figure 2.
    pub const EVALUATED: [ProtocolKind; 4] = [
        ProtocolKind::Mw,
        ProtocolKind::WfsWg,
        ProtocolKind::Wfs,
        ProtocolKind::Sw,
    ];

    /// The related-work comparator protocols implemented beyond the
    /// paper's evaluation (§7): sequential consistency and home-based
    /// LRC.
    pub const COMPARATORS: [ProtocolKind; 2] = [ProtocolKind::Sc, ProtocolKind::Hlrc];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Mw => "MW",
            ProtocolKind::Sw => "SW",
            ProtocolKind::Wfs => "WFS",
            ProtocolKind::WfsWg => "WFS+WG",
            ProtocolKind::Raw => "RAW",
            ProtocolKind::Sc => "SC",
            ProtocolKind::Hlrc => "HLRC",
        }
    }

    /// Does this protocol ever adapt page modes?
    pub fn is_adaptive(self) -> bool {
        matches!(self, ProtocolKind::Wfs | ProtocolKind::WfsWg)
    }

    /// Does this protocol use lazy release consistency? (Everything but
    /// the sequentially-consistent comparator and the raw baseline.)
    pub fn is_lrc(self) -> bool {
        !matches!(self, ProtocolKind::Sc | ProtocolKind::Raw)
    }
}

/// Which execution backend drives the simulated processors.
///
/// The protocol stack is backend-agnostic (all shared state sits behind
/// the world and per-memory mutexes); the backend decides *who runs
/// when* and what blocking means physically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecBackend {
    /// The deterministic turn-based simulator: exactly one processor
    /// executing at a time (all of them coroutines on one thread of the
    /// run's), interleaving fixed by virtual clocks. Bit-for-bit
    /// reproducible; the repository's measurement and verification
    /// oracle.
    #[default]
    Sim,
    /// Free-running OS threads: processors execute in parallel, lock
    /// waits / page fetches / barrier arrivals park the thread for real,
    /// and virtual clocks become passive cost accumulators. Fast and
    /// host-parallel, but the interleaving — and therefore any
    /// schedule-dependent measurement — is not reproducible.
    Threads,
}

impl ExecBackend {
    /// Label used in benchmark tables and JSON (`sim` / `threads`).
    pub fn name(self) -> &'static str {
        match self {
            ExecBackend::Sim => "sim",
            ExecBackend::Threads => "threads",
        }
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the home-based LRC comparator assigns pages to home nodes.
///
/// Home placement is the knob the paper's §7 points at: *"our adaptive
/// protocols avoid twinning and diffing overhead without using a fixed
/// home node. This avoids unnecessary message traffic if the home node
/// is poorly chosen."* The `repro related` harness sweeps these policies
/// to reproduce that observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum HomePolicy {
    /// Pages are striped across processors (`page % nprocs`) — the
    /// oblivious default of most home-based systems.
    #[default]
    RoundRobin,
    /// A page's home is the first processor that faults on it — a cheap
    /// locality heuristic.
    FirstTouch,
    /// Every page is homed on one processor — the deliberately poor
    /// placement of the §7 argument (worst case unless that processor is
    /// the sole writer).
    Fixed(usize),
}

impl fmt::Display for HomePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HomePolicy::RoundRobin => f.write_str("round-robin"),
            HomePolicy::FirstTouch => f.write_str("first-touch"),
            HomePolicy::Fixed(p) => write!(f, "fixed({p})"),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The settings of one DSM run, beyond its protocol and processor
/// count — the only place a run setting is declared.
///
/// Every field defaults to the paper's testbed (SPARC-20 + 155 Mbps ATM
/// cost model, the deterministic simulator, no chaos, no checks), so a
/// run states only what it changes:
///
/// ```
/// use adsm_core::{Dsm, ExecBackend, ProtocolKind, RunOptions};
///
/// let dsm = Dsm::builder(ProtocolKind::Wfs)
///     .nprocs(8)
///     .options(RunOptions {
///         backend: ExecBackend::Threads,
///         ..RunOptions::default()
///     })
///     .build();
/// assert_eq!(dsm.nprocs(), 8);
/// ```
///
/// Diff creation is not configurable: every multiple-writer diff is
/// encoded when its interval closes, because the adaptive protocols'
/// write-granularity test reads each interval's diff size then
/// (DESIGN.md §Eager diffing).
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Home assignment for the home-based LRC comparator
    /// ([`ProtocolKind::Hlrc`]); ignored by every other protocol.
    pub home_policy: HomePolicy,
    /// Virtual-time cost model (default: the paper's SPARC/ATM model).
    pub cost: CostModel,
    /// Schedule-fuzzing seed: when set, the engine picks the next
    /// processor pseudo-randomly at every turn point instead of by least
    /// virtual clock. Every fuzzed schedule is a causally valid
    /// execution, so data-race-free programs must produce identical
    /// results under any seed; timing reports from fuzzed runs are not
    /// meaningful. Robustness testing only.
    pub schedule_fuzz: Option<u64>,
    /// Measure host wall-clock costs of the protocol hot paths
    /// (`validate_page`, barrier fan-in) into the run report's
    /// histograms ([`validate_wall`](crate::ProtocolStats::validate_wall)
    /// and [`barrier_fanin_wall`](crate::ProtocolStats::barrier_fanin_wall)).
    /// Off by default: the timestamps cost ~50 ns per measured call,
    /// which `repro bench-scale` and `benchmark/` accept and ordinary
    /// runs should not pay.
    pub measure_host_costs: bool,
    /// Execution backend: the deterministic simulator (default) or
    /// free-running OS threads, where lock waits, page fetches and
    /// barrier arrivals park the calling thread for real. The simulator
    /// remains the oracle — threads runs are not reproducible and their
    /// virtual-time reports are approximate; race-free programs must
    /// still compute identical final memory. [`Dsm::run`](crate::Dsm::run)
    /// rejects it together with [`schedule_fuzz`](Self::schedule_fuzz):
    /// fuzzing is a property of the simulator's scheduler.
    pub backend: ExecBackend,
    /// Chaos scenario driving the delivery layer: every cross-processor
    /// protocol message may be dropped (the sender times out and
    /// retransmits with exponential backoff), duplicated, reordered or
    /// delayed — all deterministically from the scenario seed, so the
    /// same scenario reproduces the run bit for bit. `None` — and any
    /// all-zero-rates scenario — delivers every message perfectly and
    /// is bit-identical to the cost model alone. While a scenario is
    /// active every delivery deviation is journaled; the journal comes
    /// back on [`RunOutcome::journal`](crate::RunOutcome::journal).
    ///
    /// Scheduled crashes need an LRC-family protocol, and a scheduled
    /// [`HomeFailover`](adsm_netsim::FaultKind::HomeFailover) needs
    /// [`ProtocolKind::Hlrc`]: it replicates every home onto a backup
    /// node (`(home + 1) % nprocs`) for the whole run, so the failover
    /// promotes the backup with no state transfer.
    /// [`Dsm::run`](crate::Dsm::run) rejects other combinations with
    /// [`RunError::BadConfig`](crate::RunError::BadConfig).
    pub scenario: Option<Scenario>,
}

impl RunOptions {
    /// The scenario's fault schedule (empty without a scenario).
    pub(crate) fn faults(&self) -> &[Fault] {
        self.scenario.as_ref().map_or(&[], |s| &s.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(ProtocolKind::Mw.name(), "MW");
        assert_eq!(ProtocolKind::WfsWg.name(), "WFS+WG");
        assert_eq!(ProtocolKind::Wfs.to_string(), "WFS");
    }

    #[test]
    fn adaptivity_flags() {
        assert!(ProtocolKind::Wfs.is_adaptive());
        assert!(ProtocolKind::WfsWg.is_adaptive());
        assert!(!ProtocolKind::Mw.is_adaptive());
        assert!(!ProtocolKind::Sw.is_adaptive());
        assert!(!ProtocolKind::Raw.is_adaptive());
    }

    #[test]
    fn comparator_names_and_flags() {
        assert_eq!(ProtocolKind::Sc.name(), "SC");
        assert_eq!(ProtocolKind::Hlrc.name(), "HLRC");
        assert!(!ProtocolKind::Sc.is_adaptive());
        assert!(!ProtocolKind::Hlrc.is_adaptive());
        assert!(!ProtocolKind::Sc.is_lrc());
        assert!(ProtocolKind::Hlrc.is_lrc());
        assert!(ProtocolKind::Wfs.is_lrc());
        assert!(!ProtocolKind::Raw.is_lrc());
    }

    #[test]
    fn home_policy_display() {
        assert_eq!(HomePolicy::RoundRobin.to_string(), "round-robin");
        assert_eq!(HomePolicy::FirstTouch.to_string(), "first-touch");
        assert_eq!(HomePolicy::Fixed(3).to_string(), "fixed(3)");
        assert_eq!(HomePolicy::default(), HomePolicy::RoundRobin);
    }

    #[test]
    fn defaults_match_the_paper() {
        let opts = RunOptions::default();
        assert_eq!(opts.cost, CostModel::sparc_atm());
        assert_eq!(opts.schedule_fuzz, None);
        assert_eq!(opts.home_policy, HomePolicy::RoundRobin);
        assert_eq!(opts.backend, ExecBackend::Sim);
        assert!(!opts.measure_host_costs);
        assert!(opts.scenario.is_none());
    }

    #[test]
    fn evaluated_order_matches_figure_2() {
        assert_eq!(
            ProtocolKind::EVALUATED,
            [
                ProtocolKind::Mw,
                ProtocolKind::WfsWg,
                ProtocolKind::Wfs,
                ProtocolKind::Sw
            ]
        );
    }
}
