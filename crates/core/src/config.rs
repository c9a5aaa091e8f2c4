use std::fmt;
use std::sync::Arc;

use adsm_netsim::{CostModel, DeliveryJournal, Scenario};

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

/// Which adaptation policy drives the per-page SW/MW mode decisions of
/// the adaptive protocols.
///
/// The protocol stack separates *mechanism* from *policy*: the
/// [`ProtocolKind`] selects the coherence machinery (fault handlers,
/// ownership exchange, merge procedure), while the policy owns every
/// mode decision — when a page is demoted to multiple-writer handling,
/// when it may return to single-writer handling, and whether ownership
/// is granted at all. `None` (the default) uses the policy the protocol
/// implies: WFS for [`ProtocolKind::Wfs`], WFS+WG for
/// [`ProtocolKind::WfsWg`]. Overrides are only meaningful — and only
/// accepted by [`Dsm::run`](crate::Dsm::run) — for the adaptive
/// protocols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdaptPolicyKind {
    /// The paper's WFS (§3.1): adapt on write-write false sharing
    /// alone.
    Wfs,
    /// The paper's WFS+WG (§3.2): WFS plus the write-granularity test —
    /// pages with small diffs stay in MW mode.
    WfsWg,
    /// WFS with promotion hysteresis: a page returns to SW handling
    /// only after `barriers` consecutive refusal-free barriers, damping
    /// mode ping-pong under phase-changing sharing patterns.
    Hysteresis {
        /// Consecutive refusal-free barriers required before a page may
        /// be promoted back to SW handling.
        barriers: u32,
    },
    /// Per-page static hints: pages flagged `true` are pinned to MW
    /// handling for the whole run (they start twinning immediately, no
    /// refusal round); all others adapt like WFS. Hints typically come
    /// from a profiling run's final page modes
    /// ([`RunReport::sw_page_map`](crate::RunReport::sw_page_map)).
    StaticHint {
        /// `mw_pages[p]` pins page `p` to MW handling; pages beyond the
        /// slice adapt like WFS.
        mw_pages: std::sync::Arc<[bool]>,
    },
}

impl fmt::Display for AdaptPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptPolicyKind::Wfs => f.write_str("WFS"),
            AdaptPolicyKind::WfsWg => f.write_str("WFS+WG"),
            AdaptPolicyKind::Hysteresis { barriers } => write!(f, "hyst({barriers})"),
            AdaptPolicyKind::StaticHint { mw_pages } => {
                write!(f, "hint({} mw)", mw_pages.iter().filter(|&&mw| mw).count())
            }
        }
    }
}

/// When multiple-writer diffs are encoded.
///
/// The paper's TreadMarks substrate creates diffs **lazily**: at interval
/// close only the twin is retained, and the diff is computed when first
/// requested (or when the page is written again). This reproduction's
/// default is **eager** per-interval diffing — every diff is attributable
/// to exactly one interval at close time, which the adaptive protocols'
/// write-granularity test needs — with lazy diffing available for the
/// pure MW protocol to measure the trade-off the substitution makes
/// (`repro ablation-diffing`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DiffStrategy {
    /// Encode the diff at interval close and drop the twin (default).
    #[default]
    Eager,
    /// Retain the twin at interval close; encode the diff at the first
    /// request or at the next local write to the page. Unrequested
    /// intervals never pay diff creation. MW protocol only.
    Lazy,
}

impl fmt::Display for DiffStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffStrategy::Eager => f.write_str("eager"),
            DiffStrategy::Lazy => f.write_str("lazy"),
        }
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

/// Configuration of one DSM run.
///
/// Build with [`DsmBuilder`](crate::DsmBuilder); the defaults reproduce
/// the paper's testbed (8 processors, SPARC-20 + 155 Mbps ATM cost
/// model).
#[derive(Clone, Debug)]
pub struct DsmConfig {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Shared address space size in pages (set by allocation).
    pub npages: usize,
    /// Enable the migratory-data optimisation the paper sketches as
    /// future work (§7, after Cox & Fowler): pages detected as migratory
    /// transfer ownership on the *read* miss, so the subsequent write
    /// needs no second exchange. Adaptive protocols only.
    pub migratory_opt: bool,
    /// Home assignment for the home-based LRC comparator
    /// ([`ProtocolKind::Hlrc`]); ignored by every other protocol.
    pub home_policy: HomePolicy,
    /// HLRC comparator: replicate every home on a backup processor
    /// (`(home + 1) % nprocs`). Each diff flush is also shipped to and
    /// applied at the backup, so a `HomeFailover` fault can promote the
    /// backup to serving home with no state transfer at failover time
    /// (SC-ABD-style replicated stable storage). Off by default;
    /// required for `HomeFailover` faults under
    /// [`ProtocolKind::Hlrc`]; ignored by every other protocol.
    pub hlrc_backup: bool,
    /// Schedule-fuzzing seed: when set, the engine picks the next
    /// processor pseudo-randomly at every turn point instead of by least
    /// virtual clock. Results of data-race-free programs must not change;
    /// timing reports from fuzzed runs are not meaningful. Robustness
    /// testing only.
    pub schedule_fuzz: Option<u64>,
    /// Diff creation strategy ([`DiffStrategy::Lazy`] is MW-only).
    pub diff_strategy: DiffStrategy,
    /// Adaptation-policy override for the adaptive protocols; `None`
    /// uses the protocol's namesake policy.
    pub adapt_policy: Option<AdaptPolicyKind>,
    /// Run the SC comparator's invariant checker after every fault
    /// (single writable copy, coherent read copies, exact copysets).
    /// Off by default (the sweep copies every page on every fault); set
    /// through
    /// [`DsmBuilder::sc_invariant_checks`](crate::DsmBuilder::sc_invariant_checks).
    pub sc_check: bool,
    /// Measure host wall-clock costs of the protocol hot paths
    /// (`validate_page`, barrier fan-in) into the run report's
    /// [`NsHistogram`](crate::metrics::NsHistogram)s. Off by default:
    /// the timestamps cost ~50 ns per measured call, which `repro
    /// bench-scale` and `benchmark/` accept and ordinary runs should
    /// not pay.
    pub measure_host_costs: bool,
    /// Execution backend: the deterministic simulator (default) or
    /// free-running OS threads. Mutually exclusive with
    /// [`schedule_fuzz`](Self::schedule_fuzz) — fuzzing is a property of
    /// the simulator's scheduler.
    pub backend: ExecBackend,
    /// Chaos scenario driving the delivery layer (loss, duplication,
    /// reordering, jitter, scheduled faults). `None` — and any
    /// all-zero-rates scenario — delivers every message perfectly and
    /// is bit-identical to the cost model alone. While a scenario is
    /// active every delivery deviation is journaled; the journal comes
    /// back on [`RunOutcome::journal`](crate::RunOutcome::journal).
    pub scenario: Option<Arc<Scenario>>,
    /// Replay a recorded delivery journal instead of drawing fates from
    /// a scenario PRNG. Simulator backend only; mutually exclusive with
    /// [`scenario`](Self::scenario).
    pub replay: Option<Arc<DeliveryJournal>>,
}

impl DsmConfig {
    /// Paper defaults: 8 processors, given protocol, ATM cost model.
    pub fn new(protocol: ProtocolKind) -> Self {
        DsmConfig {
            nprocs: 8,
            protocol,
            cost: CostModel::sparc_atm(),
            npages: 0,
            migratory_opt: false,
            home_policy: HomePolicy::default(),
            hlrc_backup: false,
            schedule_fuzz: None,
            diff_strategy: DiffStrategy::default(),
            adapt_policy: None,
            sc_check: false,
            measure_host_costs: false,
            backend: ExecBackend::default(),
            scenario: None,
            replay: None,
        }
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
    fn diff_strategy_defaults_to_eager() {
        assert_eq!(DiffStrategy::default(), DiffStrategy::Eager);
        assert_eq!(DiffStrategy::Eager.to_string(), "eager");
        assert_eq!(DiffStrategy::Lazy.to_string(), "lazy");
        let cfg = DsmConfig::new(ProtocolKind::Mw);
        assert_eq!(cfg.diff_strategy, DiffStrategy::Eager);
        assert_eq!(cfg.schedule_fuzz, None);
        assert!(!cfg.migratory_opt);
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
