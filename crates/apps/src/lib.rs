//! The eight applications of the paper's evaluation (§5), implemented
//! against the `adsm-core` DSM API, plus the three access-pattern
//! microkernels of Figure 1.
//!
//! | App | Origin | Sync | Sharing character (Table 2) |
//! |---|---|---|---|
//! | SOR | kernel | barriers | variable granularity, no WW false sharing |
//! | IS | NAS | locks+barriers | large granularity (whole pages), migratory, no FS |
//! | 3D-FFT | NAS | barriers | large granularity, producer-consumer, ~0% FS |
//! | TSP | kernel | locks | small granularity, little FS |
//! | Water | SPLASH | locks+barriers | medium granularity, ~3.5% FS |
//! | Shallow | NCAR | barriers | med-large granularity, ~14% FS |
//! | Barnes-Hut | SPLASH | barriers | small granularity, ~62% FS |
//! | ILINK | genetics | barriers | small granularity, ~58% FS |
//!
//! Each application has a deterministic sequential reference; every run
//! is verified against it (exactly where the parallel computation is
//! order-independent, with a tolerance where floating-point reduction
//! order differs).
//!
//! # Examples
//!
//! ```
//! use adsm_apps::{App, Scale};
//! use adsm_core::ProtocolKind;
//!
//! let run = adsm_apps::run_app(App::Sor, ProtocolKind::Wfs, 4, Scale::Tiny);
//! assert!(run.ok, "{}", run.detail);
//! assert!(run.outcome.report.time > adsm_core::SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]

pub mod barnes;
pub mod fft3d;
pub mod ilink;
pub mod is;
pub mod kernels;
pub mod shallow;
pub mod sor;
mod support;
pub mod tsp;
pub mod water;

use std::fmt;

use adsm_core::{CostModel, HomePolicy, ProtocolKind, RunOutcome, SimTime};

/// The eight evaluation applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum App {
    /// Red-Black successive over-relaxation.
    Sor,
    /// NAS integer sort (bucket sort).
    Is,
    /// NAS 3-D fast Fourier transform.
    Fft3d,
    /// Branch-and-bound travelling salesman.
    Tsp,
    /// SPLASH Water (molecular dynamics, O(n^2) with cutoff).
    Water,
    /// NCAR shallow-water weather kernel.
    Shallow,
    /// SPLASH Barnes-Hut (hierarchical n-body).
    Barnes,
    /// Genetic linkage analysis (synthetic sparse-genarray workload with
    /// ILINK's access structure; see DESIGN.md).
    Ilink,
}

impl App {
    /// All applications in the paper's presentation order.
    pub const ALL: [App; 8] = [
        App::Sor,
        App::Is,
        App::Fft3d,
        App::Tsp,
        App::Water,
        App::Shallow,
        App::Barnes,
        App::Ilink,
    ];

    /// Table row name.
    pub fn name(self) -> &'static str {
        match self {
            App::Sor => "SOR",
            App::Is => "IS",
            App::Fft3d => "3D-FFT",
            App::Tsp => "TSP",
            App::Water => "Water",
            App::Shallow => "Shallow",
            App::Barnes => "Barnes",
            App::Ilink => "ILINK",
        }
    }

    /// Synchronisation style, as in Table 1 (`l` = locks, `b` = barriers).
    pub fn sync_style(self) -> &'static str {
        match self {
            App::Sor => "b",
            App::Is => "l,b",
            App::Fft3d => "b",
            App::Tsp => "l",
            App::Water => "l,b",
            App::Shallow => "b",
            App::Barnes => "b",
            App::Ilink => "b",
        }
    }

    /// Human-readable input-size description for a scale.
    pub fn input_desc(self, scale: Scale) -> String {
        match self {
            App::Sor => {
                let p = sor::SorParams::new(scale);
                format!("{}x{}", p.rows, p.cols)
            }
            App::Is => {
                let p = is::IsParams::new(scale);
                format!("2^{} keys, 2^{} buckets", p.log_keys, p.log_buckets)
            }
            App::Fft3d => {
                let p = fft3d::FftParams::new(scale);
                format!("{}x{}x{}", p.n, p.n, p.n)
            }
            App::Tsp => {
                let p = tsp::TspParams::new(scale);
                format!("{} cities", p.ncities)
            }
            App::Water => {
                let p = water::WaterParams::new(scale);
                format!("{} molecules", p.nmol)
            }
            App::Shallow => {
                let p = shallow::ShallowParams::new(scale);
                format!("{}x{}", p.m, p.n)
            }
            App::Barnes => {
                let p = barnes::BarnesParams::new(scale);
                format!("{} bodies", p.nbodies)
            }
            App::Ilink => {
                let p = ilink::IlinkParams::new(scale);
                format!("{} genarrays x {}", p.narrays, p.slots)
            }
        }
    }
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Input-size presets.
///
/// The simulator executes every shared access of the real algorithms, so
/// the paper's full inputs would take long wall-clock times inside a test
/// budget; `Paper` is a linearly scaled-down version of the paper's
/// inputs that preserves layout relationships (elements per page, band
/// boundaries), `Small` is the benchmark default, `Tiny` is for unit
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scale {
    /// Seconds-long table generation (default for `repro`).
    Small,
    /// Fast unit-test inputs.
    Tiny,
    /// Closest practical approximation of the paper's inputs.
    Paper,
    /// High-processor-count inputs: sized so every processor of a
    /// 64–256-way run owns work (grids with ≥ 256 bandable units),
    /// with tiny-style modelled compute so scale sweeps stay inside a
    /// CI budget.
    Large,
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
            Scale::Large => "large",
        };
        f.write_str(s)
    }
}

/// Result of one verified application run.
#[derive(Debug)]
pub struct AppRun {
    /// The measurements and final memory of the run.
    pub outcome: RunOutcome,
    /// Did the run's output match the sequential reference?
    pub ok: bool,
    /// Verification detail (empty when `ok`).
    pub detail: String,
}

impl AppRun {
    /// A run and the verdict of checking its output against the reference.
    pub(crate) fn verified(outcome: RunOutcome, check: Result<(), String>) -> Self {
        AppRun {
            outcome,
            ok: check.is_ok(),
            detail: check.err().unwrap_or_default(),
        }
    }
}

/// Optional tuning applied to an application run: the protocol
/// extensions beyond the paper's four evaluated protocols, and cost-model
/// overrides for parameter sweeps.
///
/// # Examples
///
/// ```
/// use adsm_apps::{run_app_tuned, App, RunOptions, Scale};
/// use adsm_core::ProtocolKind;
///
/// let opts = RunOptions {
///     migratory_opt: true,
///     ..RunOptions::default()
/// };
/// let run = run_app_tuned(App::Is, ProtocolKind::Wfs, 2, Scale::Tiny, &opts);
/// assert!(run.ok, "{}", run.detail);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Enable the §7 migratory ownership optimisation (adaptive
    /// protocols only).
    pub migratory_opt: bool,
    /// Home placement for the HLRC comparator; other protocols ignore it.
    pub home_policy: HomePolicy,
    /// Cost-model override (defaults to the paper's SPARC/ATM model).
    pub cost: Option<CostModel>,
    /// Schedule-fuzzing seed (robustness testing; timing reports from
    /// fuzzed runs are not meaningful).
    pub schedule_fuzz: Option<u64>,
    /// Diff creation strategy (lazy is MW-only, as in TreadMarks).
    pub diff_strategy: adsm_core::DiffStrategy,
    /// Record host wall-clock histograms of the protocol hot paths
    /// (`validate_page`, barrier fan-in) into the run report; used by
    /// `repro bench-scale` and `benchmark/`.
    pub measure_host_costs: bool,
    /// Execution backend: the deterministic simulator scheduler
    /// (default) or real OS threads. Mutually exclusive with
    /// `schedule_fuzz`.
    pub backend: adsm_core::ExecBackend,
    /// Chaos scenario: routes every cross-processor message through the
    /// seeded delivery layer (loss, duplication, reorder, jitter, fault
    /// windows, scheduled crashes and HLRC home failovers) and records a
    /// journal of every deviation; drives `repro scenarios` and `repro
    /// crash-matrix`.
    pub scenario: Option<adsm_core::Scenario>,
    /// Sweep the SC comparator's coherence invariants after every fault
    /// (test facility: it copies every page each time); other protocols
    /// ignore it.
    pub sc_invariant_checks: bool,
}

impl RunOptions {
    /// A DSM builder honouring these options.
    pub(crate) fn builder(&self, protocol: ProtocolKind, nprocs: usize) -> adsm_core::DsmBuilder {
        let mut b = adsm_core::Dsm::builder(protocol)
            .nprocs(nprocs)
            .migratory_optimization(self.migratory_opt)
            .home_policy(self.home_policy);
        if let Some(cost) = &self.cost {
            b = b.cost_model(cost.clone());
        }
        if let Some(seed) = self.schedule_fuzz {
            b = b.schedule_fuzz(seed);
        }
        b = b.diff_strategy(self.diff_strategy);
        b = b.measure_host_costs(self.measure_host_costs);
        b = b.backend(self.backend);
        if let Some(scenario) = &self.scenario {
            b = b.scenario(scenario.clone());
        }
        b = b.sc_invariant_checks(self.sc_invariant_checks);
        b
    }
}

/// Runs `app` under `protocol` on `nprocs` processors and verifies the
/// result against the app's sequential reference.
pub fn run_app(app: App, protocol: ProtocolKind, nprocs: usize, scale: Scale) -> AppRun {
    run_app_tuned(app, protocol, nprocs, scale, &RunOptions::default())
}

/// As [`run_app`], with [`RunOptions`] tuning for protocol extensions
/// and cost-model sweeps.
pub fn run_app_tuned(
    app: App,
    protocol: ProtocolKind,
    nprocs: usize,
    scale: Scale,
    opts: &RunOptions,
) -> AppRun {
    match app {
        App::Sor => sor::run_tuned(protocol, nprocs, scale, opts),
        App::Is => is::run_tuned(protocol, nprocs, scale, opts),
        App::Fft3d => fft3d::run_tuned(protocol, nprocs, scale, opts),
        App::Tsp => tsp::run_tuned(protocol, nprocs, scale, opts),
        App::Water => water::run_tuned(protocol, nprocs, scale, opts),
        App::Shallow => shallow::run_tuned(protocol, nprocs, scale, opts),
        App::Barnes => barnes::run_tuned(protocol, nprocs, scale, opts),
        App::Ilink => ilink::run_tuned(protocol, nprocs, scale, opts),
    }
}

/// Sequential execution time of `app` (Raw protocol, one processor, all
/// synchronisation removed) — the basis of the paper's speedups
/// (Table 1).
pub fn sequential_time(app: App, scale: Scale) -> SimTime {
    run_app(app, ProtocolKind::Raw, 1, scale)
        .outcome
        .report
        .time
}
