//! The run driver: builds the cluster, has the engine run the
//! application closure once per processor, and produces the
//! [`RunReport`] plus the final merged memory image.

use std::fmt;
use std::sync::Arc;

use adsm_engine::{Engine, RunFailure};
use adsm_mempage::{page_count, PagedMemory, Pod, PAGE_SIZE};
use adsm_netsim::{CostModel, Delivery, DeliveryJournal, FaultKind, Scenario, SimTime};
use adsm_vclock::ProcId;
use parking_lot::Mutex;

use crate::metrics::RunReport;
use crate::protocol::{lrc, protocol_for, Ctx};
use crate::world::World;
use crate::{DsmConfig, Proc, ProtocolKind, SharedVec};

/// Errors surfaced by [`Dsm::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Every processor ended up blocked (application synchronisation
    /// bug). Carries the engine's report: the headline, then every
    /// blocked processor with what it waits on — the same text on both
    /// backends.
    Deadlock(String),
    /// An application closure panicked; the payload message is included.
    AppPanic(String),
    /// The configuration is invalid (e.g. the Raw protocol with more
    /// than one processor).
    BadConfig(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock(report) => f.write_str(report),
            RunError::AppPanic(m) => write!(f, "application panicked: {m}"),
            RunError::BadConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Builder for a [`Dsm`].
///
/// # Examples
///
/// ```
/// use adsm_core::{Dsm, ProtocolKind};
/// use adsm_netsim::CostModel;
///
/// let dsm = Dsm::builder(ProtocolKind::Wfs)
///     .nprocs(8)
///     .cost_model(CostModel::sparc_atm())
///     .build();
/// assert_eq!(dsm.nprocs(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct DsmBuilder {
    cfg: DsmConfig,
}

impl DsmBuilder {
    /// Starts a builder for the given protocol with paper defaults
    /// (8 processors, SPARC/ATM cost model).
    pub fn new(protocol: ProtocolKind) -> Self {
        DsmBuilder {
            cfg: DsmConfig::new(protocol),
        }
    }

    /// Sets the number of simulated processors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn nprocs(mut self, n: usize) -> Self {
        assert!(n > 0, "a cluster needs at least one processor");
        self.cfg.nprocs = n;
        self
    }

    /// Sets the virtual-time cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Enables the migratory-data ownership optimisation (§7 future
    /// work): once a page is observed to migrate (read miss followed by
    /// a write from the same processor, repeatedly), ownership moves on
    /// the read miss, eliminating the separate ownership exchange.
    /// Adaptive protocols only; ignored by MW/SW.
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_core::{Dsm, ProtocolKind};
    ///
    /// let dsm = Dsm::builder(ProtocolKind::Wfs)
    ///     .nprocs(4)
    ///     .migratory_optimization(true)
    ///     .build();
    /// assert_eq!(dsm.nprocs(), 4);
    /// ```
    pub fn migratory_optimization(mut self, on: bool) -> Self {
        self.cfg.migratory_opt = on;
        self
    }

    /// Sets the home placement policy of the home-based LRC comparator
    /// ([`ProtocolKind::Hlrc`]); every other protocol ignores it.
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_core::{Dsm, HomePolicy, ProtocolKind};
    ///
    /// let dsm = Dsm::builder(ProtocolKind::Hlrc)
    ///     .nprocs(4)
    ///     .home_policy(HomePolicy::FirstTouch)
    ///     .build();
    /// assert_eq!(dsm.protocol(), ProtocolKind::Hlrc);
    /// ```
    pub fn home_policy(mut self, policy: crate::HomePolicy) -> Self {
        self.cfg.home_policy = policy;
        self
    }

    /// Selects when multiple-writer diffs are encoded:
    /// [`DiffStrategy::Eager`](crate::DiffStrategy::Eager) (default)
    /// encodes at interval close; `Lazy` retains the twin and encodes on
    /// first request or at the next local write, as TreadMarks does.
    /// Lazy diffing is only supported by the pure MW protocol (the
    /// adaptive protocols need close-time diff sizes for the
    /// write-granularity test); [`Dsm::run`] rejects other combinations
    /// with [`RunError::BadConfig`].
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_core::{DiffStrategy, Dsm, ProtocolKind};
    ///
    /// let dsm = Dsm::builder(ProtocolKind::Mw)
    ///     .nprocs(2)
    ///     .diff_strategy(DiffStrategy::Lazy)
    ///     .build();
    /// assert_eq!(dsm.protocol(), ProtocolKind::Mw);
    /// ```
    pub fn diff_strategy(mut self, strategy: crate::DiffStrategy) -> Self {
        self.cfg.diff_strategy = strategy;
        self
    }

    /// Enables the SC comparator's per-fault invariant checker (single
    /// writable copy, coherent read copies, exact copysets). Off by
    /// default; other protocols ignore the flag.
    pub fn sc_invariant_checks(mut self, on: bool) -> Self {
        self.cfg.sc_check = on;
        self
    }

    /// Enables **schedule fuzzing**: the engine picks the next processor
    /// pseudo-randomly (seeded) at every turn point instead of by least
    /// virtual clock. Every fuzzed schedule is a causally valid
    /// execution, so data-race-free programs must produce identical
    /// results under any seed — the robustness property the
    /// `schedule_fuzz` tests exercise. Timing reports from fuzzed runs
    /// are not meaningful.
    pub fn schedule_fuzz(mut self, seed: u64) -> Self {
        self.cfg.schedule_fuzz = Some(seed);
        self
    }

    /// Measures host wall-clock costs of the protocol hot paths
    /// (`validate_page`, barrier fan-in) into the run report's
    /// histograms ([`validate_wall`](crate::ProtocolStats::validate_wall)
    /// and [`barrier_fanin_wall`](crate::ProtocolStats::barrier_fanin_wall)).
    /// Off by default; `repro bench-scale` and `benchmark/` turn it on.
    pub fn measure_host_costs(mut self, on: bool) -> Self {
        self.cfg.measure_host_costs = on;
        self
    }

    /// Selects the execution backend: the deterministic simulator
    /// (default) or free-running OS threads
    /// ([`ExecBackend::Threads`](crate::ExecBackend::Threads)), where
    /// lock waits, page fetches and barrier arrivals park the calling
    /// thread for real. The simulator remains the oracle — threads runs
    /// are not reproducible and their virtual-time reports are
    /// approximate; race-free programs must still compute identical
    /// final memory. Rejected (at [`Dsm::run`]) in combination with
    /// [`schedule_fuzz`](Self::schedule_fuzz).
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_core::{Dsm, ExecBackend, ProtocolKind};
    ///
    /// let dsm = Dsm::builder(ProtocolKind::Wfs)
    ///     .nprocs(8)
    ///     .backend(ExecBackend::Threads)
    ///     .build();
    /// assert_eq!(dsm.nprocs(), 8);
    /// ```
    pub fn backend(mut self, backend: crate::ExecBackend) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Attaches a chaos [`Scenario`]: every cross-processor protocol
    /// message is routed through the seeded delivery layer, which may
    /// drop it (the sender times out and retransmits with exponential
    /// backoff), duplicate it (the receiver suppresses the copy but
    /// pays a service interrupt), reorder it, or stretch its latency —
    /// all deterministically from the scenario seed, so running the same
    /// scenario again reproduces the run bit for bit. Every deviation is
    /// journaled in the completed run's [`RunOutcome::journal`]. A
    /// scenario with all-zero rates and no faults is exactly a plain
    /// run.
    ///
    /// Scheduled crashes need an LRC-family protocol, and a scheduled
    /// [`FaultKind::HomeFailover`] needs [`ProtocolKind::Hlrc`]: it
    /// replicates every home onto a backup node (`(home + 1) % nprocs`)
    /// for the whole run — the flush stream feeds the backup too, and
    /// the home's own writes lose their write-in-place shortcut — so
    /// the failover promotes the backup with no state transfer.
    /// [`Dsm::run`] rejects other combinations with
    /// [`RunError::BadConfig`].
    ///
    /// # Examples
    ///
    /// ```
    /// use adsm_core::{Dsm, ProtocolKind};
    /// use adsm_netsim::Scenario;
    ///
    /// let dsm = Dsm::builder(ProtocolKind::Wfs)
    ///     .nprocs(4)
    ///     .scenario(Scenario::lossy("lossy", 42, 10_000))
    ///     .build();
    /// assert_eq!(dsm.nprocs(), 4);
    /// ```
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.cfg.scenario = Some(scenario.into_arc());
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Dsm {
        Dsm {
            cfg: self.cfg,
            cursor: 0,
        }
    }
}

/// A configured DSM system: allocate shared arrays, then [`Dsm::run`] the
/// application.
#[derive(Debug)]
pub struct Dsm {
    cfg: DsmConfig,
    cursor: usize,
}

impl Dsm {
    /// Shorthand for [`DsmBuilder::new`].
    pub fn builder(protocol: ProtocolKind) -> DsmBuilder {
        DsmBuilder::new(protocol)
    }

    /// Number of processors configured.
    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    /// Protocol configured.
    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    /// Allocates a shared array of `len` elements (8-byte aligned).
    pub fn alloc<T: Pod>(&mut self, len: usize) -> SharedVec<T> {
        self.cursor = align_up(self.cursor, T::SIZE.max(8));
        let v = SharedVec::from_raw(self.cursor, len);
        self.cursor += len * T::SIZE;
        v
    }

    /// Allocates a shared array starting on a fresh page — the layout
    /// the paper's applications use for their principal arrays.
    pub fn alloc_page_aligned<T: Pod>(&mut self, len: usize) -> SharedVec<T> {
        self.cursor = align_up(self.cursor, PAGE_SIZE);
        self.alloc(len)
    }

    /// Allocates a `rows x cols` row-major matrix (8-byte aligned).
    pub fn alloc_matrix<T: Pod>(&mut self, rows: usize, cols: usize) -> crate::SharedMatrix<T> {
        crate::SharedMatrix::new(self.alloc(rows * cols), rows, cols)
    }

    /// Allocates a `rows x cols` row-major matrix starting on a fresh
    /// page — with a page-multiple row length this gives the banded
    /// row layout the paper's applications use (no write-write false
    /// sharing across bands).
    pub fn alloc_matrix_page_aligned<T: Pod>(
        &mut self,
        rows: usize,
        cols: usize,
    ) -> crate::SharedMatrix<T> {
        crate::SharedMatrix::new(self.alloc_page_aligned(rows * cols), rows, cols)
    }

    /// Pads the shared space to the next page boundary (so the next
    /// allocation does not share a page with the previous one).
    pub fn pad_to_page(&mut self) {
        self.cursor = align_up(self.cursor, PAGE_SIZE);
    }

    /// Bytes of shared space allocated so far.
    pub fn allocated_bytes(&self) -> usize {
        self.cursor
    }

    /// Runs `app` on every processor to completion.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] if all processors block,
    /// [`RunError::AppPanic`] if a closure panics, and
    /// [`RunError::BadConfig`] for invalid configurations.
    pub fn run<F>(self, app: F) -> Result<RunOutcome, RunError>
    where
        F: Fn(&mut Proc) + Send + Sync + 'static,
    {
        let mut cfg = self.cfg;
        if cfg.protocol == ProtocolKind::Raw && cfg.nprocs != 1 {
            return Err(RunError::BadConfig(
                "the Raw baseline only supports a single processor".into(),
            ));
        }
        if cfg.diff_strategy == crate::DiffStrategy::Lazy && cfg.protocol != ProtocolKind::Mw {
            return Err(RunError::BadConfig(
                "lazy diffing is only supported by the MW protocol".into(),
            ));
        }
        if cfg.backend == crate::ExecBackend::Threads && cfg.schedule_fuzz.is_some() {
            return Err(RunError::BadConfig(
                "schedule fuzzing is a simulator-scheduler property; \
                 the threads backend has no schedule to fuzz"
                    .into(),
            ));
        }
        // Crash/failover events need protocol machinery to recover with:
        // the replicated interval log (any LRC-family protocol) for a
        // restart, HLRC's replicated homes for a failover. Reject
        // configurations that would silently swallow a scheduled fault.
        for f in cfg.faults() {
            match f.kind {
                FaultKind::ProcCrash { proc } | FaultKind::ProcRestart { proc } => {
                    if !cfg.protocol.is_lrc() {
                        return Err(RunError::BadConfig(
                            "crash recovery replays the replicated interval log, which \
                             only the LRC-family protocols keep"
                                .into(),
                        ));
                    }
                    if proc as usize >= cfg.nprocs {
                        return Err(RunError::BadConfig(format!(
                            "crash/restart fault names processor {proc}, but the cluster \
                             has {} processors",
                            cfg.nprocs
                        )));
                    }
                }
                FaultKind::HomeFailover { home } => {
                    if cfg.protocol != ProtocolKind::Hlrc {
                        return Err(RunError::BadConfig(
                            "home failover promotes HLRC's replicated backup home; it \
                             needs ProtocolKind::Hlrc"
                                .into(),
                        ));
                    }
                    if home as usize >= cfg.nprocs {
                        return Err(RunError::BadConfig(format!(
                            "home failover names processor {home}, but the cluster has \
                             {} processors",
                            cfg.nprocs
                        )));
                    }
                }
                _ => {}
            }
        }
        cfg.npages = page_count(self.cursor).max(1);
        let nprocs = cfg.nprocs;
        let npages = cfg.npages;
        let protocol = cfg.protocol;

        let world = Arc::new(Mutex::new(World::new(cfg)));
        let mems: Arc<Vec<Mutex<PagedMemory>>> = Arc::new(
            (0..nprocs)
                .map(|_| Mutex::new(PagedMemory::new(npages)))
                .collect(),
        );
        let (backend, fuzz) = {
            let w = world.lock();
            (w.cfg.backend, w.cfg.schedule_fuzz)
        };
        let engine = match (backend, fuzz) {
            (crate::ExecBackend::Threads, _) => Engine::threaded(nprocs),
            (crate::ExecBackend::Sim, Some(seed)) => Engine::with_fuzz_seed(nprocs, seed),
            (crate::ExecBackend::Sim, None) => Engine::new(nprocs),
        };
        let access_cost = world.lock().cfg.cost.shared_access;
        let mem_per_byte_ns = world.lock().cfg.cost.mem_per_byte_ns;
        // The single protocol-selection point: every entry point from
        // here on dispatches through this object.
        let proto = protocol_for(protocol);
        let pool = world.lock().pool.clone();
        // On the simulator every processor is a coroutine of one carrier
        // thread, so the run's locks cannot be contended: the carrier
        // holds them all, in lock order, for as long as the processors
        // live, and each `lock()` under it is a flag. (The threads
        // backend never calls this; its locks stay std's.)
        let holds = |go: &mut dyn FnMut()| {
            let _world = world.hold();
            let _mems: Vec<_> = mems.iter().map(Mutex::hold).collect();
            let _pool = pool.hold();
            go();
        };
        let outcome = engine.run_within(holds, |task| {
            let mut proc = Proc {
                id: ProcId::new(task.id()),
                task,
                nprocs,
                world: world.clone(),
                mems: mems.clone(),
                proto,
                raw: Proc::is_raw(protocol),
                access_cost,
                mem_per_byte_ns,
            };
            app(&mut proc);
            proc.task
        });
        match outcome {
            Ok(()) => {}
            Err(RunFailure::Deadlock(report)) => return Err(RunError::Deadlock(report)),
            Err(RunFailure::Panic(payload)) => {
                return Err(RunError::AppPanic(adsm_engine::panic_message(&*payload)));
            }
        }

        let proc_times = engine.clocks();
        let time = proc_times.iter().copied().fold(SimTime::ZERO, SimTime::max);

        let mut w = Arc::try_unwrap(world)
            .map_err(|_| ())
            .expect("every processor has dropped its handle")
            .into_inner();
        w.proto.pool_pages_created = w.pool.pages_created();
        w.proto.pool_pages_reused = w.pool.pages_reused();
        // The journal covers the messages the report counts, so its sums
        // are the report's chaos counters; image assembly below is off
        // the clock and its traffic is delivered clean, unjournaled.
        let journal = w.delivery.take().map(Delivery::into_journal);
        let report = RunReport {
            protocol,
            backend,
            nprocs,
            time,
            proc_times,
            net: w.net.clone(),
            proto: w.proto.clone(),
            trace: w.trace.clone(),
            profile: w.profiler.summary(),
            touched_pages: w.touched_pages(),
            final_sw_pages: w.final_sw_pages(),
        };

        let mems = Arc::try_unwrap(mems)
            .map_err(|_| ())
            .expect("every processor has dropped its handle");
        let image = finalize_image(&mut w, &mems, protocol, npages);

        Ok(RunOutcome {
            report,
            image,
            journal,
        })
    }
}

fn align_up(x: usize, align: usize) -> usize {
    x.div_ceil(align) * align
}

/// After the run, merge everything into a single coherent image (the
/// view an external observer fetching every page would see). Uses the
/// protocol's own validation path on processor 0, off the clock.
fn finalize_image(
    w: &mut World,
    mems: &[Mutex<PagedMemory>],
    protocol: ProtocolKind,
    npages: usize,
) -> Vec<u8> {
    if protocol == ProtocolKind::Raw {
        return mems[0].lock().raw(0, npages * PAGE_SIZE).to_vec();
    }
    // Close any open intervals so uncommitted writes become diffs or
    // owner notices (under HLRC, so they are flushed to their homes).
    for p in ProcId::all(w.nprocs()) {
        let _ = lrc::close_interval(w, mems, p, SimTime::ZERO);
    }
    w.deferred_costs.clear();
    // The comparators keep one authoritative frame per page: the owner's
    // under SC, the home's under HLRC. Assemble the image from those.
    if matches!(protocol, ProtocolKind::Sc | ProtocolKind::Hlrc) {
        for pg in 0..npages {
            let page = adsm_mempage::PageId::new(pg);
            let src = match protocol {
                ProtocolKind::Sc => w.dir[pg].owner.expect("SC pages have owners"),
                // An unresolved home means the page was never faulted:
                // every frame still holds its initial zeros.
                _ => w.dir[pg].home.unwrap_or(ProcId::new(0)),
            };
            if src.index() != 0 {
                let bytes = mems[src.index()].lock().page(page).to_vec();
                mems[0].lock().install_page(page, &bytes);
            }
        }
        return mems[0].lock().raw(0, npages * PAGE_SIZE).to_vec();
    }
    // Walk proc 0 over every page with a scratch engine (costs are
    // irrelevant; the report was already taken).
    let scratch = Engine::new(w.nprocs());
    let mut task = scratch.task(0);
    task.begin();
    let p0 = ProcId::new(0);
    for pg in 0..npages {
        let page = adsm_mempage::PageId::new(pg);
        let needs = {
            let mem = mems[0].lock();
            !mem.rights(page).readable()
        } || !w.procs[0].pages[pg].missing.is_empty();
        if needs {
            let mut ctx = Ctx {
                w,
                mems,
                task: &mut task,
            };
            lrc::validate_page(&mut ctx, p0, page);
        }
    }
    task.finish();
    mems[0].lock().raw(0, npages * PAGE_SIZE).to_vec()
}

/// Result of a completed run: the measurements and the final coherent
/// memory image.
pub struct RunOutcome {
    /// Everything measured during the run.
    pub report: RunReport,
    image: Vec<u8>,
    journal: Option<DeliveryJournal>,
}

impl fmt::Debug for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOutcome")
            .field("report", &self.report)
            .field("image_bytes", &self.image.len())
            .field(
                "journal_events",
                &self.journal.as_ref().map(DeliveryJournal::len),
            )
            .finish()
    }
}

impl RunOutcome {
    /// Reads a shared array out of the final coherent image.
    pub fn read_vec<T: Pod>(&self, v: &SharedVec<T>) -> Vec<T> {
        (0..v.len())
            .map(|i| {
                let addr = v.addr(i);
                T::load_le(&self.image[addr..addr + T::SIZE])
            })
            .collect()
    }

    /// Reads a single element out of the final coherent image.
    pub fn read_elem<T: Pod>(&self, v: &SharedVec<T>, i: usize) -> T {
        let addr = v.addr(i);
        T::load_le(&self.image[addr..addr + T::SIZE])
    }

    /// The whole final coherent memory image (every page, merged
    /// through the protocol's own validation path). This is the
    /// schedule-independent result of a data-race-free program — the
    /// cross-backend oracle tests digest it to pin the threads backend
    /// against the simulator.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// The chaos delivery journal recorded by this run, present exactly
    /// when the run was configured with a
    /// [`scenario`](DsmBuilder::scenario). It holds one event per
    /// delivery *deviation* (drop, duplicate, reorder, jitter) — a
    /// fault-free run under a perfect scenario records an empty
    /// journal. Its sums are the report's chaos counters
    /// ([`DeliveryJournal::check_counters`]).
    pub fn journal(&self) -> Option<&DeliveryJournal> {
        self.journal.as_ref()
    }
}
