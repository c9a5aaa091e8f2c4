//! The run driver: builds the cluster, has the engine run the
//! application closure once per processor, and produces the
//! [`RunReport`] plus the final merged memory image.

use std::fmt;
use std::sync::Arc;

use adsm_engine::{Engine, RunFailure};
use adsm_mempage::{page_count, PagedMemory, Pod, PAGE_SIZE};
use adsm_netsim::{Delivery, DeliveryJournal, FaultKind, SimTime};
use adsm_vclock::ProcId;
use parking_lot::Mutex;

use crate::metrics::RunReport;
use crate::profile::ProfileSummary;
use crate::protocol::{lrc, Ctx};
use crate::world::World;
use crate::{ExecBackend, Proc, ProtocolKind, RunOptions, SharedVec};

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

/// Builder for a [`Dsm`]: a protocol, a processor count and the run's
/// [`RunOptions`].
///
/// # Examples
///
/// ```
/// use adsm_core::{Dsm, HomePolicy, ProtocolKind, RunOptions};
///
/// let dsm = Dsm::builder(ProtocolKind::Hlrc)
///     .nprocs(4)
///     .options(RunOptions {
///         home_policy: HomePolicy::FirstTouch,
///         ..RunOptions::default()
///     })
///     .build();
/// assert_eq!(dsm.protocol(), ProtocolKind::Hlrc);
/// ```
#[derive(Clone, Debug)]
pub struct DsmBuilder {
    protocol: ProtocolKind,
    nprocs: usize,
    opts: RunOptions,
}

impl DsmBuilder {
    /// Starts a builder for the given protocol with paper defaults
    /// (8 processors, [`RunOptions::default`]).
    pub fn new(protocol: ProtocolKind) -> Self {
        DsmBuilder {
            protocol,
            nprocs: 8,
            opts: RunOptions::default(),
        }
    }

    /// Sets the number of simulated processors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn nprocs(mut self, n: usize) -> Self {
        assert!(n > 0, "a cluster needs at least one processor");
        self.nprocs = n;
        self
    }

    /// Sets every other setting of the run. [`Dsm::run`] rejects the
    /// combinations the fields' docs name with [`RunError::BadConfig`].
    pub fn options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Dsm {
        Dsm {
            protocol: self.protocol,
            nprocs: self.nprocs,
            opts: self.opts,
            cursor: 0,
        }
    }
}

/// A configured DSM system: allocate shared arrays, then [`Dsm::run`] the
/// application.
#[derive(Debug)]
pub struct Dsm {
    protocol: ProtocolKind,
    nprocs: usize,
    opts: RunOptions,
    cursor: usize,
}

impl Dsm {
    /// Shorthand for [`DsmBuilder::new`].
    pub fn builder(protocol: ProtocolKind) -> DsmBuilder {
        DsmBuilder::new(protocol)
    }

    /// Number of processors configured.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Protocol configured.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
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
        let Dsm {
            protocol,
            nprocs,
            opts,
            cursor,
        } = self;
        if protocol == ProtocolKind::Raw && nprocs != 1 {
            return Err(RunError::BadConfig(
                "the Raw baseline only supports a single processor".into(),
            ));
        }
        if opts.backend == ExecBackend::Threads && opts.schedule_fuzz.is_some() {
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
        for f in opts.faults() {
            match f.kind {
                FaultKind::ProcCrash { proc } | FaultKind::ProcRestart { proc } => {
                    if !protocol.is_lrc() {
                        return Err(RunError::BadConfig(
                            "crash recovery replays the replicated interval log, which \
                             only the LRC-family protocols keep"
                                .into(),
                        ));
                    }
                    if proc as usize >= nprocs {
                        return Err(RunError::BadConfig(format!(
                            "crash/restart fault names processor {proc}, but the cluster \
                             has {nprocs} processors"
                        )));
                    }
                }
                FaultKind::HomeFailover { home } => {
                    if protocol != ProtocolKind::Hlrc {
                        return Err(RunError::BadConfig(
                            "home failover promotes HLRC's replicated backup home; it \
                             needs ProtocolKind::Hlrc"
                                .into(),
                        ));
                    }
                    if home as usize >= nprocs {
                        return Err(RunError::BadConfig(format!(
                            "home failover names processor {home}, but the cluster has \
                             {nprocs} processors"
                        )));
                    }
                }
                _ => {}
            }
        }
        let npages = page_count(cursor).max(1);
        let (backend, fuzz) = (opts.backend, opts.schedule_fuzz);
        let access_cost = opts.cost.shared_access;
        let mem_per_byte_ns = opts.cost.mem_per_byte_ns;

        // Built in this order — world, memories, engine — on purpose: no
        // simulated figure depends on it, but host time does. With the
        // engine built first, `benchmark/` on a 2-core x86-64 host read
        // `chaos8_sim` `wall_s` +6.5 % and `paper8_sim` `setup_s` +32 %
        // (slower in 6 of 6 alternating pairs each), level again with
        // this order; heap layout is the likely cause.
        let world = Arc::new(Mutex::new(World::new(protocol, nprocs, npages, opts)));
        let mems: Arc<Vec<Mutex<PagedMemory>>> = Arc::new(
            (0..nprocs)
                .map(|k| Mutex::new(PagedMemory::pooled(npages, k)))
                .collect(),
        );
        let engine = match (backend, fuzz) {
            (ExecBackend::Threads, _) => Engine::threaded(nprocs),
            (ExecBackend::Sim, Some(seed)) => Engine::with_fuzz_seed(nprocs, seed),
            (ExecBackend::Sim, None) => Engine::new(nprocs),
        };
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
                raw: protocol == ProtocolKind::Raw,
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
            diffs_alive: std::mem::take(&mut w.diffs_alive),
            profile: ProfileSummary::of(&w.dir.pages, &w.write_grains),
            touched_pages: w.touched_pages(),
            final_sw_pages: w.final_sw_pages(),
        };

        let mems = Arc::try_unwrap(mems)
            .map_err(|_| ())
            .expect("every processor has dropped its handle");
        finalize_image(&mut w, &mems, protocol, npages);
        // The other memories go back to the frame pool here; processor
        // 0's goes back when the outcome is dropped.
        let image = mems
            .into_iter()
            .next()
            .expect("a cluster has processor 0")
            .into_inner();

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
/// view an external observer fetching every page would see) in
/// processor 0's memory. Uses the protocol's own validation path on
/// processor 0, off the clock.
fn finalize_image(
    w: &mut World,
    mems: &[Mutex<PagedMemory>],
    protocol: ProtocolKind,
    npages: usize,
) {
    if protocol == ProtocolKind::Raw {
        return;
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
                let bytes = w.pool.get_copy(mems[src.index()].lock().page(page));
                mems[0].lock().install_page(page, &bytes);
            }
        }
        return;
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
}

/// Result of a completed run: the measurements and the final coherent
/// memory image.
pub struct RunOutcome {
    /// Everything measured during the run.
    pub report: RunReport,
    /// Processor 0's memory, into which the run's end merged every page:
    /// the image is read in place, and the frame goes back to the pool
    /// when the outcome is dropped.
    image: PagedMemory,
    journal: Option<DeliveryJournal>,
}

impl fmt::Debug for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOutcome")
            .field("report", &self.report)
            .field("image_bytes", &self.image().len())
            .field(
                "journal_events",
                &self.journal.as_ref().map(DeliveryJournal::len),
            )
            .finish()
    }
}

impl RunOutcome {
    /// Reads a shared array out of the final coherent image into a new
    /// `Vec`; [`elems`](RunOutcome::elems) reads it without the copy.
    pub fn read_vec<T: Pod>(&self, v: &SharedVec<T>) -> Vec<T> {
        self.elems(v).collect()
    }

    /// The elements of a shared array, in order, read one at a time
    /// from the final coherent image in place: checking a result
    /// against a reference this way copies nothing.
    pub fn elems<T: Pod>(&self, v: &SharedVec<T>) -> impl ExactSizeIterator<Item = T> + '_ {
        self.image
            .raw(v.addr(0), v.len() * T::SIZE)
            .chunks_exact(T::SIZE)
            .map(T::load_le)
    }

    /// Reads a single element out of the final coherent image.
    pub fn read_elem<T: Pod>(&self, v: &SharedVec<T>, i: usize) -> T {
        T::load_le(self.image.raw(v.addr(i), T::SIZE))
    }

    /// The whole final coherent memory image (every page, merged
    /// through the protocol's own validation path). This is the
    /// schedule-independent result of a data-race-free program — the
    /// cross-backend oracle tests digest it to pin the threads backend
    /// against the simulator.
    pub fn image(&self) -> &[u8] {
        self.image.raw(0, self.image.npages() * PAGE_SIZE)
    }

    /// The chaos delivery journal recorded by this run, present exactly
    /// when the run was configured with a
    /// [`scenario`](RunOptions::scenario). It holds one event per
    /// delivery *deviation* (drop, duplicate, reorder, jitter) — a
    /// fault-free run under a perfect scenario records an empty
    /// journal. Its sums are the report's chaos counters
    /// ([`DeliveryJournal::check_counters`]).
    pub fn journal(&self) -> Option<&DeliveryJournal> {
        self.journal.as_ref()
    }
}
