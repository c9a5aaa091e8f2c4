//! What one child process does for one workload: set-up, the timed
//! passes, and (when asked) the traced pass — then every figure goes to
//! the parent as lines on stdout.
//!
//! A child is a fresh process so that each workload has its own
//! allocator state and its own `VmHWM`, and so that set-up can be
//! repeated from a cold start. It pins itself to one CPU first: the
//! simulator runs exactly one task at a time by design, and on the
//! 2-core VM this was sized on the threads backend, too, is both faster
//! and steadier on one CPU than on two (README.md, "Pinning").

use std::hint::black_box;
use std::time::{Duration, Instant};

use adsm_apps::{sequential_time, App, RunOptions, Scale};
use adsm_core::{ExecBackend, NsHistogram, ProtocolKind};

use crate::derive::{pass_figures, PassFigures};
use crate::metric::{to_line, Metric};
use crate::stats::{hi_percentile, median, percentile, quartiles};
use crate::trace::Recorder;
use crate::workload::{app_key, protocol_key, run_cell, Cell, CellSample, CellStats, Workload};

/// How long the timed phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Whole passes until this many seconds have gone by (the contract's
    /// `--seconds`), but never fewer than [`MIN_PASSES`].
    Seconds(f64),
    /// Exactly this many passes (`--passes`, for comparisons that want
    /// equal work on both sides).
    Passes(usize),
}

/// A median needs at least three samples to reject one outlier.
pub const MIN_PASSES: usize = 3;

/// What kind of child to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Set-up only: one more sample for the `setup_s` median.
    SetupOnly,
    /// Set-up and the timed passes: the end-to-end figures.
    Timed,
    /// Set-up, timed passes, then the traced pass and the compute and
    /// reference timings: the per-layer figures as well.
    Traced,
}

fn emit(m: &Metric) {
    println!("{}", to_line(m));
}

fn info(key: &str, value: impl std::fmt::Display) {
    println!("I\t{key}\t{value}");
}

/// One pass over the workload's cells, one cell at a time. Failures go
/// to the parent as they happen; spans are recorded when `rec` is given.
fn run_pass(
    w: &Workload,
    scale: Scale,
    opts: &RunOptions,
    label: &str,
    mut rec: Option<&mut Recorder>,
) -> (f64, Vec<CellSample>) {
    let pass_start = Instant::now();
    let mut samples = Vec::with_capacity(w.cells.len());
    for &cell in &w.cells {
        let id = format!(
            "{}/{label}/{}/{}",
            w.name,
            app_key(cell.app),
            protocol_key(cell.protocol)
        );
        let cell_start = Instant::now();
        let sample = run_cell(cell, w.nprocs, scale, opts);
        if let Some(why) = &sample.failure {
            println!("F\t{id}: {why}");
        }
        if let Some(rec) = rec.as_deref_mut() {
            // The inner span is the call itself; the outer one adds the
            // benchmark's own bookkeeping around it.
            let call = Duration::from_nanos(sample.wall_ns);
            rec.record("run_app_tuned", &id, cell_start, call);
            rec.close("cell", &id, cell_start);
        }
        samples.push(sample);
    }
    if let Some(rec) = rec {
        rec.close("pass", &format!("{}/{label}", w.name), pass_start);
    }
    (pass_start.elapsed().as_secs_f64(), samples)
}

fn failures(samples: &[CellSample]) -> usize {
    samples.iter().filter(|s| s.failure.is_some()).count()
}

/// The timed passes of one run.
struct Timed {
    /// Whole-pass wall, seconds.
    walls: Vec<f64>,
    /// Peak resident set of the process, MB, when pass [`MIN_PASSES`]
    /// ended (or the last one, if `--passes` asked for fewer). The heap
    /// keeps growing by a few MB a pass — freed arenas are not returned
    /// — so a peak taken after however many passes fitted the time box
    /// would measure the pass count.
    peak_rss_mb: f64,
    /// `passes[p][c]`: cell `c` of pass `p`.
    passes: Vec<Vec<CellSample>>,
    figures: Vec<PassFigures>,
}

impl Timed {
    fn cell_walls(&self, c: usize) -> Vec<f64> {
        self.passes.iter().map(|p| p[c].wall_ns as f64).collect()
    }

    /// Each cell's fastest pass, ns. On a shared host interference only
    /// ever adds time and comes in phases longer than a cell; the
    /// fastest sample is the one least touched by it.
    fn cell_best_ns(&self) -> Vec<f64> {
        (0..self.passes[0].len())
            .map(|c| self.cell_walls(c).into_iter().fold(f64::INFINITY, f64::min))
            .collect()
    }

    /// Host seconds of one pass: each cell's fastest pass, summed.
    fn wall_s(&self) -> f64 {
        self.cell_best_ns().iter().sum::<f64>() / 1e9
    }
}

fn timed_passes(
    w: &Workload,
    opts: &RunOptions,
    budget: Budget,
    sequential_ns: &[(App, u64)],
) -> Timed {
    let start = Instant::now();
    let mut t = Timed {
        walls: Vec::new(),
        peak_rss_mb: 0.0,
        passes: Vec::new(),
        figures: Vec::new(),
    };
    loop {
        let done = match budget {
            Budget::Passes(n) => t.passes.len() >= n,
            Budget::Seconds(s) => {
                t.passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            return t;
        }
        let (wall, samples) = run_pass(w, w.scale, opts, &t.passes.len().to_string(), None);
        t.walls.push(wall);
        t.figures
            .push(pass_figures(&w.cells, &samples, sequential_ns));
        t.passes.push(samples);
        if t.passes.len() <= MIN_PASSES {
            t.peak_rss_mb = crate::host::peak_rss_mb();
        }
    }
}

/// The end-to-end figures (all but `setup_s`, which the parent takes
/// the median of across processes).
fn end_to_end(t: &Timed) -> Vec<Metric> {
    let over_passes = |name: &str, unit: &'static str, f: fn(&PassFigures) -> f64| {
        let samples: Vec<f64> = t.figures.iter().map(f).collect();
        Metric::median_of(name, &samples, unit)
    };
    let attempted: usize = t.passes.iter().map(Vec::len).sum();
    let failed: usize = t.passes.iter().map(|p| failures(p)).sum();
    let (q1, q3) = quartiles(&t.walls);
    vec![
        Metric::new("wall_s", t.wall_s(), "s")
            .with("median", median(&t.walls))
            .with("q1", q1)
            .with("q3", q3)
            .with("n", t.walls.len() as f64),
        over_passes("virt_time", "sim_s", |f| f.virt_time_s),
        over_passes("speedup_geomean", "x", |f| f.speedup_geomean),
        over_passes("msgs", "count", |f| f.msgs),
        over_passes("data_mb", "MB", |f| f.data_mb),
        over_passes("adapt_gap", "ratio", |f| f.adapt_gap),
        over_passes("twin_diff_peak_mb", "MB", |f| f.twin_diff_peak_mb),
        Metric::new("peak_rss_mb", t.peak_rss_mb, "MB"),
        Metric::new(
            "verified_share",
            (attempted - failed) as f64 / attempted as f64,
            "share",
        )
        .with("n", attempted as f64),
    ]
}

/// Host seconds of the app's public sequential reference — the
/// verification work inside every `run_app_tuned` call.
fn time_reference(app: App, scale: Scale) -> f64 {
    use adsm_apps::{barnes, fft3d, ilink, is, shallow, sor, tsp, water};
    let start = Instant::now();
    match app {
        App::Sor => drop(black_box(sor::reference(&sor::SorParams::new(scale)))),
        App::Is => drop(black_box(is::reference(&is::IsParams::new(scale)))),
        App::Fft3d => drop(black_box(fft3d::reference(&fft3d::FftParams::new(scale)))),
        App::Tsp => {
            let p = tsp::TspParams::new(scale);
            let dist = tsp::distance_matrix(&p);
            black_box(tsp::held_karp(&dist, p.ncities));
        }
        App::Water => drop(black_box(water::reference(&water::WaterParams::new(scale)))),
        App::Shallow => drop(black_box(shallow::reference(&shallow::ShallowParams::new(
            scale,
        )))),
        App::Barnes => drop(black_box(barnes::reference(&barnes::BarnesParams::new(
            scale,
        )))),
        App::Ilink => drop(black_box(ilink::reference(&ilink::IlinkParams::new(scale)))),
    }
    start.elapsed().as_secs_f64()
}

/// App compute and verification, each timed on its own and scaled to a
/// pass (an app's figure counts once per cell it has). Raw on one
/// processor is the app with every DSM layer taken out; it still
/// verifies, so the reference's time is subtracted. Returns
/// `(compute_s, verify_s)`.
fn compute_and_verify(w: &Workload, rec: &mut Recorder) -> (f64, f64) {
    let raw_opts = RunOptions {
        backend: w.backend,
        ..RunOptions::default()
    };
    let (mut compute_s, mut verify_s) = (0.0f64, 0.0f64);
    for app in w.apps() {
        let id = format!("{}/{}", w.name, app_key(app));
        let start = Instant::now();
        let raw = run_cell(
            Cell {
                app,
                protocol: ProtocolKind::Raw,
            },
            1,
            w.scale,
            &raw_opts,
        );
        rec.close("raw_compute", &id, start);
        let start = Instant::now();
        let reference_s = time_reference(app, w.scale);
        rec.close("reference", &id, start);
        let cells_of_app = w.cells.iter().filter(|c| c.app == app).count() as f64;
        compute_s += (raw.wall_ns as f64 / 1e9 - reference_s).max(0.0) * cells_of_app;
        verify_s += reference_s * cells_of_app;
    }
    (compute_s, verify_s)
}

/// `name_p50_ns`, `name_hi_ns` (with the percentile used) and the
/// sample count of a host-cost histogram. The unit says what the
/// histogram can resolve: bucket upper bounds, ≈12.5 % apart.
fn histogram_metrics(prefix: &str, count_name: &str, h: &NsHistogram) -> Vec<Metric> {
    let n = h.count();
    let p = hi_percentile(n);
    vec![
        Metric::new(
            format!("{prefix}_p50_ns"),
            h.percentile_ns(0.5) as f64,
            "ns_bucket",
        )
        .with("n", n as f64),
        Metric::new(
            format!("{prefix}_hi_ns"),
            h.percentile_ns(p / 100.0) as f64,
            "ns_bucket",
        )
        .with("percentile", p)
        .with("n", n as f64),
        Metric::new(count_name, n as f64, "count"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The workload's per-layer figures: counters and host-cost histograms
/// from the traced pass, the split of `wall_s` from the timed ones.
fn per_layer(
    w: &Workload,
    t: &Timed,
    traced: &[CellSample],
    traced_wall_s: f64,
    (compute_s, verify_s): (f64, f64),
) -> Vec<Metric> {
    let stats: Vec<&CellStats> = traced.iter().filter_map(|s| s.stats.as_ref()).collect();
    let sum = |f: fn(&CellStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let mut out: Vec<Metric> = Vec::new();

    // netsim: the traced pass's own traffic.
    let (msgs, retx) = (sum(|s| s.msgs), sum(|s| s.retransmissions));
    out.push(Metric::new("netsim.msgs", msgs, "count"));
    out.push(Metric::new("netsim.retransmissions", retx, "count"));
    out.push(Metric::new(
        "netsim.timeout_waits",
        sum(|s| s.timeout_waits),
        "count",
    ));
    out.push(Metric::new(
        "netsim.retry_ratio",
        ratio(retx, msgs),
        "ratio",
    ));

    // core: host-cost histograms (traced pass only) and counts.
    let (mut validate, mut fanin) = (NsHistogram::default(), NsHistogram::default());
    for s in &stats {
        validate.merge(&s.validate_wall);
        fanin.merge(&s.barrier_fanin_wall);
    }
    out.extend(histogram_metrics(
        "core.validate",
        "core.validate_calls",
        &validate,
    ));
    out.extend(histogram_metrics(
        "core.barrier_fanin",
        "core.barrier_arrivals",
        &fanin,
    ));
    type Count = fn(&CellStats) -> u64;
    let counts: [(&str, &'static str, Count); 11] = [
        ("core.read_faults", "count", |s| s.read_faults),
        ("core.write_faults", "count", |s| s.write_faults),
        ("core.twins_created", "count", |s| s.twins_created),
        ("core.diffs_created", "count", |s| s.diffs_created),
        ("core.diffs_applied", "count", |s| s.diffs_applied),
        ("core.diff_bytes", "bytes", |s| s.diff_bytes),
        ("core.pages_transferred", "count", |s| s.pages_transferred),
        ("core.ownership_refusals", "count", |s| s.ownership_refusals),
        ("core.switches_to_mw", "count", |s| s.switches_to_mw),
        ("core.switches_to_sw", "count", |s| s.switches_to_sw),
        ("core.gc_runs", "count", |s| s.gc_runs),
    ];
    for (name, unit, f) in counts {
        out.push(Metric::new(name, sum(f), unit));
    }
    let (created, reused) = (sum(|s| s.pool_created), sum(|s| s.pool_reused));
    out.push(Metric::new(
        "core.pool_reuse_ratio",
        ratio(reused, created + reused),
        "ratio",
    ));
    out.push(Metric::new(
        "core.sim_events",
        sum(CellStats::sim_events),
        "count",
    ));
    // Host cost of one simulated event, tracing off: per timed pass.
    let ns_per_event: Vec<f64> = t
        .walls
        .iter()
        .zip(&t.figures)
        .map(|(wall, f)| ratio(wall * 1e9, f.sim_events as f64))
        .collect();
    out.push(Metric::median_of(
        "core.host_ns_per_event",
        &ns_per_event,
        "ns",
    ));

    // apps and proto: `wall_s` split by app and by protocol.
    let best_ns = t.cell_best_ns();
    let split = |keep: &dyn Fn(&Cell) -> bool| -> f64 {
        w.cells
            .iter()
            .zip(&best_ns)
            .filter(|(c, _)| keep(c))
            .map(|(_, ns)| ns)
            .sum()
    };
    for app in w.apps() {
        let name = format!("apps.{}.wall_ms", app_key(app));
        out.push(Metric::new(name, split(&|c| c.app == app) / 1e6, "ms"));
    }
    let wall_s = t.wall_s();
    let (compute_share, verify_share) = (compute_s / wall_s, verify_s / wall_s);
    out.push(Metric::new("apps.compute_share", compute_share, "share"));
    out.push(Metric::new("apps.verify_share", verify_share, "share"));
    out.push(Metric::new(
        "apps.dsm_share",
        1.0 - compute_share - verify_share,
        "share",
    ));
    for p in w.protocols() {
        let name = format!("proto.{}.wall_s", protocol_key(p));
        out.push(Metric::new(name, split(&|c| c.protocol == p) / 1e9, "s"));
    }

    // The benchmark itself.
    out.push(Metric::new(
        "trace.overhead_share",
        traced_wall_s / median(&t.walls) - 1.0,
        "share",
    ));
    let slowdowns: Vec<f64> = (0..w.cells.len())
        .flat_map(|c| {
            let walls = t.cell_walls(c);
            let typical = median(&walls);
            walls.into_iter().map(move |x| x / typical)
        })
        .collect();
    let p = hi_percentile(slowdowns.len() as u64);
    out.push(
        Metric::new("cell_slowdown_hi", percentile(&slowdowns, p), "ratio")
            .with("percentile", p)
            .with("n", slowdowns.len() as f64),
    );
    let virt: Vec<f64> = t.figures.iter().map(|f| f.virt_time_s).collect();
    let lo = virt.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = virt.iter().copied().fold(0.0, f64::max);
    out.push(
        Metric::new(
            "threads.virt_time_spread",
            (hi - lo) / median(&virt),
            "share",
        )
        .with("n", virt.len() as f64),
    );
    out
}

/// Runs the child. `t0` is the instant `main` was entered: `setup_s`
/// counts from there to the end of the warm-up pass.
pub fn run(w: &Workload, seed: u64, budget: Budget, phase: Phase, t0: Instant) {
    // ---- set-up -------------------------------------------------------
    let pinned = crate::host::pin_to_one_cpu();
    let mut rec = Recorder::new(t0);
    let opts = w.options(seed, false);
    // The paper apps' inputs are the fixed `Scale` presets; the
    // sequential references (Raw, one processor) are the basis of every
    // speedup.
    let sequential_ns: Vec<(App, u64)> = w
        .apps()
        .into_iter()
        .map(|app| (app, sequential_time(app, w.scale).as_ns()))
        .collect();
    // Warm-up: every cell once at `Tiny`, same protocols, cluster size,
    // backend and scenario — code, thread stacks and allocator arenas
    // are warm afterwards. (A full-scale warm-up would cost as much as a
    // timed pass, and set-up has to be cheap enough to repeat.)
    run_pass(w, Scale::Tiny, &opts, "warmup", None);
    emit(&Metric::new("setup_s", t0.elapsed().as_secs_f64(), "s"));
    rec.close("setup", w.name, t0);
    info("pinned", pinned);
    if phase == Phase::SetupOnly {
        return;
    }

    // ---- timed passes: every option at its default, tracing off --------
    let timed = timed_passes(w, &opts, budget, &sequential_ns);
    end_to_end(&timed).iter().for_each(emit);
    info("passes", timed.passes.len());
    info("cells", w.cells.len());
    info(
        "failed",
        timed.passes.iter().map(|p| failures(p)).sum::<usize>(),
    );
    let walls: Vec<String> = timed.walls.iter().map(f64::to_string).collect();
    info("pass_wall_s", walls.join(","));
    // The simulator repeats bit-for-bit, so every pass must hash alike;
    // a threads-backend digest is schedule-dependent and says so.
    let deterministic = w.backend == ExecBackend::Sim;
    let first = timed.figures[0].digest;
    let mut digest_stable = !deterministic || timed.figures.iter().all(|f| f.digest == first);
    if deterministic {
        info("virt_digest", first.hex());
    } else {
        info("virt_digest", "schedule-dependent");
    }

    // ---- traced pass: host-cost histograms on, spans recorded ----------
    if phase == Phase::Traced {
        let traced_opts = w.options(seed, true);
        let (traced_wall_s, traced) = run_pass(w, w.scale, &traced_opts, "traced", Some(&mut rec));
        info("traced_failed", failures(&traced));
        // Measuring host costs must not change a single simulated figure.
        let traced_digest = pass_figures(&w.cells, &traced, &sequential_ns).digest;
        digest_stable &= !deterministic || traced_digest == first;
        let shares = compute_and_verify(w, &mut rec);
        rec.close("workload", w.name, t0);
        per_layer(w, &timed, &traced, traced_wall_s, shares)
            .iter()
            .for_each(emit);
        for s in &rec.spans {
            println!("{}", crate::trace::to_line(s));
        }
    }
    info("digest_stable", digest_stable);
}
