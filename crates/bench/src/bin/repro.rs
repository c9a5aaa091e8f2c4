//! `repro` — regenerates every table and figure of the paper's
//! evaluation section, plus the beyond-the-paper comparisons.
//!
//! ```text
//! repro [targets] [--scale tiny|small|paper|large] [--nprocs N] [--apps a,b,..]
//!       [--backend sim|threads|both] [--smoke] [--check]
//!
//! targets: table1 table2 table3 table4 fig1 fig2 fig3 all  (default: all)
//!          related ablation-quantum ablation-wg ablation-gc
//!          ablation-migratory ablation-policies ablations
//!          bench-scale       (also writes BENCH_scale.json: the
//!                             8..256-proc barrier fan-in sweep)
//!          scenarios         (also writes BENCH_scenarios.json)
//!          crash-matrix      (also writes BENCH_crash.json)
//!
//! --backend  execution backend(s) for bench-scale: the deterministic
//!          simulator, real OS threads, or both (default: both)
//! --smoke  CI-budget runs: bench-scale at 8/64 procs;
//!          scenarios on a reduced app x scenario grid (2 apps, 3
//!          corpus scenarios) at tiny scale / 4 procs;
//!          crash-matrix on 2 apps (SOR, TSP) at tiny scale / 4 procs
//! --check  fail (exit 1) when a sweep's gate is violated: for
//!          bench-scale the sub-linear fan-in growth gate (64-proc p50
//!          < 4x the 8-proc p50, per backend); for scenarios the
//!          verification, replay-identity and fault-free-baseline
//!          gates of every cell; for crash-matrix those same three
//!          gates plus fault-actually-fired per cell
//! ```
//!
//! The emitted JSON files are documented field-by-field in
//! `docs/BENCH_SCHEMA.md`. Host-time kernels (diff encode/apply, pool
//! copy, span views, scheduler pick, turn handoff) are `benchmark/`'s
//! to time: see `benchmark/README.md`.

use std::process::ExitCode;

use adsm_apps::{App, Scale};
use adsm_bench::{
    ablation_diffing, ablation_gc, ablation_migratory, ablation_network, ablation_policies,
    ablation_quantum, ablation_wg, fig1, fig2, fig2_shape_checks, fig3, related, scaling,
    sensitivity, table1, table2, table3, table4, Matrix,
};
use adsm_core::ExecBackend;

struct Options {
    targets: Vec<String>,
    scale: Scale,
    nprocs: usize,
    apps: Vec<App>,
    backends: Vec<ExecBackend>,
    smoke: bool,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut targets = Vec::new();
    let mut scale = Scale::Small;
    let mut nprocs = 8usize;
    let mut apps: Vec<App> = App::ALL.to_vec();
    let mut backends = vec![ExecBackend::Sim, ExecBackend::Threads];
    let mut smoke = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    Some("large") => Scale::Large,
                    other => return Err(format!("bad --scale {other:?}")),
                };
            }
            "--nprocs" => {
                nprocs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("bad --nprocs")?;
            }
            "--backend" => {
                backends = match args.next().as_deref() {
                    Some("sim") => vec![ExecBackend::Sim],
                    Some("threads") => vec![ExecBackend::Threads],
                    Some("both") => vec![ExecBackend::Sim, ExecBackend::Threads],
                    other => return Err(format!("bad --backend {other:?}")),
                };
            }
            "--apps" => {
                let list = args.next().ok_or("missing --apps value")?;
                apps = list
                    .split(',')
                    .map(|name| {
                        App::ALL
                            .iter()
                            .copied()
                            .find(|a| a.name().eq_ignore_ascii_case(name))
                            .ok_or(format!("unknown app {name}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [table1 table2 table3 table4 fig1 fig2 fig3 all]\n\
                     \x20      [related ablation-quantum ablation-wg ablation-gc\n\
                     \x20       ablation-migratory ablation-policies ablations\n\
                     \x20       bench-scale scenarios crash-matrix]\n\
                     \x20      [--scale tiny|small|paper|large] [--nprocs N] [--apps SOR,IS,...]\n\
                     \x20      [--backend sim|threads|both] [--smoke] [--check]"
                );
                std::process::exit(0);
            }
            t if t.starts_with("table")
                || t.starts_with("fig")
                || t.starts_with("ablation")
                || t == "bench-scale"
                || t == "scenarios"
                || t == "crash-matrix"
                || t == "related"
                || t == "sensitivity"
                || t == "scaling"
                || t == "traffic"
                || t == "all" =>
            {
                targets.push(t.to_string());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if targets.is_empty() {
        targets.push("all".into());
    }
    Ok(Options {
        targets,
        scale,
        nprocs,
        apps,
        backends,
        smoke,
        check,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // "all" covers the paper's tables and figures; the beyond-the-paper
    // targets ("related", the ablations) are requested explicitly, with
    // "ablations" as the umbrella for the four sweeps.
    let all = opts.targets.iter().any(|t| t == "all");
    let sweeps = opts.targets.iter().any(|t| t == "ablations");
    let wants = |t: &str| all || opts.targets.iter().any(|x| x == t);
    let wants_sweep = |t: &str| sweeps || opts.targets.iter().any(|x| x == t);

    // Fig. 1 needs no matrix.
    if wants("fig1") {
        println!("{}", fig1(opts.nprocs));
    }

    // Processor-count scale sweep — SOR, IS and Barnes under MW at
    // 8/64/128/256 processors (`--smoke`: 8/64), large inputs, on every
    // requested backend, gating sub-linear growth of the per-arrival
    // barrier fan-in cost (64-proc p50 < 4x the 8-proc p50) under
    // `--check`. Writes BENCH_scale.json.
    if opts.targets.iter().any(|t| t == "bench-scale") {
        let proc_counts: &[usize] = if opts.smoke {
            &adsm_bench::scale::SCALE_PROCS_SMOKE
        } else {
            &adsm_bench::scale::SCALE_PROCS
        };
        let apps = adsm_bench::scale::SCALE_APPS;
        eprintln!(
            "measuring barrier fan-in scaling ({} apps x [{}] procs x {} backends, large \
             scale)...",
            apps.len(),
            proc_counts
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            opts.backends.len()
        );
        let report = adsm_bench::measure_scale(proc_counts, &apps, &opts.backends);
        println!("{}", adsm_bench::scale::summary_table(&report));
        let json = report.to_json();
        match std::fs::write("BENCH_scale.json", &json) {
            Ok(()) => eprintln!("wrote BENCH_scale.json"),
            Err(e) => eprintln!("could not write BENCH_scale.json: {e}"),
        }
        if opts.check {
            let fails = report.failures();
            if !fails.is_empty() {
                for f in &fails {
                    eprintln!("REGRESSION: {f}");
                }
                return ExitCode::FAILURE;
            }
            eprintln!(
                "scale gate: pass (fan-in p50 growth 8 -> 64 procs sub-linear on every backend)"
            );
        }
    }

    // Chaos-scenario sweep: the applications under the scenario corpus
    // (lossy, reordering, bursty, jittery delivery), gating sequential
    // correctness, journal-replay bit-identity and the fault-free
    // no-op property. `--smoke` shrinks to 2 apps x 3 scenarios.
    if opts.targets.iter().any(|t| t == "scenarios") {
        let (scale, nprocs) = if opts.smoke {
            (Scale::Tiny, 4)
        } else {
            (opts.scale, opts.nprocs)
        };
        let corpus = adsm_core::Scenario::corpus();
        let (apps, corpus): (Vec<App>, Vec<adsm_core::Scenario>) = if opts.smoke {
            (
                vec![App::Sor, App::Tsp],
                corpus
                    .into_iter()
                    .filter(|s| matches!(s.name.as_str(), "perfect" | "lossy-1pct" | "bursty-loss"))
                    .collect(),
            )
        } else {
            (opts.apps.clone(), corpus)
        };
        eprintln!(
            "running chaos scenario sweep ({} apps x {} scenarios, {scale} scale, \
             {nprocs} procs)...",
            apps.len(),
            corpus.len()
        );
        let report = adsm_bench::measure_scenarios(
            nprocs,
            scale,
            &apps,
            adsm_core::ProtocolKind::Wfs,
            &corpus,
        );
        println!("{}", report.summary_table());
        let json = report.to_json();
        match std::fs::write("BENCH_scenarios.json", &json) {
            Ok(()) => eprintln!("wrote BENCH_scenarios.json"),
            Err(e) => eprintln!("could not write BENCH_scenarios.json: {e}"),
        }
        if opts.check {
            let fails = report.failures();
            if !fails.is_empty() {
                for f in &fails {
                    eprintln!("REGRESSION: {f}");
                }
                return ExitCode::FAILURE;
            }
            eprintln!("scenario gate: pass ({} cells)", report.cells.len());
        }
    }

    // Crash-recovery matrix: the applications under the three
    // scheduled fault shapes (instant-restart crash, crash with a down
    // window, HLRC home failover), gating sequential correctness,
    // journal-replay bit-identity, the fault-free no-op property and
    // that every scheduled fault actually fired. `--smoke` shrinks to
    // 2 apps (one barrier-structured, one locks-only).
    if opts.targets.iter().any(|t| t == "crash-matrix") {
        let (scale, nprocs, apps) = if opts.smoke {
            (Scale::Tiny, 4, vec![App::Sor, App::Tsp])
        } else {
            (opts.scale, opts.nprocs, opts.apps.clone())
        };
        eprintln!(
            "running crash-recovery matrix ({} apps x 3 fault shapes, {scale} scale, \
             {nprocs} procs)...",
            apps.len()
        );
        let report = adsm_bench::measure_crash_matrix(nprocs, scale, &apps);
        println!("{}", report.summary_table());
        let json = report.to_json();
        match std::fs::write("BENCH_crash.json", &json) {
            Ok(()) => eprintln!("wrote BENCH_crash.json"),
            Err(e) => eprintln!("could not write BENCH_crash.json: {e}"),
        }
        if opts.check {
            let fails = report.failures();
            if !fails.is_empty() {
                for f in &fails {
                    eprintln!("REGRESSION: {f}");
                }
                return ExitCode::FAILURE;
            }
            eprintln!("crash-matrix gate: pass ({} cells)", report.cells.len());
        }
    }

    if opts.targets.iter().any(|t| t == "related") {
        eprintln!("running related-work comparison...");
        println!("{}", related(opts.nprocs, opts.scale, &opts.apps));
    }
    if wants_sweep("ablation-quantum") {
        eprintln!("running ownership-quantum sweep...");
        println!("{}", ablation_quantum(opts.nprocs, opts.scale, &opts.apps));
    }
    if wants_sweep("ablation-wg") {
        eprintln!("running write-granularity-threshold sweep...");
        println!("{}", ablation_wg(opts.nprocs, opts.scale, &opts.apps));
    }
    if wants_sweep("ablation-gc") {
        eprintln!("running GC-threshold sweep...");
        println!("{}", ablation_gc(opts.nprocs, opts.scale));
    }
    if wants_sweep("ablation-migratory") {
        eprintln!("running migratory-optimisation sweep...");
        println!(
            "{}",
            ablation_migratory(opts.nprocs, opts.scale, &opts.apps)
        );
    }
    if wants_sweep("ablation-policies") {
        eprintln!("running adaptation-policy sweep...");
        println!("{}", ablation_policies(opts.nprocs, opts.scale, &opts.apps));
    }
    if wants_sweep("ablation-network") {
        eprintln!("running network-bandwidth sweep...");
        println!("{}", ablation_network(opts.nprocs, opts.scale, &opts.apps));
    }
    if wants_sweep("ablation-diffing") {
        eprintln!("running eager-vs-lazy diffing sweep...");
        println!("{}", ablation_diffing(opts.nprocs, opts.scale, &opts.apps));
    }
    if opts.targets.iter().any(|t| t == "sensitivity") {
        eprintln!("running input-set sensitivity study...");
        println!("{}", sensitivity(opts.nprocs));
    }
    if opts.targets.iter().any(|t| t == "scaling") {
        eprintln!("running processor-count scaling study...");
        println!("{}", scaling(opts.scale, &opts.apps));
    }

    let needs_matrix = ["table1", "table2", "table3", "table4", "fig2", "fig3"]
        .iter()
        .any(|t| wants(t))
        || opts.targets.iter().any(|t| t == "traffic");
    if !needs_matrix {
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "collecting evaluation matrix: {} apps x 5 runs at {} scale, {} procs",
        opts.apps.len(),
        opts.scale,
        opts.nprocs
    );
    let m = Matrix::collect_filtered(opts.nprocs, opts.scale, &opts.apps);

    if wants("table1") {
        println!("{}", table1(&m));
    }
    if wants("table2") {
        println!("{}", table2(&m));
    }
    if wants("fig2") {
        println!("{}", fig2(&m));
        let (pass, fail) = fig2_shape_checks(&m);
        println!("shape checks:");
        for p in &pass {
            println!("  PASS  {p}");
        }
        for f in &fail {
            println!("  FAIL  {f}");
        }
        println!();
    }
    if wants("table3") {
        println!("{}", table3(&m));
    }
    if wants("table4") {
        println!("{}", table4(&m));
    }
    if wants("fig3") && m.sequential.contains_key(&App::Fft3d) {
        println!("{}", fig3(&m));
    }
    if opts.targets.iter().any(|t| t == "traffic") {
        println!("{}", adsm_bench::traffic(&m, &opts.apps));
    }
    ExitCode::SUCCESS
}
