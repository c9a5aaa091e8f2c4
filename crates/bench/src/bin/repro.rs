//! `repro` — regenerates every table and figure of the paper's
//! evaluation section, plus the beyond-the-paper comparisons.
//!
//! ```text
//! repro [targets] [--scale tiny|small|paper|large] [--nprocs N] [--apps a,b,..]
//!       [--backend sim|threads|both] [--smoke] [--check]
//!
//! targets: table1 table2 table3 table4 fig1 fig2 fig3 all  (default: all)
//!          related ablation-quantum ablation-wg ablation-gc
//!          ablation-network ablations
//!          sensitivity scaling traffic
//!          bench-scale       (also writes BENCH_scale.json: the
//!                             8..256-proc barrier fan-in sweep and
//!                             the engine's 8- and 64-task turn cost)
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
//!          < 4x the 8-proc p50, per backend) and the turn gate (a turn
//!          at 64 tasks < 3x one at 8); for scenarios and
//!          crash-matrix the same gates on every cell: verification,
//!          re-run identity, fault-free baseline and, where a crash or
//!          failover is scheduled, that it fired
//! ```
//!
//! The emitted JSON files are documented field-by-field in
//! `docs/BENCH_SCHEMA.md`. Host-time kernels (diff encode/apply, pool
//! copy, span views, scheduler pick, turn handoff) are `benchmark/`'s
//! to time: see `benchmark/README.md`.

use std::process::ExitCode;

use adsm_apps::{App, RunOptions, Scale};
use adsm_bench::{
    ablation_gc, ablation_network, ablation_quantum, ablation_wg, fig1, fig2, fig2_shape_checks,
    fig3, related, run_sweep, scaling, sensitivity, table1, table2, table3, table4, Matrix, Sweep,
    PROTOCOLS,
};
use adsm_core::ExecBackend;

/// Every target: all that `parse_args` accepts, and what `--help` lists.
const TARGETS: [&str; 20] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "all",
    "related",
    "ablation-quantum",
    "ablation-wg",
    "ablation-gc",
    "ablation-network",
    "ablations",
    "sensitivity",
    "scaling",
    "traffic",
    "bench-scale",
    "scenarios",
    "crash-matrix",
];

fn usage() -> String {
    let mut targets = String::new();
    let mut width = 72;
    for target in TARGETS {
        if width + 1 + target.len() > 72 {
            targets += "\n ";
            width = 1;
        }
        targets += " ";
        targets += target;
        width += 1 + target.len();
    }
    format!(
        "usage: repro [TARGET ...] [--scale tiny|small|paper|large] [--nprocs N]\n\
         \x20      [--apps SOR,IS,...] [--backend sim|threads|both] [--smoke] [--check]\n\
         targets (default: all):{targets}"
    )
}

struct Options {
    targets: Vec<String>,
    scale: Scale,
    nprocs: usize,
    apps: Vec<App>,
    backends: Vec<ExecBackend>,
    smoke: bool,
    check: bool,
}

/// The options `args` (the command line after the program name) ask
/// for; `None` for `--help`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Options>, String> {
    let mut targets = Vec::new();
    let mut scale = Scale::Small;
    let mut nprocs = 8usize;
    let mut apps: Vec<App> = App::ALL.to_vec();
    let mut backends = vec![ExecBackend::Sim, ExecBackend::Threads];
    let mut smoke = false;
    let mut check = false;
    let mut args = args.into_iter();
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
                let value = args.next();
                nprocs = value
                    .as_deref()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| {
                        let value = value.as_deref().unwrap_or("(missing)");
                        format!("bad --nprocs {value}: need a count of at least 1")
                    })?;
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
            "--help" | "-h" => return Ok(None),
            t if TARGETS.contains(&t) => targets.push(a),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if targets.is_empty() {
        targets.push("all".into());
    }
    Ok(Some(Options {
        targets,
        scale,
        nprocs,
        apps,
        backends,
        smoke,
        check,
    }))
}

/// Prints a sweep's table, writes its JSON file and, under `--check`,
/// reports every failed gate. False when `--check` found one.
fn emit(table: &str, file: &str, json: &str, failures: &[String], check: bool) -> bool {
    println!("{table}");
    match std::fs::write(file, json) {
        Ok(()) => eprintln!("wrote {file}"),
        Err(e) => eprintln!("could not write {file}: {e}"),
    }
    for f in failures.iter().filter(|_| check) {
        eprintln!("REGRESSION: {f}");
    }
    !check || failures.is_empty()
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
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
        let table = adsm_bench::scale::summary_table(&report);
        let (json, fails) = (report.to_json(), report.failures());
        if !emit(&table, "BENCH_scale.json", &json, &fails, opts.check) {
            return ExitCode::FAILURE;
        }
        if opts.check {
            eprintln!(
                "scale gate: pass (fan-in p50 growth 8 -> 64 procs sub-linear on every backend, \
                 engine turn 8 -> 64 tasks under {:.1}x)",
                adsm_bench::scale::TURN_GROWTH_LIMIT
            );
        }
    }

    // The chaos sweeps: the applications under every case of the
    // scenario corpus (lossy, reordering, bursty, jittery delivery,
    // under WFS) or of the crash matrix (instant-restart crash, crash
    // with a down window, HLRC home failover), gating sequential
    // correctness, re-run bit-identity (with the journal summing to the
    // chaos counters), the fault-free no-op property and that every
    // scheduled crash or failover fired. `--smoke` shrinks to 2 apps
    // (one barrier-structured, one locks-only) at tiny scale on 4
    // procs, and the corpus to 3 scenarios.
    for (target, sweep) in [
        ("scenarios", &Sweep::SCENARIOS),
        ("crash-matrix", &Sweep::CRASH),
    ] {
        if !opts.targets.iter().any(|t| t == target) {
            continue;
        }
        let (scale, nprocs, apps) = if opts.smoke {
            (Scale::Tiny, 4, vec![App::Sor, App::Tsp])
        } else {
            (opts.scale, opts.nprocs, opts.apps.clone())
        };
        let mut cases = (sweep.cases)();
        if opts.smoke && target == "scenarios" {
            cases.retain(|c| matches!(c.name.as_str(), "perfect" | "lossy-1pct" | "bursty-loss"));
        }
        eprintln!(
            "running {target} ({} apps x {} cases, {scale} scale, {nprocs} procs)...",
            apps.len(),
            cases.len()
        );
        let report = run_sweep(sweep, nprocs, scale, &apps, &cases);
        let (json, fails) = (report.to_json(), report.failures());
        if !emit(
            &report.summary_table(),
            sweep.file,
            &json,
            &fails,
            opts.check,
        ) {
            return ExitCode::FAILURE;
        }
        if opts.check {
            eprintln!("{target} gate: pass ({} cells)", report.cells.len());
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
    if wants_sweep("ablation-network") {
        eprintln!("running network-bandwidth sweep...");
        println!("{}", ablation_network(opts.nprocs, opts.scale, &opts.apps));
    }
    if opts.targets.iter().any(|t| t == "sensitivity") {
        eprintln!("running input-set sensitivity study...");
        println!("{}", sensitivity(opts.nprocs));
    }
    if opts.targets.iter().any(|t| t == "scaling") {
        eprintln!("running processor-count scaling study...");
        println!("{}", scaling(opts.scale, &opts.apps));
    }

    let traffic = opts.targets.iter().any(|t| t == "traffic");
    let needs_matrix = ["table1", "table2", "table3", "table4", "fig2"]
        .iter()
        .any(|t| wants(t))
        || traffic;
    let m = needs_matrix.then(|| {
        eprintln!(
            "collecting evaluation matrix: {} apps x 5 runs at {} scale, {} procs",
            opts.apps.len(),
            opts.scale,
            opts.nprocs
        );
        Matrix::collect(
            opts.nprocs,
            opts.scale,
            &opts.apps,
            &PROTOCOLS,
            &RunOptions::default(),
        )
    });

    if let Some(m) = &m {
        if wants("table1") {
            println!("{}", table1(m));
        }
        if wants("table2") {
            println!("{}", table2(m));
        }
        if wants("fig2") {
            println!("{}", fig2(m));
            let (pass, fail) = fig2_shape_checks(m);
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
            println!("{}", table3(m));
        }
        if wants("table4") {
            println!("{}", table4(m));
        }
    }
    if wants("fig3") && opts.apps.contains(&App::Fft3d) {
        println!("{}", fig3(opts.nprocs, opts.scale));
    }
    if let Some(m) = m.as_ref().filter(|_| traffic) {
        println!("{}", adsm_bench::traffic(m, &opts.apps));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Options>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_target_is_one_of_the_listed_ones_exactly() {
        let help = usage();
        for target in TARGETS {
            let opts = parse(&[target]).unwrap().expect("not --help");
            assert_eq!(opts.targets, [target]);
            assert!(help.split_whitespace().any(|w| w == target), "{target}");
        }
        for wrong in [
            "table9",
            "fig7",
            "ablation-nope",
            "ablation-diffing",
            "ablation-migratory",
            "tables",
            "ablation",
            "crash",
        ] {
            let err = parse(&["fig1", wrong]).err().expect("rejected");
            assert!(err.contains(wrong), "{err}");
        }
        assert!(parse(&["--help"]).unwrap().is_none());
        assert_eq!(parse(&[]).unwrap().expect("not --help").targets, ["all"]);
    }

    #[test]
    fn nprocs_is_a_count_of_at_least_one() {
        for wrong in [
            &["--nprocs", "0"][..],
            &["--nprocs", "-2"],
            &["--nprocs", "x"],
            &["--nprocs"],
        ] {
            let err = parse(wrong).err().expect("rejected");
            assert!(err.starts_with("bad --nprocs"), "{err}");
        }
        let opts = parse(&["--nprocs", "1"]).unwrap().expect("not --help");
        assert_eq!(opts.nprocs, 1);
    }
}
