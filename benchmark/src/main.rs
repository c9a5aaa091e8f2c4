//! `bench` — the repo's benchmark driver. See `README.md` beside the
//! manifest for the metric glossary and how to compare two commits.
//!
//! One single-threaded parent process re-executes itself once per job
//! (a workload, a set-up repeat, the micro-kernels, the canaries), runs
//! the children one after another, and turns their lines into the
//! report. Three ways to call it:
//!
//! * no `--trace`: the whole benchmark — every workload with its
//!   traced pass, the micro-kernels and the canaries; prints every
//!   metric by name, writes `out/results.json` and `out/trace.json`,
//!   exits non-zero on any verification failure;
//! * `--workload W --seed N --seconds S --trace 0|1`: one workload the
//!   way BENCHMARK.json's contract asks for it, the result as one JSON
//!   object on the last line of stdout;
//! * `agree`: the whole benchmark twice, failing unless the two sets of
//!   results agree within the benchmark's own bounds.

mod canary;
mod child;
mod derive;
mod host;
mod metric;
mod micro;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use child::{Budget, Phase};
use metric::{json_metrics, json_num, json_str, Metric, END_TO_END, PER_LAYER};
use trace::Span;
use workload::Workload;

/// Seconds one run measures (BENCHMARK.json `run_seconds`): sized so
/// that the slowest workload (`scale64_sim`, ≈5 s a pass) still gets
/// its three passes and the driver's 92 runs fit its time cap.
const RUN_SECONDS: u64 = 15;
/// The paper's year.
const DEFAULT_SEED: u64 = 1997;
/// Set-ups per run: `setup_s` is their median. Each is a fresh process.
const SETUP_REPEATS: usize = 5;

const USAGE: &str = "usage: bench [agree|manifest] [--workload NAME] [--seed N] \
[--seconds N | --passes N] [--trace 0|1] [--out DIR]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Everything, or the contract's single-workload run when `--trace`
    /// was given.
    Run,
    Agree,
    Manifest,
}

#[derive(Clone, Debug)]
struct Args {
    mode: Mode,
    child: Option<String>,
    workload: Option<String>,
    seed: u64,
    budget: Budget,
    trace: Option<bool>,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        mode: Mode::Run,
        child: None,
        workload: None,
        seed: DEFAULT_SEED,
        budget: Budget::Seconds(RUN_SECONDS as f64),
        trace: None,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "agree" => a.mode = Mode::Agree,
            "manifest" => a.mode = Mode::Manifest,
            "--child" => a.child = Some(value("--child")?),
            "--workload" => {
                let name = value("--workload")?;
                if workload::by_name(&name).is_none() {
                    let known: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?} (known: {known:?})"));
                }
                a.workload = Some(name);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range (0, 3600]"));
                }
                a.budget = Budget::Seconds(s);
            }
            "--passes" => {
                let n: usize = value("--passes")?
                    .parse()
                    .map_err(|e| format!("bad --passes: {e}"))?;
                if !(1..=1000).contains(&n) {
                    return Err(format!("--passes {n} out of range [1, 1000]"));
                }
                a.budget = Budget::Passes(n);
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0 or 1)")),
                })
            }
            "--out" => a.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(a)
}

// ---- children ----------------------------------------------------------

/// Everything a child printed, sorted by line kind.
#[derive(Default)]
struct ChildOutput {
    metrics: Vec<Metric>,
    info: BTreeMap<String, String>,
    failures: Vec<String>,
    notes: Vec<String>,
    spans: Vec<Span>,
}

impl ChildOutput {
    fn parse(text: &str) -> Result<Self, String> {
        let mut out = ChildOutput::default();
        for line in text.lines() {
            match line.split_once('\t') {
                Some(("M", _)) => out.metrics.push(metric::from_line(line)?),
                Some(("S", _)) => out.spans.push(trace::from_line(line)?),
                Some(("I", rest)) => {
                    let (k, v) = rest
                        .split_once('\t')
                        .ok_or_else(|| format!("bad info line {line:?}"))?;
                    out.info.insert(k.to_string(), v.to_string());
                }
                Some(("F", rest)) => out.failures.push(rest.to_string()),
                Some(("N", rest)) => out.notes.push(rest.to_string()),
                _ => return Err(format!("unexpected child output {line:?}")),
            }
        }
        Ok(out)
    }

    fn info_num(&self, key: &str) -> Result<f64, String> {
        self.info
            .get(key)
            .ok_or_else(|| format!("child reported no {key}"))?
            .parse()
            .map_err(|e| format!("child's {key}: {e}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.info.get(key).is_some_and(|v| v == "true")
    }

    fn take_metric(&mut self, name: &str) -> Result<Metric, String> {
        let i = self
            .metrics
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("child reported no {name}"))?;
        Ok(self.metrics.remove(i))
    }
}

/// Re-executes this binary as a child of the given kind and waits for
/// it. The parent only sleeps in the meantime, so the child's threads
/// are the only ones running.
fn spawn_child(kind: &str, a: &Args, workload: Option<&str>) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--seed", &a.seed.to_string()]);
    if let Some(w) = workload {
        cmd.args(["--workload", w]);
    }
    match a.budget {
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        Budget::Passes(n) => cmd.args(["--passes", &n.to_string()]),
    };
    let output = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {kind} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{kind} child failed: {}", output.status));
    }
    ChildOutput::parse(&String::from_utf8_lossy(&output.stdout))
}

fn child_main(kind: &str, a: &Args, t0: Instant) -> Result<(), String> {
    let phase = match kind {
        "setup" => Some(Phase::SetupOnly),
        "timed" => Some(Phase::Timed),
        "traced" => Some(Phase::Traced),
        _ => None,
    };
    if let Some(phase) = phase {
        let name = a.workload.as_deref().ok_or("child needs --workload")?;
        let w = workload::by_name(name).expect("validated while parsing");
        child::run(&w, a.seed, a.budget, phase, t0);
        return Ok(());
    }
    match kind {
        "micro" => {
            let wide = host::CpuMask::current();
            let pinned = host::pin_to_one_cpu();
            println!("I\tpinned\t{pinned}");
            for m in micro::run_all(a.seed, wide.filter(|_| pinned)) {
                println!("{}", metric::to_line(&m));
            }
        }
        "canary" => {
            let (metrics, samples) = canary::run_all(canary::RUNS);
            metrics
                .iter()
                .for_each(|m| println!("{}", metric::to_line(m)));
            samples.iter().for_each(|s| println!("N\t{s}"));
        }
        other => return Err(format!("unknown child kind {other:?}")),
    }
    Ok(())
}

// ---- one workload ------------------------------------------------------

struct WorkloadResult {
    name: &'static str,
    simulated: bool,
    pinned: bool,
    passes: usize,
    pass_wall_s: Vec<f64>,
    cells: usize,
    attempted: u64,
    failed: u64,
    /// No cell failed anywhere (warm-up, timed, traced) and the
    /// simulator's figures repeated bit-for-bit across passes.
    correct: bool,
    virt_digest: String,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    failures: Vec<String>,
    spans: Vec<Span>,
}

fn run_workload(w: &Workload, a: &Args, traced: bool) -> Result<WorkloadResult, String> {
    eprintln!(
        "[bench] {}: set-up x{SETUP_REPEATS}, then timed passes",
        w.name
    );
    let mut setups = Vec::new();
    let mut failures = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let mut c = spawn_child("setup", a, Some(w.name))?;
        setups.push(c.take_metric("setup_s")?.value);
        failures.append(&mut c.failures);
    }
    let mut c = spawn_child(if traced { "traced" } else { "timed" }, a, Some(w.name))?;
    setups.push(c.take_metric("setup_s")?.value);
    failures.append(&mut c.failures);

    let mut end_to_end = vec![Metric::median_of("setup_s", &setups, "s")];
    for m in END_TO_END.iter().skip(1) {
        end_to_end.push(c.take_metric(m.name)?);
    }
    let cells = c.info_num("cells")? as usize;
    let passes = c.info_num("passes")? as usize;
    // The traced pass is attempted and verified like any other.
    let traced_failed = if traced {
        c.info_num("traced_failed")? as u64
    } else {
        0
    };
    let attempted = ((passes + usize::from(traced)) * cells) as u64;
    let failed = c.info_num("failed")? as u64 + traced_failed;
    let digest_stable = c.flag("digest_stable");
    if !digest_stable {
        failures.push(format!(
            "{}: simulated figures differed between passes of the same run",
            w.name
        ));
    }
    let pass_wall_s = c.info["pass_wall_s"]
        .split(',')
        .map(|x| x.parse::<f64>().map_err(|e| format!("pass_wall_s: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WorkloadResult {
        name: w.name,
        simulated: w.backend == adsm_core::ExecBackend::Sim,
        pinned: c.flag("pinned"),
        passes,
        pass_wall_s,
        cells,
        attempted,
        failed,
        correct: failures.is_empty() && failed == 0 && digest_stable,
        virt_digest: c.info.get("virt_digest").cloned().unwrap_or_default(),
        end_to_end,
        per_layer: std::mem::take(&mut c.metrics),
        failures,
        spans: c.spans,
    })
}

fn print_workload(r: &WorkloadResult) {
    println!(
        "\n== {} — {} passes x {} cells (pass spread {:.1} %), pinned: {}, virt_digest: {} ==",
        r.name,
        r.passes,
        r.cells,
        stats::spread(&r.pass_wall_s) * 100.0,
        r.pinned,
        r.virt_digest
    );
    r.end_to_end.iter().for_each(|m| println!("{}", m.pretty()));
    r.per_layer.iter().for_each(|m| println!("{}", m.pretty()));
    r.failures.iter().for_each(|f| println!("FAILED {f}"));
}

// ---- the contract's single-workload run --------------------------------

/// `{"value": …, "unit": "…"}` pairs only: the driver's line carries no
/// side figures.
fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn contract_run(a: &Args, traced: bool) -> Result<(), String> {
    let name = a.workload.as_deref().expect("checked while parsing");
    let w = workload::by_name(name).expect("validated while parsing");
    let r = run_workload(&w, a, traced)?;
    print_workload(&r);
    let metrics = if traced {
        let micro = spawn_child("micro", a, None)?;
        let canary = spawn_child("canary", a, None)?;
        println!();
        for m in micro.metrics.iter().chain(&canary.metrics) {
            println!("{}", m.pretty());
        }
        let mut have = r.per_layer.clone();
        have.extend(micro.metrics);
        have.extend(canary.metrics);
        write_trace(a, std::slice::from_ref(&r))?;
        PER_LAYER
            .iter()
            .map(|want| {
                have.iter()
                    .find(|m| m.name == want.name)
                    .cloned()
                    .ok_or_else(|| format!("no figure for per-layer metric {}", want.name))
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        r.end_to_end.clone()
    };
    println!(
        "{}",
        contract_line(r.correct, r.attempted, r.failed, &metrics)
    );
    Ok(())
}

// ---- the whole benchmark -----------------------------------------------

struct FullResult {
    host: host::Fingerprint,
    seed: u64,
    budget: Budget,
    workloads: Vec<WorkloadResult>,
    micro: Vec<Metric>,
    micro_pinned: bool,
    canary: Vec<Metric>,
    canary_samples: Vec<String>,
    total_s: f64,
}

fn full_run(a: &Args) -> Result<FullResult, String> {
    let start = Instant::now();
    let workloads = workload::all()
        .iter()
        .filter(|w| a.workload.as_deref().is_none_or(|name| name == w.name))
        .map(|w| run_workload(w, a, true))
        .collect::<Result<Vec<_>, _>>()?;
    eprintln!("[bench] micro-kernels");
    let micro = spawn_child("micro", a, None)?;
    eprintln!("[bench] race canaries");
    let canary = spawn_child("canary", a, None)?;
    Ok(FullResult {
        host: host::Fingerprint::collect(),
        seed: a.seed,
        budget: a.budget,
        workloads,
        micro_pinned: micro.flag("pinned"),
        micro: micro.metrics,
        canary: canary.metrics,
        canary_samples: canary.notes,
        total_s: start.elapsed().as_secs_f64(),
    })
}

fn results_json(r: &FullResult) -> String {
    let list = |xs: &[String]| -> String {
        let quoted: Vec<String> = xs.iter().map(|s| json_str(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let mut workloads = Vec::new();
    for w in &r.workloads {
        let walls: Vec<String> = w.pass_wall_s.iter().map(|x| json_num(*x)).collect();
        workloads.push(format!(
            "    {}: {{\n      \"pinned\": {}, \"passes\": {}, \"cells\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {},\n      \"virt_digest\": {},\n      \"pass_wall_s\": [{}],\n      \"failures\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            json_str(w.name),
            w.pinned,
            w.passes,
            w.cells,
            w.attempted,
            w.failed,
            w.correct,
            json_str(&w.virt_digest),
            walls.join(", "),
            list(&w.failures),
            json_metrics(&w.end_to_end, "      "),
            json_metrics(&w.per_layer, "      "),
        ));
    }
    let budget = match r.budget {
        Budget::Seconds(s) => format!("\"seconds\": {}", json_num(s)),
        Budget::Passes(n) => format!("\"passes\": {n}"),
    };
    format!(
        "{{\n  \"host\": {{\"cpu_model\": {}, \"nproc\": {}, \"avx512\": {}, \"rustc\": {}, \"git_commit\": {}}},\n  \"seed\": {}, {budget}, \"setup_repeats\": {SETUP_REPEATS}, \"total_s\": {},\n  \"workloads\": {{\n{}\n  }},\n  \"micro\": {{\"pinned\": {}, \"metrics\": {}}},\n  \"canary\": {{\"runs\": {}, \"samples\": {}, \"metrics\": {}}}\n}}\n",
        json_str(&r.host.cpu_model),
        r.host.nproc,
        r.host.avx512,
        json_str(&r.host.rustc),
        json_str(&r.host.git_commit),
        r.seed,
        json_num(r.total_s),
        workloads.join(",\n"),
        r.micro_pinned,
        json_metrics(&r.micro, "  "),
        canary::RUNS,
        list(&r.canary_samples),
        json_metrics(&r.canary, "  "),
    )
}

fn write_file(a: &Args, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("create {}: {e}", a.out.display()))?;
    let path = a.out.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[bench] wrote {}", path.display());
    Ok(())
}

fn write_trace(a: &Args, workloads: &[WorkloadResult]) -> Result<(), String> {
    let processes: Vec<(String, Vec<Span>)> = workloads
        .iter()
        .map(|w| (w.name.to_string(), w.spans.clone()))
        .collect();
    write_file(a, "trace.json", &trace::chrome_trace(&processes))
}

fn print_full(r: &FullResult) {
    println!(
        "host: {} x{} (avx512: {}), {}, commit {}, seed {}",
        r.host.cpu_model, r.host.nproc, r.host.avx512, r.host.rustc, r.host.git_commit, r.seed
    );
    r.workloads.iter().for_each(print_workload);
    println!("\n== micro-kernels (pinned: {}) ==", r.micro_pinned);
    r.micro.iter().for_each(|m| println!("{}", m.pretty()));
    println!("\n== race canaries (reported, never gated) ==");
    r.canary.iter().for_each(|m| println!("{}", m.pretty()));
    r.canary_samples
        .iter()
        .for_each(|s| println!("  sample: {s}"));
    println!("\ntotal {:.1} s", r.total_s);
}

/// Runs everything once, prints and writes it; `Ok(false)` when a
/// verification failed.
fn full_once(a: &Args) -> Result<(FullResult, bool), String> {
    let r = full_run(a)?;
    print_full(&r);
    write_file(a, "results.json", &results_json(&r))?;
    write_trace(a, &r.workloads)?;
    let ok = r.workloads.iter().all(|w| w.correct);
    Ok((r, ok))
}

// ---- agree -------------------------------------------------------------

/// Where two sets of results of the same code disagree: simulated
/// figures and `virt_digest` must match bit-for-bit on the simulator
/// workloads, everything else within its bound.
fn disagreements(first: &[WorkloadResult], second: &[WorkloadResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        if a.simulated && a.virt_digest != b.virt_digest {
            out.push(format!(
                "{}: virt_digest {} vs {}",
                a.name, a.virt_digest, b.virt_digest
            ));
        }
        for spec in END_TO_END {
            let value = |w: &WorkloadResult| {
                w.end_to_end
                    .iter()
                    .find(|m| m.name == spec.name)
                    .map(|m| m.value)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                out.push(format!("{}: {} missing", a.name, spec.name));
                continue;
            };
            if a.simulated && spec.simulated {
                if x.to_bits() != y.to_bits() {
                    out.push(format!(
                        "{}: {} {x} vs {y} (must be exact)",
                        a.name, spec.name
                    ));
                }
            } else {
                let gap = (x - y).abs() / x.abs().min(y.abs());
                if gap.is_nan() || gap >= spec.bound {
                    out.push(format!(
                        "{}: {} {x} vs {y} differ by {:.1} % (bound {:.1} %)",
                        a.name,
                        spec.name,
                        gap * 100.0,
                        spec.bound * 100.0
                    ));
                }
            }
        }
    }
    out
}

fn agree(a: &Args) -> Result<bool, String> {
    let (first, ok1) = full_once(a)?;
    let (second, ok2) = full_once(a)?;
    let problems = disagreements(&first.workloads, &second.workloads);
    println!("\n== agree ==");
    if !(ok1 && ok2) {
        println!("a verification failed (see above)");
    }
    problems.iter().for_each(|p| println!("DISAGREE {p}"));
    if problems.is_empty() && ok1 && ok2 {
        println!("two full sets of runs agree within the benchmark's bounds");
    }
    Ok(problems.is_empty() && ok1 && ok2)
}

// ---- BENCHMARK.json ----------------------------------------------------

/// The text of `BENCHMARK.json`, generated from the tables the
/// benchmark itself runs from (a unit test pins the committed file to
/// this).
fn manifest() -> String {
    let workloads: Vec<String> = workload::all()
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.child, args.mode, args.trace) {
        (Some(kind), _, _) => child_main(kind, &args, t0).map(|()| true),
        (None, Mode::Manifest, _) => {
            print!("{}", manifest());
            Ok(true)
        }
        (None, Mode::Agree, _) => agree(&args),
        // A printed result means exit code 0, even when it says
        // `"correct": false`: the driver reads the line.
        (None, Mode::Run, Some(traced)) => contract_run(&args, traced).map(|()| true),
        (None, Mode::Run, None) => full_once(&args).map(|(_, ok)| ok),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_s_arguments_parse() {
        let a = parse_args(&argv(
            "--workload chaos8_sim --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("chaos8_sim"));
        assert_eq!((a.seed, a.trace), (7, Some(true)));
        assert!(matches!(a.budget, Budget::Seconds(s) if s == 15.0));
        let a = parse_args(&argv("--passes 8")).unwrap();
        assert!(matches!(a.budget, Budget::Passes(8)));
        assert_eq!((a.seed, a.trace, a.mode), (DEFAULT_SEED, None, Mode::Run));
        assert_eq!(parse_args(&argv("agree")).unwrap().mode, Mode::Agree);
        for bad in [
            "--workload nope",
            "--trace 1",
            "--trace 2 --workload paper8_sim",
            "--seconds 0",
            "--seconds",
            "--passes 0",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn child_output_sorts_lines_by_kind() {
        let text = "M\tsetup_s\t0.5\ts\t\nI\tpinned\ttrue\nI\tcells\t32\n\
                    F\tw/0/SOR/MW: verification failed: element 1\n\
                    N\tWater WFS: sample\nS\tcell\tw/0/SOR/MW\t1.5\t2.5";
        let mut c = ChildOutput::parse(text).unwrap();
        assert_eq!(c.take_metric("setup_s").unwrap().value, 0.5);
        assert!(c.take_metric("setup_s").is_err());
        assert_eq!(c.info_num("cells").unwrap(), 32.0);
        assert_eq!(c.info["pinned"], "true");
        assert_eq!((c.failures.len(), c.notes.len(), c.spans.len()), (1, 1, 1));
        assert!(ChildOutput::parse("hello").is_err());
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = contract_line(
            true,
            96,
            0,
            &[
                Metric::new("wall_s", 3.25, "s").with("n", 4.0),
                Metric::new("msgs", 140057.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 96, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 3.25, \"unit\": \"s\"}, \
             \"msgs\": {\"value\": 140057, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn agree_demands_exact_simulated_figures_and_bounded_host_ones() {
        let wall_bound = END_TO_END[1].bound;
        assert_eq!(END_TO_END[1].name, "wall_s");
        let result = |simulated: bool, digest: &str, wall: f64, msgs: f64| WorkloadResult {
            name: "w",
            simulated,
            pinned: simulated,
            passes: 3,
            pass_wall_s: vec![wall; 3],
            cells: 1,
            attempted: 3,
            failed: 0,
            correct: true,
            virt_digest: digest.to_string(),
            end_to_end: END_TO_END
                .iter()
                .map(|m| match m.name {
                    "wall_s" => Metric::new("wall_s", wall, "s"),
                    "msgs" => Metric::new("msgs", msgs, "count"),
                    other => Metric::new(other, 1.0, m.unit),
                })
                .collect(),
            per_layer: Vec::new(),
            failures: Vec::new(),
            spans: Vec::new(),
        };
        let differ = |a: WorkloadResult, b: WorkloadResult| disagreements(&[a], &[b]);
        let base = || result(true, "d", 4.0, 1000.0);
        // Host noise inside wall_s's bound is agreement…
        let noisy = result(true, "d", 4.0 * (1.0 + wall_bound * 0.8), 1000.0);
        assert!(differ(base(), noisy).is_empty());
        // …beyond it, it is not.
        let slow = result(true, "d", 4.0 * (1.0 + wall_bound * 1.2), 1000.0);
        assert_eq!(differ(base(), slow).len(), 1);
        // 0.1 % on a simulated figure is a disagreement on a simulator…
        let d = differ(base(), result(true, "d", 4.0, 1001.0));
        assert!(d.len() == 1 && d[0].contains("msgs") && d[0].contains("exact"));
        // …but within the bound on the threads workload.
        let threads = |msgs| result(false, "schedule-dependent", 4.0, msgs);
        assert!(differ(threads(1000.0), threads(1001.0)).is_empty());
        // The digest is compared where it is meaningful.
        assert_eq!(differ(base(), result(true, "d2", 4.0, 1000.0)).len(), 1);
    }
}
