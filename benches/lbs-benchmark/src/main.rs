//! `lbs-benchmark`: runs the benchmark's workloads, checks their outputs,
//! prints every metric as `name value unit`, writes
//! `target/benchmark/result-<workload>.json`, and ends its standard output
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! lbs-benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Each workload pass runs in a child process of its own, so its peak RSS
//! is its own and no allocator state carries over. With `--trace 1` the
//! workload runs twice: untraced (the end-to-end numbers) and then traced
//! over the same number of steps (the per-layer numbers, the span JSONL,
//! and the tracing overhead).

use lbs_benchmark::report::{
    Host, Metric, PassResult, ResultFile, ResultLine, END_TO_END, PER_LAYER,
};
use lbs_benchmark::{run_pass, PassConfig, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: lbs-benchmark --workload <bulk_paper|partitioned_paper|churn_fresh|churn_deadline|all> \
     [--seed N] [--seconds N] [--trace 0|1]";

/// Where results, traces and service directories go, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "target/benchmark";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one pass in this process and print its result.
    child: bool,
    /// Internal: exact step count for the traced repeat.
    steps: Option<u64>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        child: false,
        steps: None,
    };
    let mut i = 0;
    let value = |i: usize| raw.get(i + 1).ok_or_else(|| format!("{} needs a value", raw[i]));
    let number =
        |i: usize| value(i)?.parse::<u64>().map_err(|e| format!("{} {}: {e}", raw[i], raw[i + 1]));
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?]
                };
                i += 2;
            }
            "--seed" => {
                args.seed = number(i)?;
                i += 2;
            }
            "--seconds" => {
                args.seconds = number(i)?;
                i += 2;
            }
            "--steps" => {
                args.steps = Some(number(i)?);
                i += 2;
            }
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => (args.trace, i) = (false, i + 2),
                Some("1") => (args.trace, i) = (true, i + 2),
                _ => (args.trace, i) = (true, i + 1),
            },
            "--child" => {
                args.child = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

/// Runs one pass in this process and prints its result as one JSON line.
fn child(args: &Args) -> ExitCode {
    let workload = args.workloads[0];
    let cfg = PassConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.trace,
        steps: args.steps,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let printed = run_pass(workload, workload.spec(), &cfg)
        .and_then(|result| serde_json::to_string(&result).map_err(|e| e.to_string()));
    match printed {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            ExitCode::from(3)
        }
    }
}

/// Runs one pass in a child process and waits for it.
fn spawn_pass(
    workload: Workload,
    args: &Args,
    traced: bool,
    steps: Option<u64>,
) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(n) = steps {
        cmd.args(["--steps", &n.to_string()]);
    }
    let output = cmd.output().map_err(|e| format!("starting the {} pass: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("the {} pass exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("reading the {} pass: {e}", workload.name()))
}

fn print_metric(prefix: &str, name: &str, summary: &lbs_benchmark::stats::Summary) {
    println!(
        "{prefix}{name} {} {}  (p25 {} p75 {} n {})",
        summary.value, summary.unit, summary.p25, summary.p75, summary.n
    );
}

/// (traced − untraced) / untraced for every end-to-end metric.
fn trace_overhead(untraced: &PassResult, traced: &PassResult) -> BTreeMap<String, f64> {
    END_TO_END
        .iter()
        .filter_map(|(name, _)| {
            let u = untraced.metrics.get(*name)?.value;
            let t = traced.metrics.get(*name)?.value;
            Some((name.to_string(), (t - u) / u))
        })
        .collect()
}

fn write_result(path: &Path, record: &ResultFile) -> Result<(), String> {
    let json = serde_json::to_string_pretty(record).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(path, json))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn parent(args: &Args) -> ExitCode {
    let host = Host::detect();
    println!(
        "host: {} logical CPUs, {}, target-cpu {}, rev {}",
        host.nproc, host.cpu_model, host.target_cpu, host.git_rev
    );
    let mut line = ResultLine { correct: true, attempted: 0, failed: 0, metrics: BTreeMap::new() };
    for &workload in &args.workloads {
        let name = workload.name();
        let passes = spawn_pass(workload, args, false, None).and_then(|untraced| {
            let traced = if args.trace {
                Some(spawn_pass(workload, args, true, Some(untraced.steps))?)
            } else {
                None
            };
            Ok((untraced, traced))
        });
        let (untraced, traced) = match passes {
            Ok(passes) => passes,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!("== {name} (seed {}, {} steps)", args.seed, untraced.steps);
        for (metric, summary) in &untraced.metrics {
            print_metric("", metric, summary);
        }
        println!(
            "failed_frac {} ratio  ({} of {} operations and checks)",
            untraced.failed as f64 / untraced.attempted.max(1) as f64,
            untraced.failed,
            untraced.attempted
        );
        let overhead = traced.as_ref().map(|t| trace_overhead(&untraced, t)).unwrap_or_default();
        if let Some(t) = &traced {
            for (layer, value) in &t.layers {
                println!("layer {layer} {value}");
            }
            for (span, seconds) in &t.self_seconds {
                println!("self {span} {seconds} s");
            }
            for (metric, frac) in &overhead {
                println!("trace_overhead {metric} {frac} ratio");
            }
            println!("trace written to {OUT_DIR}/trace-{name}.jsonl");
        }
        for pass in std::iter::once(&untraced).chain(&traced) {
            for failure in &pass.failures {
                println!("FAILED {name}: {failure}");
            }
            line.correct &= pass.correct();
            line.attempted += pass.attempted;
            line.failed += pass.failed;
        }
        let prefix = if args.workloads.len() > 1 { format!("{name}/") } else { String::new() };
        match &traced {
            Some(t) => {
                for (metric, unit) in PER_LAYER {
                    let value = t.layers.get(metric).copied().unwrap_or(0.0);
                    line.metrics
                        .insert(format!("{prefix}{metric}"), Metric { value, unit: unit.into() });
                }
            }
            None => {
                for (metric, unit) in END_TO_END {
                    let Some(summary) = untraced.metrics.get(metric) else {
                        println!("FAILED {name}: {metric} was not measured");
                        (line.correct, line.failed) = (false, line.failed + 1);
                        continue;
                    };
                    line.metrics.insert(
                        format!("{prefix}{metric}"),
                        Metric { value: summary.value, unit: unit.into() },
                    );
                }
            }
        }
        let record = ResultFile {
            seed: args.seed,
            seconds: args.seconds,
            host: host.clone(),
            untraced,
            traced,
            trace_overhead: overhead,
        };
        if let Err(e) =
            write_result(&Path::new(OUT_DIR).join(format!("result-{name}.json")), &record)
        {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    match serde_json::to_string(&line) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("encoding the result line: {e}");
            return ExitCode::FAILURE;
        }
    }
    if line.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
