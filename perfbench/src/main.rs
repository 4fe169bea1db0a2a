//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last, one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics. Lines before it (prefixed `# `) give
//! the worker count, the outcome digest and the simulated results.
//!
//! Optional: `--scale tiny` (test size), `--trace-dir <dir>` (where a
//! traced run writes its spans, default `perfbench/out`).

use perfbench::firehose::Firehose;
use perfbench::metrics::{metrics_json, result_line};
use perfbench::runner::{run, RunOptions, RunResult, Workload, SETUP_REPS};
use perfbench::storm::Storm;
use perfbench::table3::Table3;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by the names `BENCHMARK.json` declares.
const WORKLOADS: [&str; 3] = ["table3-campaign", "openloop-storm", "serving-firehose"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    trace_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        trace_dir: PathBuf::from("perfbench/out"),
    };
    let (mut seed, mut seconds, mut trace) = (false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("an integer"))?;
                seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                seconds = args.seconds.is_finite() && args.seconds >= 0.0;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                trace = true;
            }
            "--scale" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad("full or tiny")),
                };
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(seed && seconds && trace) {
        return Err("--seed, --seconds and --trace are required".into());
    }
    Ok(args)
}

fn run_as<W: Workload>(w: &W, args: &Args) -> Result<RunResult, String> {
    let opts = RunOptions {
        seconds: args.seconds,
        trace: args.trace,
        trace_path: args.trace.then(|| {
            args.trace_dir
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
        }),
    };
    run(w, &opts)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let result = match (args.workload.as_str(), args.tiny) {
        ("table3-campaign", false) => run_as(&Table3::full(seed), &args),
        ("table3-campaign", true) => run_as(&Table3::tiny(seed), &args),
        ("openloop-storm", false) => run_as(&Storm::full(seed), &args),
        ("openloop-storm", true) => run_as(&Storm::tiny(seed), &args),
        ("serving-firehose", false) => run_as(&Firehose::full(seed), &args),
        ("serving-firehose", true) => run_as(&Firehose::tiny(seed), &args),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for f in &result.failures {
        eprintln!("perfbench: {}: {f}", args.workload);
    }
    println!(
        "# workload={} seed={} scale={} workers={} rounds={} setup_reps={}",
        args.workload,
        seed,
        if args.tiny { "tiny" } else { "full" },
        simkit::par::available_workers(),
        result.rounds,
        SETUP_REPS,
    );
    let rates: Vec<String> = result
        .round_rates
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    println!("# round items/s {}", rates.join(" "));
    println!("# digest {:#018x}", result.digest);
    println!("# sim {}", metrics_json(&result.sim));
    println!(
        "{}",
        result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    ExitCode::SUCCESS
}
