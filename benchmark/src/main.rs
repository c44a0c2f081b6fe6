//! Command line of the repository benchmark.
//!
//! ```text
//! procheck-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! procheck-benchmark --seed N [--seconds S] [--trace]
//! procheck-benchmark compare A.json... [vs B.json...]
//! procheck-benchmark expected
//! ```
//!
//! The first form runs one workload and prints `workload metric value
//! unit` lines, then a one-line JSON summary. The second runs every
//! workload, each in its own child process so set-up time and peak
//! memory are per workload. Both write results under
//! `target/benchmark/`. `compare` judges two sets of results files
//! against the bounds in `BENCHMARK.json`; `expected` regenerates
//! `expected/verdicts.tsv` on standard output.

use procheck_benchmark::expected::{embedded_edits, generate, Expected};
use procheck_benchmark::{result_line, results_json, run, Options, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  procheck-benchmark --workload NAME --seed N --seconds S --trace 0|1
  procheck-benchmark --seed N [--seconds S] [--trace]
  procheck-benchmark compare A.json... [vs B.json...]
  procheck-benchmark expected";

const OUT_DIR: &str = "target/benchmark";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("expected") => refuse_env().and_then(|()| expected()),
        _ => refuse_env().and_then(|()| benchmark(&args)),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("procheck-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Every `PROCHECK_*` variable silently changes
/// `AnalysisConfig::default()` or a kill-switch the pipeline reads, so a
/// run under one would measure a different program.
fn refuse_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PROCHECK_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
    };
    let mut seed = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes an integer")?,
                );
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    parsed.seed = seed.ok_or(format!("--seed is required\n{USAGE}"))?;
    Ok(parsed)
}

/// `run_seconds` from `BENCHMARK.json` in the working directory.
fn default_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("--seconds not given and BENCHMARK.json unreadable: {e}"))?;
    procheck_telemetry::json::parse(&text)?
        .get("run_seconds")
        .and_then(|v| v.as_f64())
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

fn benchmark(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(args)?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => default_seconds()?,
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    match args.workload {
        Some(workload) => one_workload(workload, args.seed, seconds, args.trace),
        None => every_workload(args.seed, seconds, args.trace),
    }
}

fn one_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ExitCode, String> {
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        properties: None,
        max_requests: None,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let result = run(&opts, &Expected::embedded())?;
    let name = workload.name();
    for m in &result.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} requests {} count", result.requests);
    println!(
        "{name} verdict_mismatches {} count",
        result.verdict_mismatches
    );
    println!(
        "{name} failed_share {} ratio",
        result.failed as f64 / result.attempted.max(1) as f64
    );
    for f in &result.check_failures {
        eprintln!("{name}: check failed: {f}");
    }
    let stem = format!(
        "{OUT_DIR}/{name}-seed{seed}{}-{}",
        if trace { "-trace" } else { "" },
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    write(
        &format!("{stem}.json"),
        &results_json(&opts, &result, &revision()),
    )?;
    if let Some(spans) = &result.spans_jsonl {
        write(&format!("{stem}-spans.jsonl"), spans)?;
    }
    println!("{}", result_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// Runs each workload in a child process of this binary and relays its
/// lines; fails when a child fails or reports incorrect outputs.
fn every_workload(seed: u64, seconds: f64, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_ok = true;
    for workload in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let summary = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let correct = summary.starts_with("{\"correct\":true");
        println!("{} correct {correct}", workload.name());
        all_ok &= out.status.success() && correct;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `git rev-parse HEAD` of the working directory, never looking above
/// it; `unknown` outside a git checkout.
fn revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(Path::new("/"));
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (base, head) = match args.iter().position(|a| a == "vs") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => {
            return Err(format!(
                "compare needs A.json B.json, or two sets split by `vs`\n{USAGE}"
            ))
        }
    };
    if base.is_empty() || head.is_empty() {
        return Err("compare needs at least one results file on each side".into());
    }
    let read = |paths: &[String]| -> Result<Vec<String>, String> {
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}")))
            .collect()
    };
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    print!(
        "{}",
        procheck_benchmark::compare::compare(&benchmark, &read(base)?, &read(head)?)?
    );
    Ok(ExitCode::SUCCESS)
}

fn expected() -> Result<ExitCode, String> {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../crates/core/tests/golden/registry.snap"
    );
    let golden = std::fs::read_to_string(golden).map_err(|e| format!("reading {golden}: {e}"))?;
    let table = generate(&golden, &embedded_edits())?;
    print!("{table}");
    Ok(ExitCode::SUCCESS)
}
