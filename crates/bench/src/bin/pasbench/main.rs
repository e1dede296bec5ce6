//! `pasbench`: the end-to-end serving benchmark of PAS.
//!
//! ```text
//! pasbench [--seed N] [--seconds S] [--trace 0|1] [--threads N] [--out-dir DIR]
//! pasbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//!          [--out-dir DIR] [--record FILE]
//! pasbench --smoke [--workload NAME]
//! pasbench --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs [`REPEATS`] times, each run in
//! a child process of its own (this binary re-executed with `--workload
//! NAME`), so set-up time and peak memory are per run; the results land in
//! `<out-dir>/results.json`, and `--compare` judges two such files. With `--workload` one workload runs in this
//! process and the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics of `BENCHMARK.json`, or with `--trace 1` its per-layer metrics.
//! Every metric is also printed as `workload metric value unit`. See
//! `README.md` beside this file.

mod bench;
mod compare;
mod json;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::bench::{RunOptions, RunResult};
use crate::compare::{Host, Results, Verdict};
use crate::json::Json;
use crate::workload::{Workload, DEFAULT_SEED};

/// Runs of each workload a full run makes, taking the workloads in turn,
/// so that a comparison sees how far the host lets a metric repeat.
const REPEATS: usize = 3;

const USAGE: &str = "usage: pasbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--threads N] [--out-dir DIR] [--record FILE] [--smoke] \
                     | pasbench --compare A.json B.json";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    smoke: bool,
    out_dir: PathBuf,
    /// Where a single-workload run writes its full record.
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args(args: &[String], nproc: usize) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::spec().run_seconds as f64,
        trace: false,
        threads: nproc,
        smoke: false,
        out_dir: PathBuf::from("target/pasbench"),
        record: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => out.seed = parse_u64(value()?).ok_or("--seed needs an integer")?,
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--threads" => {
                let n: usize =
                    value()?.parse().map_err(|_| "--threads needs a positive integer")?;
                if n == 0 || n > nproc {
                    return Err(format!(
                        "--threads must be between 1 and nproc ({nproc}), not {n}"
                    ));
                }
                out.threads = n;
            }
            "--smoke" => out.smoke = true,
            "--out-dir" => out.out_dir = PathBuf::from(value()?),
            "--record" => out.record = Some(PathBuf::from(value()?)),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two files")?);
                out.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// `workload metric value unit` for every metric of `run`.
fn lines(run: &RunResult) -> Result<Vec<String>, String> {
    let spec = spec::spec();
    run.metrics
        .iter()
        .map(|m| {
            let unit =
                &spec.metric(&m.name).ok_or(format!("{} is not in BENCHMARK.json", m.name))?.unit;
            let value = if m.value.is_nan() { "refused".to_string() } else { m.value.to_string() };
            Ok(format!("{} {} {value} {unit}", run.workload, m.name))
        })
        .collect()
}

/// The result line: `run`'s end-to-end metrics, or its per-layer metrics
/// for a traced run, exactly as `BENCHMARK.json` lists them.
fn result_line(run: &RunResult) -> Result<String, String> {
    let spec = spec::spec();
    let listed = if run.trace { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = Vec::new();
    for s in listed {
        let m = run
            .metrics
            .iter()
            .find(|m| m.name == s.name)
            .ok_or(format!("{} measured no {}", run.workload, s.name))?;
        if !m.value.is_finite() {
            return Err(format!("{} measured {} as {}", run.workload, s.name, m.value));
        }
        metrics
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", s.name, m.value, s.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct(),
        run.attempted,
        run.failed,
        metrics.join(", ")
    ))
}

fn host(threads: usize) -> Host {
    Host {
        nproc: nproc() as u64,
        threads: threads as u64,
        arch: std::env::consts::ARCH.to_string(),
        os: std::env::consts::OS.to_string(),
        backend: pas_kernels::backend().name().to_string(),
    }
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{value}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn report_failures(run: &RunResult) {
    for f in &run.failures {
        eprintln!("pasbench: {} check failed: {f}", run.workload);
    }
}

/// Runs one workload in this process.
fn run_one(args: &Args, w: Workload) -> Result<bool, String> {
    let run = bench::run(&RunOptions {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
        out_dir: args.out_dir.clone(),
    })?;
    for line in lines(&run)? {
        println!("{line}");
    }
    report_failures(&run);
    if let Some(path) = &args.record {
        write_json(path, &run.to_json())?;
    }
    println!("{}", result_line(&run)?);
    Ok(run.correct())
}

/// Runs every workload [`REPEATS`] times, each run in a child process of
/// its own, and writes the results file.
fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut runs = Vec::new();
    let mut ok = true;
    for (repeat, w) in (0..REPEATS).flat_map(|r| Workload::ALL.map(|w| (r, w))) {
        let record = args.out_dir.join(format!("run-{}-{repeat}.json", w.name()));
        // A record left by an earlier run must not stand in for this one.
        let _ = std::fs::remove_file(&record);
        let output = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .args(["--threads", &args.threads.to_string()])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .arg("--record")
            .arg(&record)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running the {} child: {e}", w.name()))?;
        // Everything but the child's result line, which the record holds.
        for line in String::from_utf8_lossy(&output.stdout).lines().filter(|l| !l.starts_with('{'))
        {
            println!("{line}");
        }
        if !output.status.success() {
            eprintln!("pasbench: the {} run failed ({})", w.name(), output.status);
            ok = false;
        }
        let run = read_json(&record).and_then(|v| {
            RunResult::from_json(&v).map_err(|e| format!("reading {}: {e}", record.display()))
        });
        match run {
            Ok(run) => runs.push(run),
            Err(e) => {
                eprintln!("pasbench: {e}");
                ok = false;
            }
        }
    }
    let path = args.out_dir.join("results.json");
    write_json(&path, &Results { host: host(args.threads), seed: args.seed, runs }.to_json())?;
    eprintln!("pasbench: wrote {}", path.display());
    Ok(ok)
}

/// Two iterations of each workload, untraced and traced, in this process;
/// fails unless every metric of `BENCHMARK.json` was printed with its unit.
fn run_smoke(args: &Args) -> Result<bool, String> {
    let workloads = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut printed = Vec::new();
    let mut ok = true;
    for &w in &workloads {
        for trace in [false, true] {
            let run = bench::run(&RunOptions {
                workload: w,
                seed: args.seed,
                seconds: 0.0,
                trace,
                smoke: true,
                out_dir: args.out_dir.clone(),
            })?;
            report_failures(&run);
            ok &= run.correct();
            for line in lines(&run)? {
                println!("{line}");
                printed.push(line);
            }
        }
    }
    let missing = missing_lines(&printed, &workloads);
    for m in &missing {
        eprintln!("pasbench: smoke run printed no line for {m}");
    }
    Ok(ok && missing.is_empty())
}

/// `workload metric unit` for every metric `BENCHMARK.json` lists that no
/// printed line reports, or whose name is not a valid metric name.
fn missing_lines(printed: &[String], workloads: &[Workload]) -> Vec<String> {
    let spec = spec::spec();
    let mut missing = Vec::new();
    for w in workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let prefix = format!("{} {} ", w.name(), m.name);
            let suffix = format!(" {}", m.unit);
            let found = printed.iter().any(|l| l.starts_with(&prefix) && l.ends_with(&suffix));
            if !found || !spec::valid_name(&m.name) {
                missing.push(format!("{} {} {}", w.name(), m.name, m.unit));
            }
        }
    }
    missing
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        Results::from_json(&read_json(path)?)
            .map_err(|e| format!("reading {}: {e}", path.display()))
    };
    let (ra, rb) = (read(a)?, read(b)?);
    if ra.host != rb.host {
        println!("note: the runs come from different hosts: {:?} vs {:?}", ra.host, rb.host);
    }
    let rows = compare::compare(spec::spec(), &ra, &rb);
    for r in &rows {
        println!("{} {} {} {}", r.workload, r.metric, r.verdict.label(), r.detail);
    }
    let regressed = rows.iter().filter(|r| r.verdict == Verdict::Regressed).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("{} compared, {regressed} regressed, {unresolved} unresolved", rows.len());
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, nproc()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pasbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pas_par::set_threads(args.threads);
    let outcome = if let Some((a, b)) = &args.compare {
        run_compare(a, b)
    } else if args.smoke {
        run_smoke(&args)
    } else if let Some(w) = args.workload {
        run_one(&args, w)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pasbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        let owned: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse_args(&owned, 2)
    }

    #[test]
    fn threads_above_nproc_are_rejected() {
        assert_eq!(args(&["--threads", "2"]).map(|a| a.threads), Ok(2));
        assert!(args(&["--threads", "3"]).is_err());
        assert!(args(&["--threads", "0"]).is_err());
        assert_eq!(args(&[]).map(|a| a.threads), Ok(2));
    }

    #[test]
    fn the_driver_flags_parse() {
        let a =
            args(&["--workload", "tail_miss", "--seed", "7", "--seconds", "12", "--trace", "1"])
                .expect("valid flags");
        assert_eq!(a.workload, Some(Workload::TailMiss));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert_eq!(args(&["--seed", "0x90a7"]).map(|a| a.seed), Ok(DEFAULT_SEED));
        assert!(args(&["--trace", "yes"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// Two iterations of every workload, untraced and traced: every run
    /// passes its output checks (including the committed digests), every
    /// metric of `BENCHMARK.json` is printed with its unit, and every traced
    /// run writes its spans.
    #[test]
    fn smoke_run_prints_every_benchmark_metric() {
        // Beside the test binary, inside the build's target directory.
        let exe = std::env::current_exe().expect("the test binary's path");
        let out_dir = exe.with_file_name("pasbench-smoke");
        let out = out_dir.to_str().expect("a UTF-8 target directory");
        let args = args(&["--smoke", "--out-dir", out]).expect("valid flags");
        assert_eq!(run_smoke(&args), Ok(true));
        for w in Workload::ALL {
            let spans = out_dir.join(format!("trace-{}.jsonl", w.name()));
            let text = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
            assert!(text.lines().count() > 1, "{}: no spans", w.name());
        }
    }
}
