//! The sdem benchmark: one command, four workloads, end-to-end metrics
//! untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-cold|sweep-fig7a|replay-journal|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Everything above it is
//! the human-readable report. See `README.md` beside this file.

mod replay;
mod report;
mod serve;
mod sink;
mod spans;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{metric_row, result_line, Check, Metric, Outcome};
use stats::Samples;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["serve-hot", "serve-cold", "sweep-fig7a", "replay-journal"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--repeat" => args.repeat = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The checkout the benchmark was built in.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
}

/// Where journals and span files go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit the checkout is at, read from `.git` without leaving it.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, r) = l.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

fn host_line(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    let git = git_rev(repo_root()).unwrap_or_else(|| "none (not a git checkout)".to_string());
    format!(
        "host: nproc={nproc} kernel={kernel} git={git} rustc=\"{}\" seed={seed}",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let result = match name {
        "serve-hot" => Ok(serve::run(serve::Mix::Hot, seed, seconds, trace)),
        "serve-cold" => Ok(serve::run(serve::Mix::Cold, seed, seconds, trace)),
        "sweep-fig7a" => Ok(sweep::run(seconds, trace)),
        "replay-journal" => replay::run(seconds, trace, &out_dir()),
        other => Err(format!("unknown workload {other}")),
    };
    result.unwrap_or_else(|e| Outcome {
        checks: vec![Check::new(format!("{name} ran to completion: {e}"), false)],
        attempted: 1,
        failed: 1,
        ..Outcome::default()
    })
}

/// Prints the report of one workload and returns its result metrics.
fn report(name: &str, args: &Args, out: &mut Outcome) -> Vec<Metric> {
    println!(
        "== {name}  seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_line(args.seed));
    let mut metrics = out.result_metrics(args.trace);
    for m in &mut metrics {
        if !m.value.is_finite() {
            out.checks
                .push(Check::new(format!("{} is finite", m.name), false));
            m.value = 0.0;
        }
        if !args.trace && !m.measured {
            out.checks
                .push(Check::new(format!("{} was measured", m.name), false));
        }
    }
    println!("end-to-end (untraced):");
    for m in &out.e2e {
        println!("{}", metric_row(m));
    }
    for m in &out.native {
        println!("{}", metric_row(m));
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{}",
        metric_row(&Metric::new(
            "fail_ratio",
            "ratio",
            fail_ratio,
            out.attempted as usize
        ))
    );
    if args.trace {
        println!("per-layer (traced):");
        for m in &metrics {
            println!("{}", metric_row(m));
        }
        println!("add-up, per operation:");
        for line in &out.table {
            println!("{line}");
        }
    }
    if let Some(tracer) = &out.spans {
        let path = out_dir().join(format!("spans-{name}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => out
                .checks
                .push(Check::new(format!("write {}: {e}", path.display()), false)),
        }
    }
    println!("checks:");
    for c in &out.checks {
        println!("  [{}] {}", if c.ok { "ok" } else { "FAILED" }, c.what);
    }
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    if let Some(k) = args.repeat {
        return repeat(&args, k);
    }
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut all_metrics = Vec::new();
    for &name in &names {
        let mut out = run_workload(name, &args);
        let metrics = report(name, &args, &mut out);
        correct &= out.correct();
        attempted += out.attempted;
        failed += out.failed;
        if names.len() == 1 {
            all_metrics = metrics;
        } else {
            all_metrics.extend(metrics.into_iter().map(|m| Metric {
                name: format!("{name}.{}", m.name),
                ..m
            }));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &all_metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each selected workload `k` times, each in its own process with
/// its own seed, and prints every metric's median, quartiles and spread
/// against the bound `BENCHMARK.json` fixes for it.
fn repeat(args: &Args, k: usize) -> ExitCode {
    let bounds = read_bounds();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut ok = true;
    println!("{}", host_line(args.seed));
    println!(
        "{:<15} {:<44} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for name in names {
        let mut values: Vec<(String, Vec<f64>)> = Vec::new();
        for run in 0..k {
            let seed = args.seed + run as u64;
            let output = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output();
            let parsed = output
                .map_err(|e| e.to_string())
                .and_then(|o| parse_result(&String::from_utf8_lossy(&o.stdout)));
            match parsed {
                Ok((true, metrics)) => {
                    let row: Vec<String> =
                        metrics.iter().map(|(m, v)| format!("{m}={v:.6}")).collect();
                    eprintln!("{name} seed {seed}: {}", row.join(" "));
                    for (metric, value) in metrics {
                        match values.iter_mut().find(|(m, _)| *m == metric) {
                            Some((_, v)) => v.push(value),
                            None => values.push((metric, vec![value])),
                        }
                    }
                }
                Ok((false, _)) | Err(_) => {
                    ok = false;
                    eprintln!("perfbench: {name} seed {seed}: run failed: {parsed:?}");
                }
            }
        }
        for (metric, v) in values {
            let n = v.len();
            let s = Samples::new(v);
            let (q1, median, q3) = s.quartiles().unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            let spread = s.spread().unwrap_or(f64::NAN);
            let bound = bounds.iter().find(|(m, _)| *m == metric).map(|b| b.1);
            let verdict = match bound {
                None => "no bound",
                Some(_) if metric == "setup_s" => "exempt from the spread check",
                Some(b) if spread < b / 3.0 => "steady (below a third of the bound)",
                Some(b) if spread <= b => "within bound",
                Some(_) => "OVER BOUND",
            };
            println!(
                "{name:<15} {metric:<44} {n:>3} {median:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {:>6}  {verdict}",
                bound.map_or("-".to_string(), |b| b.to_string())
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn read_bounds() -> Vec<(String, f64)> {
    let path = repo_root().join("BENCHMARK.json");
    let doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| sdem_obs::json::parse(&t).ok());
    let Some(list) = doc.as_ref().and_then(|d| d.get("end_to_end")?.as_arr()) else {
        eprintln!("perfbench: no end_to_end bounds in {}", path.display());
        return Vec::new();
    };
    list.iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// Reads a run's last output line: `(correct, [(metric, value)])`.
fn parse_result(stdout: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = sdem_obs::json::parse(last).map_err(|e| e.to_string())?;
    let correct = matches!(doc.get("correct"), Some(sdem_obs::json::Value::Bool(true)));
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or("no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((correct, metrics))
}
