//! The repository benchmark. One command runs one workload (or, with
//! `--workload all`, every workload, each in its own process) from a
//! seed, checks every answer it measures, prints each metric with its
//! unit, and ends its standard output with one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_dense --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md` for what each measures). The process exits 1
//! when any correctness check fails and 2 on a usage or setup error.

mod measure;
mod serve;
mod train;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

/// Every workload, as `--workload` names it.
const WORKLOADS: [&str; 4] = ["train", "serve_dense", "serve_city", "serve_swap"];

/// End-to-end metrics (`--trace 0`), reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("quality_at_10", "ratio"),
];

/// Per-layer metrics (`--trace 1`); a layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("core.step_p50_ms", "ms"),
    ("core.step_p99_ms", "ms"),
    ("core.buckets_ms", "ms"),
    ("core.server_side_ms", "ms"),
    ("core.phases_ms", "ms"),
    ("core.sample_ms", "ms"),
    ("core.group_ms", "ms"),
    ("core.noise_ms", "ms"),
    ("core.server_update_ms", "ms"),
    ("core.accountant_ms", "ms"),
    ("core.unaccounted_share", "ratio"),
    ("core.buckets_per_step", "count"),
    ("core.skipped_share", "ratio"),
    ("model.eval_ms", "ms"),
    ("model.score_us_per_query", "us"),
    ("serve.dispatch_share", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.call_p50_ms", "ms"),
    ("serve.call_p99_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_queries", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.unaccounted_share", "ratio"),
    ("ivf.build_ms", "ms"),
    ("ivf.candidates_per_query", "count"),
    ("ivf.shortlist_ratio", "ratio"),
    ("ivf.probe_us", "us"),
    ("ivf.rerank_us", "us"),
    ("swap.publish_ms", "ms"),
    ("swap.poll_ms", "ms"),
    ("plps.open_ms", "ms"),
    ("swap.count", "count"),
    ("swap.rejected", "count"),
    ("swap.p99_window_ms", "ms"),
    ("swap.publish_to_serve_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts `attempted` checked operations of which `failed` failed,
    /// naming the check on standard error when any did.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAIL {failed}/{attempted}: {what}");
        }
    }

    /// The result object: the metrics of `table`, with any per-layer
    /// metric the workload bypassed reported as 0.
    fn result(&self, table: &[(&str, &str)], require_all: bool) -> Result<Value, String> {
        let mut metrics = BTreeMap::new();
        for (name, unit) in table {
            let value = match self.values.get(*name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is {v}")),
                None if require_all => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            metrics.insert(
                name.to_string(),
                serde_json::json!({ "value": value, "unit": *unit }),
            );
        }
        Ok(serde_json::json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        }))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
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

/// When run from a directory holding `BENCHMARK.json`, requires its
/// metric tables to be the ones this binary reports.
fn check_benchmark_json() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let listed = |key: &str| -> Vec<(String, String)> {
        let field = |m: &Value, f: &str| match m {
            Value::Object(o) => match o.get(f) {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            },
            _ => String::new(),
        };
        match doc.as_object().and_then(|o| o.get(key)) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect(),
            _ => Vec::new(),
        }
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if listed("end_to_end") != own(&END_TO_END) || listed("per_layer") != own(&PER_LAYER) {
        return Err("BENCHMARK.json metric tables differ from the benchmark's".to_string());
    }
    Ok(())
}

fn run_one(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "train" => train::run(args.seed, args.seconds, args.trace, &mut report)?,
        name => serve::run(name, args.seed, args.seconds, args.trace, &mut report)?,
    }
    report.set("peak_rss_mb", measure::peak_rss_mb());
    let known = |n: &String| END_TO_END.iter().chain(&PER_LAYER).any(|(m, _)| m == n);
    if let Some(name) = report.values.keys().find(|n| !known(n)) {
        return Err(format!("metric {name} is in neither table"));
    }
    Ok(report)
}

/// `--workload all`: every workload in a child process of its own, then
/// one combined result line with `<workload>/<metric>` keys.
fn run_all(args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut metrics = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let result: Value = serde_json::from_str(last)
            .map_err(|_| format!("{workload} exited with {} and no result", out.status))?;
        let obj = result.as_object().cloned().unwrap_or_default();
        let count = |k: &str| obj.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        if !matches!(obj.get("correct"), Some(Value::Bool(true))) && count("failed") == 0 {
            failed += 1;
        }
        if let Some(Value::Object(m)) = obj.get("metrics") {
            for (name, v) in m {
                metrics.insert(format!("{workload}/{name}"), v.clone());
            }
        }
    }
    Ok(serde_json::json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    }))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_benchmark_json().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fp = measure::fingerprint(&args.workload, args.seed, args.seconds, args.trace);
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        println!("fingerprint {fp}");
        run_one(&args).and_then(|report| {
            let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in table {
                let v = report.values.get(*name).copied().unwrap_or(0.0);
                println!(
                    "  {:<28} {v:>14.6} {unit}",
                    format!("{}/{name}", args.workload)
                );
            }
            report.result(table, !args.trace)
        })
    };
    match result {
        Ok(line) => {
            let correct = matches!(
                line.as_object().and_then(|o| o.get("correct")),
                Some(Value::Bool(true))
            );
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
