//! Observability smoke harness: replays one private training run and one
//! serving burst through a **shared** `plp_obs::Observer`, prints the
//! per-phase latency breakdown and the privacy-budget gauge, and asserts
//! the observability contracts end to end:
//!
//! * the JSONL event log parses line by line and brackets the run with
//!   `run_start` / `run_end`,
//! * the terminal `plp_epsilon_spent` gauge is **bit-identical** to
//!   `RunSummary::epsilon_spent`,
//! * serving stays bit-identical to the sequential `Recommender` path
//!   with instrumentation enabled,
//! * histogram quantiles stay within the documented one-bucket-width
//!   error against an exact reference,
//! * the Prometheus rendering carries phase histograms for **both**
//!   training and serving.
//!
//! Usage:
//!   cargo run --release -p plp-bench --bin obs_report            # full run
//!   cargo run --release -p plp-bench --bin obs_report -- --smoke # CI smoke
//!   ... -- --out path.json        # report path (default BENCH_obs.json)
//!   ... -- --log path.jsonl       # event log (default BENCH_obs_events.jsonl)
//!
//! Exits non-zero if any check fails.

use std::process::ExitCode;

use plp_bench::report::{
    check, phase_breakdown, phase_total, phases_json, sequential_reference, TRAIN_PHASES,
};
use plp_bench::runner::Scale;
use plp_core::experiment::PreparedData;
use plp_core::plp::{train_plp_resumable, TrainOptions};
use plp_model::metrics::leave_one_out_trials;
use plp_model::Recommender;
use plp_obs::{Histogram, Observer};
use plp_serve::{BatchEngine, Query, ServeConfig};

const SEED: u64 = 42;
const TOP_K: usize = 10;

struct Opts {
    smoke: bool,
    out: String,
    log: String,
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    Opts {
        smoke: args.iter().any(|a| a == "--smoke"),
        out: flag("--out").unwrap_or_else(|| "BENCH_obs.json".to_string()),
        log: flag("--log").unwrap_or_else(|| "BENCH_obs_events.jsonl".to_string()),
    }
}

/// Exact nearest-rank percentile over raw samples (the reference the
/// histogram quantile is checked against).
fn exact_quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Asserts `Histogram::quantile` stays within its documented error bound
/// — the result never undershoots the exact value and overshoots by at
/// most one sub-bucket width (12.5% relative) — on a deterministic
/// long-tailed latency-like distribution.
fn histogram_error_check() -> bool {
    let mut h = Histogram::new();
    let mut samples = Vec::new();
    let mut x = 0.137f64;
    for i in 0..10_000 {
        // Deterministic mix of a short head and a heavy tail.
        x = (x * 1_103.515_245 + 12.345).rem_euclid(997.0);
        let v = if i % 17 == 0 { x * 40.0 } else { x * 0.25 };
        h.record(v);
        samples.push(v);
    }
    let mut ok = true;
    for q in [0.5, 0.9, 0.95, 0.99] {
        let exact = exact_quantile(&mut samples, q);
        let approx = h.quantile(q).expect("non-empty histogram");
        let within = approx >= exact && approx <= exact * (1.0 + 1.0 / 8.0) + 1e-12;
        ok &= check(
            within,
            &format!("histogram q{q}: approx {approx:.4} vs exact {exact:.4} (≤ 12.5% over)"),
        );
    }
    ok
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let opts = parse_opts();
    let mut ok = true;

    // The event sink appends (resume semantics); a report run wants a
    // fresh log.
    let _ = std::fs::remove_file(&opts.log);
    let observer = Observer::with_jsonl_file("obs_report", std::path::Path::new(&opts.log))
        .expect("open event log");

    // --- Training leg: one smoke-scale private run, fully instrumented.
    let config = Scale::Bench.experiment_config(SEED);
    let mut hp = Scale::Bench.hyperparameters();
    hp.max_steps = if opts.smoke { 6 } else { 30 };
    hp.eval_every = 3;
    println!(
        "obs_report: training (smoke={}, max_steps={})",
        opts.smoke, hp.max_steps
    );
    let prep = PreparedData::generate(&config).expect("prepare data");
    let train_opts = TrainOptions {
        observer: observer.clone(),
        ..TrainOptions::default()
    };
    let outcome = train_plp_resumable(SEED, &prep.train, Some(&prep.validation), &hp, &train_opts)
        .expect("training run");

    println!(
        "obs_report: {} steps, stop={:?}, ε={:.4} of {:.1} (δ={:.0e})",
        outcome.summary.steps,
        outcome.summary.stop_reason,
        outcome.summary.epsilon_spent,
        hp.budget.epsilon,
        hp.budget.delta
    );
    let train_rows = phase_breakdown(&observer, "plp_train_phase_ms", &TRAIN_PHASES);
    ok &= check(!train_rows.is_empty(), "training phases recorded");

    // Budget gauge: bit-identical to the run summary.
    let gauge_eps = observer.gauge("plp_epsilon_spent").get();
    ok &= check(
        gauge_eps.to_bits() == outcome.summary.epsilon_spent.to_bits(),
        &format!(
            "ε gauge {gauge_eps} bit-identical to RunSummary.epsilon_spent {}",
            outcome.summary.epsilon_spent
        ),
    );
    ok &= check(
        observer.gauge("plp_epsilon_budget").get().to_bits() == hp.budget.epsilon.to_bits(),
        "ε budget gauge matches configuration",
    );
    ok &= check(
        observer.counter("plp_train_steps_total").get() == outcome.summary.steps,
        "step counter matches executed steps",
    );

    // Privacy burn telemetry: one event per step, burn-rate gauge live.
    ok &= check(
        observer.gauge("plp_privacy_epsilon_burn_rate").get() > 0.0,
        "privacy burn-rate gauge is live",
    );

    // --- Tracing overhead: time the same training run with and without a
    // tracer attached. Min-of-repeats per mode de-flakes scheduler noise;
    // the bench guard holds overhead_frac to its ceiling.
    let timing_repeats = if opts.smoke { 3 } else { 5 };
    println!("obs_report: timing traced vs untraced training ({timing_repeats} repeats each)");
    let run_once = |traced: bool| {
        let obs = Observer::new("obs_timing");
        if traced {
            obs.attach_tracer(plp_obs::trace::TraceConfig::named("obs_report"));
        }
        let topts = TrainOptions {
            observer: obs,
            ..TrainOptions::default()
        };
        let start = std::time::Instant::now();
        let out = train_plp_resumable(SEED, &prep.train, None, &hp, &topts).expect("timing run");
        let per_step_ms = start.elapsed().as_secs_f64() * 1e3 / out.summary.steps as f64;
        (per_step_ms, out)
    };
    let mut untraced_step_ms = f64::INFINITY;
    let mut traced_step_ms = f64::INFINITY;
    let (mut untraced_run, mut traced_run) = (None, None);
    for _ in 0..timing_repeats {
        let (ms, out) = run_once(false);
        untraced_step_ms = untraced_step_ms.min(ms);
        untraced_run = Some(out);
        let (ms, out) = run_once(true);
        traced_step_ms = traced_step_ms.min(ms);
        traced_run = Some(out);
    }
    let (untraced_run, traced_run) = (untraced_run.unwrap(), traced_run.unwrap());
    let overhead_frac = (traced_step_ms - untraced_step_ms) / untraced_step_ms;
    println!(
        "  untraced={untraced_step_ms:.3}ms/step traced={traced_step_ms:.3}ms/step overhead={:.2}%",
        overhead_frac * 100.0
    );
    ok &= check(
        traced_run.params == untraced_run.params
            && traced_run.ledger == untraced_run.ledger
            && traced_run.summary.epsilon_spent.to_bits()
                == untraced_run.summary.epsilon_spent.to_bits(),
        "traced training bit-identical to untraced",
    );

    // --- Serving leg: same observer, so both stacks land in one registry.
    let rec = Recommender::new(&outcome.params);
    let trials = leave_one_out_trials(&prep.test);
    let num_queries = if opts.smoke { 256 } else { 1_024 };
    let queries: Vec<Query> = (0..num_queries)
        .map(|i| {
            let (recent, _) = &trials[i % trials.len()];
            if i % 2 == 0 {
                Query::new(recent.to_vec(), TOP_K)
            } else {
                Query::with_exclusions(recent.to_vec(), TOP_K, recent.to_vec())
            }
        })
        .collect();
    let engine = BatchEngine::with_observer(
        rec.clone(),
        ServeConfig {
            max_batch: 32,
            workers: 4,
            cache_capacity: 1024,
            ann: None,
        },
        observer.clone(),
    )
    .expect("engine config");
    println!("obs_report: serving {num_queries} queries twice (cold + warm)");
    let expected = sequential_reference(&rec, &queries);
    let cold = engine.serve(&queries).expect("cold pass");
    let warm = engine.serve(&queries).expect("warm pass");
    ok &= check(
        cold == expected && warm == expected,
        "instrumented batched serving bit-identical to sequential path",
    );
    let t = engine.telemetry();
    println!(
        "  qps={:.0} p50={:.3}ms p95={:.3}ms p99={:.3}ms hit_rate={:.3}",
        t.qps,
        t.p50_ms,
        t.p95_ms,
        t.p99_ms,
        t.cache_hit_rate()
    );
    ok &= check(
        t.p50_ms <= t.p95_ms && t.p95_ms <= t.p99_ms,
        "serving percentiles are monotone",
    );
    let serve_rows = phase_breakdown(
        &observer,
        "plp_serve_phase_ms",
        &["queue_wait", "cache_lookup", "batch_matmul", "topk"],
    );
    ok &= check(!serve_rows.is_empty(), "serving phases recorded");

    // --- Histogram error bound against an exact reference.
    ok &= histogram_error_check();

    // --- Prometheus rendering must carry both stacks.
    let prom = observer.render_prometheus();
    ok &= check(
        prom.contains("plp_train_phase_ms_bucket{phase=\"local_sgd\""),
        "prometheus text has training phase histograms",
    );
    ok &= check(
        prom.contains("plp_serve_phase_ms_bucket{phase=\"batch_matmul\""),
        "prometheus text has serving phase histograms",
    );
    ok &= check(
        prom.contains("plp_epsilon_spent") && prom.contains("plp_epsilon_budget"),
        "prometheus text has the privacy-budget gauges",
    );

    // --- The JSONL log parses line by line and brackets the run.
    let log_text = std::fs::read_to_string(&opts.log).expect("read event log");
    let mut kinds: Vec<String> = Vec::new();
    let mut parse_ok = true;
    for (i, line) in log_text.lines().enumerate() {
        match serde_json::from_str::<serde_json::Value>(line) {
            Ok(v) => {
                if let Some(serde_json::Value::Str(k)) = v.as_object().and_then(|o| o.get("kind")) {
                    kinds.push(k.clone());
                } else {
                    parse_ok = false;
                    println!("FAIL event line {i} has no string kind");
                }
            }
            Err(e) => {
                parse_ok = false;
                println!("FAIL event line {i} is not valid JSON: {e:?}");
            }
        }
    }
    ok &= check(
        parse_ok && !kinds.is_empty(),
        &format!("event log parses line-by-line ({} events)", kinds.len()),
    );
    ok &= check(
        kinds.first().map(String::as_str) == Some("run_start")
            && kinds.iter().any(|k| k == "run_end"),
        "event log brackets the run with run_start/run_end",
    );
    ok &= check(
        kinds.iter().filter(|k| *k == "step").count() as u64 == outcome.summary.steps,
        "one step event per executed step",
    );

    // Surface the hottest training phase at the top level so report
    // consumers don't have to dig through the phase array for it.
    let (local_sgd_count, local_sgd_total_ms) = phase_total(&train_rows, "local_sgd");
    let payload = serde_json::json!({
        "bench": "obs",
        "seed": SEED,
        "smoke": opts.smoke,
        "steps": outcome.summary.steps,
        "local_sgd_count": local_sgd_count,
        "local_sgd_total_ms": local_sgd_total_ms,
        "stop_reason": serde_json::to_value_of(&outcome.summary.stop_reason),
        "epsilon_spent": outcome.summary.epsilon_spent,
        "epsilon_budget": hp.budget.epsilon,
        "delta": hp.budget.delta,
        "train_phases": phases_json(&train_rows),
        "trace": serde_json::json!({
            "repeats": timing_repeats,
            "untraced_step_ms": untraced_step_ms,
            "traced_step_ms": traced_step_ms,
            "overhead_frac": overhead_frac,
        }),
        "serve_phases": phases_json(&serve_rows),
        "serve_qps": t.qps,
        "serve_p99_ms": t.p99_ms,
        "events": kinds.len(),
        "event_log": opts.log.clone(),
        "prometheus_bytes": prom.len(),
        "all_checks_passed": ok,
    });
    let text = serde_json::to_string_pretty(&payload).expect("serialise payload");
    std::fs::write(&opts.out, text).expect("write output");
    println!("obs_report: wrote {}", opts.out);

    if ok {
        println!("obs_report: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("obs_report: FAILURES detected");
        ExitCode::FAILURE
    }
}
