//! Training-throughput benchmark: runs the same seeded private training
//! run at `threads ∈ {1, 0 (auto)}` — the auto run clamps to the host's
//! `available_parallelism`, so CI never oversubscribes a small box —
//! reports steps/sec, examples/sec (from the
//! `plp_train_pairs_total` counter) and the `plp_train_phase_ms` phase
//! breakdown per thread count, and **asserts thread-count invariance**:
//! the trained parameters must be bit-identical at every thread count —
//! the determinism contract of the unrolled kernels, the strided
//! bucket/eval partitions (DESIGN.md §11) and the counter-based per-row
//! noise streams (DESIGN.md §12).
//!
//! The workload is `Scale::Bench` data with a deliberately enlarged model
//! (more locations, wider embedding) so the dense noise + server-update
//! phases are a measurable slice of each step; on full (non-smoke) runs
//! the benchmark additionally **fails unless the noise + server_update
//! wall-clock share shrinks at threads=4 vs threads=1** — the regression
//! gate for the threaded dense phases. (On a host with one hardware
//! thread a parallel speedup is impossible, so there the gate instead
//! bounds the threading overhead; the report records
//! `available_parallelism` so a reader can tell which form applied.)
//!
//! Usage:
//!   cargo run --release -p plp-bench --bin train_throughput            # full run
//!   cargo run --release -p plp-bench --bin train_throughput -- --smoke # CI smoke
//!   ... -- --out path.json        # report path (default BENCH_train.json)
//!
//! Exits non-zero if any check fails (in particular, if threading changes
//! the trained model by even one bit).

use std::process::ExitCode;

use plp_bench::report::{
    check, phase_breakdown, phase_total, phases_json, PhaseRows, TRAIN_PHASES,
};
use plp_bench::runner::Scale;
use plp_core::checkpoint::KERNEL_SCHEME_VERSION;
use plp_core::config::Hyperparameters;
use plp_core::experiment::PreparedData;
use plp_core::plp::{train_plp_resumable, PlpOutcome, TrainOptions};
use plp_obs::Observer;

const SEED: u64 = 42;
/// First run pins the sequential baseline; the second uses `threads: 0`
/// (auto), which clamps to the host's `available_parallelism` — a fixed
/// `4` oversubscribed single-core CI hosts (local_sgd took ~2× the
/// sequential wall there, pure scheduler churn).
const THREAD_COUNTS: [usize; 2] = [1, 0];

struct Opts {
    smoke: bool,
    out: String,
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
        out: flag("--out").unwrap_or_else(|| "BENCH_train.json".to_string()),
    }
}

/// One measured run: the outcome, its observer (for counters/histograms)
/// and throughput figures.
struct Measured {
    threads: usize,
    /// What `threads` resolved to (`threads: 0` is the auto mode).
    resolved: usize,
    outcome: PlpOutcome,
    observer: Observer,
    steps_per_sec: f64,
    examples_per_sec: f64,
    pairs: u64,
}

fn run_at(threads: usize, prep: &PreparedData, hp: &Hyperparameters) -> Measured {
    let mut hp = hp.clone();
    hp.threads = threads;
    let resolved = hp.effective_threads();
    let observer = Observer::new("train_throughput");
    let opts = TrainOptions {
        observer: observer.clone(),
        ..TrainOptions::default()
    };
    println!(
        "train_throughput: threads={threads} (resolved {resolved}), max_steps={}",
        hp.max_steps
    );
    let outcome = train_plp_resumable(SEED, &prep.train, Some(&prep.validation), &hp, &opts)
        .expect("training run");
    let wall_s = outcome.summary.total_wall_ms / 1e3;
    let pairs = observer.counter("plp_train_pairs_total").get();
    let steps_per_sec = outcome.summary.steps as f64 / wall_s.max(1e-9);
    let examples_per_sec = pairs as f64 / wall_s.max(1e-9);
    println!(
        "  steps={} wall={:.1}ms steps/s={:.2} pairs={} examples/s={:.0}",
        outcome.summary.steps,
        outcome.summary.total_wall_ms,
        steps_per_sec,
        pairs,
        examples_per_sec
    );
    Measured {
        threads,
        resolved,
        outcome,
        observer,
        steps_per_sec,
        examples_per_sec,
        pairs,
    }
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let mut ok = true;

    // Scale::Bench data, but with a deliberately enlarged model: more
    // locations and a wider embedding put real weight behind the dense
    // noise / server_update phases this benchmark gates (the default
    // bench model is so small their wall-clock share is pure jitter).
    // Local overrides only — Scale::Bench itself stays tiny because the
    // chaos drill, the serve benches and the criterion targets use it.
    let mut config = Scale::Bench.experiment_config(SEED);
    config.generator.num_locations = 1_600;
    config.generator.target_checkins = 24_000;
    config.generator.num_clusters = 16;
    let mut hp = Scale::Bench.hyperparameters();
    hp.embedding_dim = 32;
    hp.max_steps = if opts.smoke { 6 } else { 30 };
    hp.eval_every = 3;
    let prep = PreparedData::generate(&config).expect("prepare data");
    println!(
        "train_throughput: vocab={} embedding_dim={}",
        prep.vocab_size(),
        hp.embedding_dim
    );

    let runs: Vec<Measured> = THREAD_COUNTS
        .iter()
        .map(|&t| run_at(t, &prep, &hp))
        .collect();

    // Thread-count invariance: the whole point of the fixed-order kernels
    // and the ordered bucket/eval reductions. A single differing bit here
    // means a nondeterministic reduction crept into the hot path.
    let reference = &runs[0];
    for run in &runs[1..] {
        ok &= check(
            run.outcome.params == reference.outcome.params,
            &format!(
                "params at threads={} bit-identical to threads={}",
                run.threads, reference.threads
            ),
        );
        ok &= check(
            run.pairs == reference.pairs,
            &format!(
                "pair count at threads={} ({}) matches threads={} ({})",
                run.threads, run.pairs, reference.threads, reference.pairs
            ),
        );
    }
    ok &= check(
        runs.iter()
            .all(|r| r.outcome.summary.steps > 0 && r.pairs > 0),
        "every run executed steps and trained on pairs",
    );
    // Validation HR@10 telemetry (threaded eval) must agree across thread
    // counts too — the eval fan-out has its own ordered reduction.
    let hr = |m: &Measured| -> Vec<Option<f64>> {
        m.outcome
            .telemetry
            .iter()
            .map(|t| t.validation_hr10)
            .collect()
    };
    for run in &runs[1..] {
        ok &= check(
            hr(run) == hr(reference),
            &format!(
                "validation HR@10 series at threads={} matches threads={}",
                run.threads, reference.threads
            ),
        );
    }

    // Phase breakdowns and the dense-phase (noise + server_update) share
    // of wall-clock per run — the quantity the threaded noise streams and
    // server update exist to shrink.
    let breakdowns: Vec<PhaseRows> = runs
        .iter()
        .map(|r| {
            println!("threads={}:", r.threads);
            phase_breakdown(&r.observer, "plp_train_phase_ms", &TRAIN_PHASES)
        })
        .collect();
    // Every phase but clip (a per-bucket sub-phase nested in local_sgd)
    // is a disjoint sub-interval of the run, so the step-level totals can
    // never exceed its wall, whatever the host's timing noise.
    for (r, rows) in runs.iter().zip(&breakdowns) {
        let sum: f64 = rows
            .iter()
            .filter(|(p, ..)| p != "clip")
            .map(|row| row.4)
            .sum();
        let (threads, wall) = (r.threads, r.outcome.summary.total_wall_ms);
        let what =
            format!("step-level phases at threads={threads} sum to {sum:.1}ms <= {wall:.1}ms wall");
        ok &= check(sum <= wall, &what);
    }
    // The local_sgd phase (the executor's wall, once per step) is the
    // single biggest slice of the step loop; its count and wall total
    // feed the --train bench gate.
    let local_sgd: Vec<(u64, f64)> = breakdowns
        .iter()
        .map(|rows| phase_total(rows, "local_sgd"))
        .collect();
    let noise_server_ms: Vec<f64> = breakdowns
        .iter()
        .map(|rows| {
            rows.iter()
                .filter(|(phase, ..)| phase == "noise" || phase == "server_update")
                .map(|(.., total)| *total)
                .sum()
        })
        .collect();
    let shares: Vec<f64> = runs
        .iter()
        .zip(&noise_server_ms)
        .map(|(r, ms)| ms / r.outcome.summary.total_wall_ms.max(1e-9))
        .collect();
    for (r, ((ms, share), (sgd_n, sgd_ms))) in runs
        .iter()
        .zip(noise_server_ms.iter().zip(&shares).zip(&local_sgd))
    {
        println!(
            "  threads={}: noise+server_update {:.2}ms of {:.1}ms wall (share {:.1}%), \
             local_sgd n={} {:.1}ms (share {:.1}%)",
            r.threads,
            ms,
            r.outcome.summary.total_wall_ms,
            share * 100.0,
            sgd_n,
            sgd_ms,
            sgd_ms / r.outcome.summary.total_wall_ms.max(1e-9) * 100.0
        );
    }
    // The regression gate: at threads=4 the dense phases must take a
    // *smaller* slice of the run than at threads=1. Full runs only —
    // smoke's 6 steps are too few for stable timing shares. On a host
    // with a single hardware thread a parallel speedup is physically
    // impossible (every run serialises onto one core), so there the gate
    // degrades to an overhead bound: the threaded dense phases may not
    // cost more than a sliver over their sequential share.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if !opts.smoke {
        for (run, share) in runs.iter().zip(&shares).skip(1) {
            if cores >= 2 {
                ok &= check(
                    *share < shares[0],
                    &format!(
                        "noise+server share at threads={} ({:.2}%) below threads={} ({:.2}%)",
                        run.resolved,
                        share * 100.0,
                        reference.resolved,
                        shares[0] * 100.0
                    ),
                );
            } else {
                ok &= check(
                    *share <= shares[0] * 1.25 + 0.02,
                    &format!(
                        "noise+server share at threads={} ({:.2}%) within the \
                         single-core overhead bound of threads={} ({:.2}%)",
                        run.resolved,
                        share * 100.0,
                        reference.resolved,
                        shares[0] * 100.0
                    ),
                );
            }
        }
    }

    let per_run: Vec<serde_json::Value> = runs
        .iter()
        .zip(
            breakdowns
                .iter()
                .zip(noise_server_ms.iter().zip(&shares).zip(&local_sgd)),
        )
        .map(|(r, (rows, ((ns_ms, share), (sgd_n, sgd_ms))))| {
            serde_json::json!({
                "threads": r.threads,
                "resolved_threads": r.resolved,
                "steps": r.outcome.summary.steps,
                "wall_ms": r.outcome.summary.total_wall_ms,
                "steps_per_sec": r.steps_per_sec,
                "pairs": r.pairs,
                "examples_per_sec": r.examples_per_sec,
                "epsilon_spent": r.outcome.summary.epsilon_spent,
                "noise_server_total_ms": *ns_ms,
                "noise_server_share": *share,
                "local_sgd_count": *sgd_n,
                "local_sgd_total_ms": *sgd_ms,
                "local_sgd_share": *sgd_ms / r.outcome.summary.total_wall_ms.max(1e-9),
                "phases": phases_json(rows),
            })
        })
        .collect();

    let payload = serde_json::json!({
        "bench": "train_throughput",
        "seed": SEED,
        "smoke": opts.smoke,
        "max_steps": hp.max_steps,
        "embedding_dim": hp.embedding_dim,
        "vocab": prep.vocab_size(),
        "available_parallelism": cores,
        "kernel_scheme_version": KERNEL_SCHEME_VERSION,
        "runs": serde_json::Value::Array(per_run),
        "thread_invariant": ok,
        "all_checks_passed": ok,
    });
    let text = serde_json::to_string_pretty(&payload).expect("serialise payload");
    std::fs::write(&opts.out, text).expect("write output");
    println!("train_throughput: wrote {}", opts.out);

    if ok {
        println!("train_throughput: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("train_throughput: CHECKS FAILED");
        ExitCode::FAILURE
    }
}
