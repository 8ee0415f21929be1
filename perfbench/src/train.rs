//! The `train` workload: one private PLP training job (Algorithm 1) on
//! the medium synthetic world with the paper's default hyper-parameters,
//! repeated from the same run seed for as long as `--seconds` allows.

use std::time::Instant;

use plp_core::experiment::{evaluate, ExperimentConfig, PreparedData};
use plp_core::faults::FaultInjector;
use plp_core::plp::{
    train_plp_with_executor, BucketExecutor, BucketUpdate, LocalExecutor, PlpOutcome, TrainOptions,
};
use plp_core::telemetry::StopReason;
use plp_core::{CoreError, Hyperparameters};
use plp_data::grouping::Bucket;
use plp_model::metrics::HitRate;
use plp_model::params::ModelParams;
use plp_obs::Observer;
use plp_privacy::accountant::MomentsAccountant;

use crate::measure::{
    mean, median, ms_since, quantile, timed, worker_threads, CpuClock, Rng64, WORLD_SEED,
};
use crate::Report;

/// Private steps per training job: inside the default ε = 2 budget at
/// q = 0.06, σ = 2.5, so every job stops on `max_steps`.
const STEPS: usize = 60;
/// Untraced jobs per run, at least.
const MIN_JOBS: usize = 3;
/// Data preparations per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// The server-side phases of `plp_train_phase_ms` (everything in a step
/// outside the bucket executor).
const SERVER_PHASES: [&str; 5] = ["sample", "group", "noise", "server_update", "accountant"];

/// Times each `execute_step` call (local SGD + clipping of every bucket)
/// around the in-process reference executor.
#[derive(Default)]
struct TimedExecutor {
    step_ms: Vec<f64>,
}

impl BucketExecutor for TimedExecutor {
    fn execute_step(
        &mut self,
        theta: &ModelParams,
        buckets: &[Bucket],
        hp: &Hyperparameters,
        step_seed: u64,
        step: u64,
        faults: &FaultInjector,
        obs: &Observer,
    ) -> Result<(Vec<BucketUpdate>, usize), CoreError> {
        let start = Instant::now();
        let out = LocalExecutor.execute_step(theta, buckets, hp, step_seed, step, faults, obs);
        self.step_ms.push(ms_since(start));
        out
    }
}

/// One finished job and its wall time around the training call.
struct Job {
    outcome: PlpOutcome,
    wall_ms: f64,
}

fn same_bits(a: &ModelParams, b: &ModelParams) -> bool {
    let bits = |p: &ModelParams| -> Vec<u64> {
        p.embedding
            .as_slice()
            .iter()
            .chain(p.context.as_slice())
            .chain(&p.bias)
            .map(|x| x.to_bits())
            .collect()
    };
    bits(a) == bits(b)
}

/// Checks one job: it ran all `STEPS`, dropped no bucket, spent exactly
/// the ε a fresh accountant composes for `STEPS` steps of (q, σ), and
/// (after the first) reproduced the first job's parameters bit for bit.
fn check_job(job: &Job, first: Option<&Job>, hp: &Hyperparameters, eps_ref: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let s = &job.outcome.summary;
    if s.steps != STEPS as u64 || s.stop_reason != StopReason::MaxSteps {
        bad.push(format!("ran {} steps, stop {:?}", s.steps, s.stop_reason));
    }
    let skipped: usize = job
        .outcome
        .telemetry
        .iter()
        .map(|t| t.skipped_buckets)
        .sum();
    if skipped != 0 {
        bad.push(format!("{skipped} skipped buckets"));
    }
    if s.epsilon_spent.to_bits() != eps_ref.to_bits() || s.delta != hp.budget.delta {
        bad.push(format!(
            "epsilon {} differs from a fresh accountant's {eps_ref}",
            s.epsilon_spent
        ));
    }
    if let Some(first) = first {
        if !same_bits(&job.outcome.params, &first.outcome.params) {
            bad.push("parameters differ from the first job".to_string());
        }
    }
    bad
}

/// Runs the workload, filling `report`.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) -> Result<(), String> {
    let config = ExperimentConfig::medium(WORLD_SEED);
    let mut setup_s = Vec::new();
    let mut prep: Option<PreparedData> = None;
    for _ in 0..SETUPS {
        let (p, ms) = timed(|| PreparedData::generate(&config));
        let p = p.map_err(|e| format!("prepare data: {e}"))?;
        setup_s.push(ms / 1e3);
        match &prep {
            None => prep = Some(p),
            Some(first) => report.ops(
                1,
                u64::from(first.train != p.train || first.test != p.test),
                "data preparation is deterministic",
            ),
        }
    }
    let prep = prep.expect("at least one setup");

    let hp = Hyperparameters {
        max_steps: STEPS,
        eval_every: 0,
        threads: worker_threads(),
        ..Hyperparameters::default()
    };
    let run_seed = Rng64::new(seed, 0x7EA1).next_u64();
    let eps_ref = {
        let mut acc = MomentsAccountant::new(hp.budget.delta).map_err(|e| e.to_string())?;
        for _ in 0..STEPS {
            acc.step(hp.sampling_prob, hp.noise_multiplier)
                .map_err(|e| e.to_string())?;
        }
        acc.epsilon().map_err(|e| e.to_string())?
    };
    let train_job = |opts: &TrainOptions, exec: &mut dyn BucketExecutor| -> Result<Job, String> {
        let (outcome, wall_ms) =
            timed(|| train_plp_with_executor(run_seed, &prep.train, None, &hp, opts, exec));
        let outcome = outcome.map_err(|e| format!("training: {e}"))?;
        Ok(Job { outcome, wall_ms })
    };

    // Untraced jobs: at least `MIN_JOBS`, then back to back while the
    // next one still fits in `--seconds`; a traced run stops after one
    // and adds the traced job.
    let start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    loop {
        let job = train_job(&TrainOptions::default(), &mut LocalExecutor)?;
        let bad = check_job(&job, jobs.first(), &hp, eps_ref);
        report.ops(1, u64::from(!bad.is_empty()), &bad.join("; "));
        let last_s = job.wall_ms / 1e3;
        jobs.push(job);
        let fits = start.elapsed().as_secs_f64() + last_s <= seconds as f64;
        if trace || (jobs.len() >= MIN_JOBS && !fits) {
            break;
        }
    }

    // HR@10 over both held-out splits (neither is seen in training; with
    // `eval_every = 0` validation is never consulted).
    let params = &jobs[0].outcome.params;
    let (rates, eval_ms) = timed(|| -> Result<Vec<HitRate>, CoreError> {
        Ok([
            evaluate(params, &prep.test, &[10])?,
            evaluate(params, &prep.validation, &[10])?,
        ]
        .concat())
    });
    let rates = rates.map_err(|e| format!("evaluate: {e}"))?;
    let trials = rates.iter().map(|r| r.trials).sum::<usize>().max(1);
    let hr10 = rates.iter().map(|r| r.hits).sum::<usize>() as f64 / trials as f64;

    let steps_per_s: Vec<f64> = jobs
        .iter()
        .map(|j| STEPS as f64 / (j.wall_ms / 1e3))
        .collect();
    let step_ms: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.outcome.telemetry.iter().map(|t| t.wall_ms))
        .collect();
    let steps_per_s = median(&steps_per_s);
    report.set("setup_s", median(&setup_s));
    report.set("throughput", steps_per_s);
    report.set("p50_ms", median(&step_ms));
    report.set("quality_at_10", hr10);
    report.set("model.eval_ms", eval_ms);
    report.set("model.score_us_per_query", eval_ms * 1e3 / trials as f64);
    println!(
        "train: {} job(s) of {STEPS} steps, {:.3} steps/s, HR@10 {hr10:.4}, ε {:.4}",
        jobs.len(),
        steps_per_s,
        jobs[0].outcome.summary.epsilon_spent
    );
    if !trace {
        return Ok(());
    }

    // The traced job — bucket executor timed, the program's phase
    // histograms switched on — between two untraced ones, whose mean wall
    // it is compared with. All three must reach the same parameters.
    let observer = Observer::new("perfbench");
    let opts = TrainOptions {
        observer: observer.clone(),
        ..TrainOptions::default()
    };
    let mut exec = TimedExecutor::default();
    let clock = CpuClock::start();
    let traced = train_job(&opts, &mut exec)?;
    let (cpu_s, cpu_util) = clock.stop();
    let after = train_job(&TrainOptions::default(), &mut LocalExecutor)?;
    for job in [&traced, &after] {
        let bad = check_job(job, jobs.first(), &hp, eps_ref);
        report.ops(1, u64::from(!bad.is_empty()), &bad.join("; "));
    }
    let untraced_ms = (jobs[0].wall_ms + after.wall_ms) / 2.0;

    let tel = &traced.outcome.telemetry;
    let steps = tel.len().max(1) as f64;
    let traced_step_ms: Vec<f64> = tel.iter().map(|t| t.wall_ms).collect();
    let step_mean = mean(&traced_step_ms);
    let buckets_ms = mean(&exec.step_ms);
    let registry = observer.registry().expect("enabled observer");
    let mut phases_ms = 0.0;
    for phase in SERVER_PHASES {
        let h = registry
            .histogram_with("plp_train_phase_ms", Some(("phase", phase)))
            .snapshot();
        let per_step = h.sum() / steps;
        phases_ms += per_step;
        report.set(&format!("core.{phase}_ms"), per_step);
    }
    let buckets: usize = tel.iter().map(|t| t.buckets).sum();
    let skipped: usize = tel.iter().map(|t| t.skipped_buckets).sum();
    report.set("core.step_p50_ms", quantile(&traced_step_ms, 0.5));
    report.set("core.step_p99_ms", quantile(&traced_step_ms, 0.99));
    report.set("core.buckets_ms", buckets_ms);
    report.set("core.server_side_ms", step_mean - buckets_ms);
    report.set("core.phases_ms", phases_ms);
    report.set(
        "core.unaccounted_share",
        (step_mean - buckets_ms - phases_ms) / step_mean,
    );
    report.set("core.buckets_per_step", buckets as f64 / steps);
    report.set("core.skipped_share", skipped as f64 / buckets.max(1) as f64);
    report.set("proc.cpu_s", cpu_s);
    report.set("proc.cpu_util", cpu_util);
    report.set("trace.overhead_share", traced.wall_ms / untraced_ms - 1.0);
    Ok(())
}
