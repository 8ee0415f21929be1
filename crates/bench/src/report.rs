//! Report helpers shared by the bench binaries: PASS/FAIL lines, the
//! per-phase latency tables read from an [`Observer`]'s histograms, and
//! the sequential reference served answers are checked against.

use plp_model::Recommender;
use plp_obs::Observer;
use plp_serve::Query;

/// The `plp_train_phase_ms` phases in Algorithm 1 order. All but `clip`
/// are disjoint step-level phases; `clip` is a per-bucket sub-phase
/// nested inside `local_sgd`.
pub const TRAIN_PHASES: [&str; 9] = [
    "sample",
    "group",
    "local_sgd",
    "clip",
    "noise",
    "server_update",
    "accountant",
    "eval",
    "checkpoint",
];

/// `(phase, count, p50, p95, total_ms)` rows of one breakdown.
pub type PhaseRows = Vec<(String, u64, f64, f64, f64)>;

/// One PASS/FAIL check line; returns the verdict so callers can aggregate.
pub fn check(ok: bool, what: &str) -> bool {
    println!("{} {what}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Snapshots `family{phase=…}` for each of `phases`, prints a breakdown
/// table and returns the rows of the phases that recorded anything.
///
/// # Panics
/// If `obs` is disabled.
pub fn phase_breakdown(obs: &Observer, family: &str, phases: &[&str]) -> PhaseRows {
    let registry = obs.registry().expect("enabled observer");
    let mut rows = Vec::new();
    println!("  {family} breakdown:");
    for phase in phases {
        let h = registry
            .histogram_with(family, Some(("phase", phase)))
            .snapshot();
        if h.count() == 0 {
            continue;
        }
        let p50 = h.quantile(0.5).unwrap_or(0.0);
        let p95 = h.quantile(0.95).unwrap_or(0.0);
        println!(
            "    {phase:<14} n={:<6} p50={:.3}ms p95={:.3}ms total={:.1}ms",
            h.count(),
            p50,
            p95,
            h.sum()
        );
        rows.push((phase.to_string(), h.count(), p50, p95, h.sum()));
    }
    rows
}

/// `(count, total_ms)` of `phase` in `rows`; zeros if it recorded nothing.
pub fn phase_total(rows: &PhaseRows, phase: &str) -> (u64, f64) {
    rows.iter()
        .find(|(p, ..)| p == phase)
        .map_or((0, 0.0), |&(_, n, _, _, total)| (n, total))
}

/// The rows as the JSON array the bench reports carry.
pub fn phases_json(rows: &PhaseRows) -> serde_json::Value {
    let row = |(phase, n, p50, p95, total): &(String, u64, f64, f64, f64)| {
        serde_json::json!({
            "phase": phase.clone(),
            "count": *n,
            "p50_ms": *p50,
            "p95_ms": *p95,
            "total_ms": *total,
        })
    };
    serde_json::Value::Array(rows.iter().map(row).collect())
}

/// Each query answered one at a time by the sequential [`Recommender`] —
/// what every serving engine must reproduce.
///
/// # Panics
/// On a query the recommender rejects.
pub fn sequential_reference(rec: &Recommender, queries: &[Query]) -> Vec<Vec<usize>> {
    queries
        .iter()
        .map(|q| {
            if q.exclude.is_empty() {
                rec.recommend(&q.recent, q.k).expect("sequential recommend")
            } else {
                rec.recommend_excluding(&q.recent, q.k, &q.exclude)
                    .expect("sequential recommend_excluding")
            }
        })
        .collect()
}
