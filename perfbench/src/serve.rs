//! The serving workloads. Each builds its engine (the set-up), replays a
//! seeded query stream through it in a closed-loop phase (one client,
//! fixed wave) and an open-loop phase (one generator thread at a fixed
//! offered rate, each request timed from its due time), and checks every
//! answer against a reference computed outside the timed phases.
//!
//! * `serve_dense` — the 600-location medium world on the exhaustive
//!   `BatchEngine`, cache on, Zipf-repeated leave-one-out histories.
//! * `serve_city` — the 100k-location city on the int8-quantized IVF
//!   engine, cluster-local queries that never repeat.
//! * `serve_swap` — a 10k-location f64 IVF engine behind `HotSwapServer`
//!   while a publisher thread publishes and swaps in new generations.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plp_core::experiment::{ExperimentConfig, PreparedData};
use plp_core::telemetry::ServeTelemetry;
use plp_data::generator::{GeneratorConfig, SyntheticGenerator};
use plp_linalg::ivf::{IvfBuildParams, IvfScratch};
use plp_linalg::Matrix;
use plp_model::metrics::leave_one_out_trials;
use plp_model::plps::PlpsSnapshot;
use plp_model::recommender::RecommendScratch;
use plp_model::{ModelParams, Recommender};
use plp_serve::swap::{publish_generation, GenerationWatcher, HotSwapServer, ModelGeneration};
use plp_serve::{AnnConfig, BatchEngine, Query, ServeConfig, ServeError, SwapOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{
    mean, median, ms_since, quantile, repeat_setup, timed, wait_until, worker_threads, CpuClock,
    Rng64, WORLD_SEED,
};
use crate::Report;

/// Answers returned per query.
const TOP_K: usize = 10;
/// Set-ups per run; `setup_s` is their median. The city's set-up takes
/// over a second, the others' a few tens of milliseconds.
const SETUPS: usize = 15;
const CITY_SETUPS: usize = 3;
/// Share of `--seconds` spent in the closed-loop phase; the open loop
/// gets the rest.
const CLOSED_SHARE: f64 = 0.4;
/// Queries whose IVF probe and re-rank are timed one by one (traced runs).
const LAYER_SAMPLE: usize = 2000;

/// The load shape of one workload.
struct Shape {
    /// Queries per call in the closed loop.
    closed_wave: usize,
    /// Queries per open-loop request.
    open_request: usize,
    /// Offered open-loop rate, requests per second.
    open_rate: f64,
}

/// The served stream: query `i` of the stream is answered by reference
/// `refs[model][ref_of[i]]`, where `model` is the generation's model.
struct Workload {
    stream: Vec<Query>,
    ref_of: Vec<usize>,
    refs: Vec<Vec<Vec<usize>>>,
    /// Sequential-reference cost per query, microseconds.
    score_us: f64,
    /// Recall@10 of the reference answers against the exhaustive scan.
    quality: f64,
}

enum Target {
    /// One fixed engine, held as a generation so that a traced call pins
    /// it the way `serve_pinned` pins a hot-swapped one.
    Engine(Arc<ModelGeneration>),
    Swap(Swap),
}

/// The hot-swap side of `serve_swap`.
struct Swap {
    server: Arc<HotSwapServer>,
    dir: TempDir,
    cfg: ServeConfig,
    models: Arc<Vec<Recommender>>,
}

/// A scratch directory inside the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Engine counters summed over the traced calls, whichever generation
/// answered each.
#[derive(Default, Clone, Copy)]
struct Totals {
    queries: u64,
    hits: u64,
    misses: u64,
    batches: u64,
    wall_ms: f64,
}

impl Totals {
    /// Adds what `engine` has counted since it read `before`.
    fn add_since(&mut self, engine: &BatchEngine, before: &ServeTelemetry) {
        let t = engine.telemetry();
        self.queries += t.queries - before.queries;
        self.hits += t.cache_hits - before.cache_hits;
        self.misses += t.cache_misses - before.cache_misses;
        self.batches += t.batches - before.batches;
        self.wall_ms += t.wall_ms - before.wall_ms;
    }

    /// The counts added since `earlier` was copied from `self`.
    fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            queries: self.queries - earlier.queries,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            batches: self.batches - earlier.batches,
            wall_ms: self.wall_ms - earlier.wall_ms,
        }
    }
}

impl Target {
    /// One untraced call: `serve` on a fixed engine, `serve_pinned` on
    /// the hot-swap server.
    fn serve(&self, wave: &[Query]) -> Result<(u64, Vec<Vec<usize>>), ServeError> {
        match self {
            Target::Engine(g) => Ok((g.id(), g.engine().serve(wave)?)),
            Target::Swap(s) => s.server.serve_pinned(wave),
        }
    }

    /// The generation a call made now is answered by, pinned.
    fn pin(&self) -> Arc<ModelGeneration> {
        match self {
            Target::Engine(g) => Arc::clone(g),
            Target::Swap(s) => s.server.current(),
        }
    }

    /// The model generation `generation` serves, as an index into the
    /// workload's reference tables.
    fn model_of(&self, generation: u64) -> usize {
        match self {
            Target::Engine(_) => 0,
            Target::Swap(s) => (generation.max(1) - 1) as usize % s.models.len(),
        }
    }
}

/// One open-loop request.
struct Request {
    due: Instant,
    start: Instant,
    end: Instant,
    /// The generator was idle and woke for this request, so
    /// `start - due` is its own lateness rather than queueing.
    woke: bool,
}

/// Drives the target and checks every answer.
struct Client<'a> {
    target: &'a Target,
    work: &'a Workload,
    cursor: usize,
    attempted: u64,
    failed: u64,
    /// When each generation first answered.
    first_seen: HashMap<u64, Instant>,
    /// What the answering engines counted during traced calls.
    totals: Totals,
}

impl Client<'_> {
    fn next_wave(&mut self, n: usize) -> (usize, Vec<Query>) {
        let len = self.work.stream.len();
        let start = self.cursor;
        self.cursor = (self.cursor + n) % len;
        let wave = (0..n)
            .map(|j| self.work.stream[(start + j) % len].clone())
            .collect();
        (start, wave)
    }

    /// One call; returns its start and end. A traced call pins the
    /// answering generation itself, as `serve_pinned` does, and reads its
    /// engine's counters on either side of the timed span.
    fn call(&mut self, n: usize, traced: bool) -> (Instant, Instant) {
        let (first, wave) = self.next_wave(n);
        let (start, got, end) = if traced {
            let pinned = self.target.pin();
            let engine = pinned.engine();
            let before = engine.telemetry();
            let start = Instant::now();
            let got = engine.serve(&wave).map(|a| (pinned.id(), a));
            let end = Instant::now();
            self.totals.add_since(engine, &before);
            (start, got, end)
        } else {
            let start = Instant::now();
            let got = self.target.serve(&wave);
            (start, got, Instant::now())
        };
        self.attempted += n as u64;
        match got {
            Ok((generation, answers)) => {
                self.first_seen.entry(generation).or_insert(end);
                let model = &self.work.refs[self.target.model_of(generation)];
                let len = self.work.stream.len();
                let wrong = answers
                    .iter()
                    .enumerate()
                    .filter(|(j, a)| **a != model[self.work.ref_of[(first + j) % len]])
                    .count();
                self.failed += wrong as u64 + (n - answers.len().min(n)) as u64;
            }
            Err(_) => self.failed += n as u64,
        }
        (start, end)
    }

    /// Back-to-back calls of `wave` queries for `dur`, after a warm-up
    /// tenth; returns the median queries per second over `SLICE`-long
    /// slices, so a burst of interference on a shared host moves the
    /// figure only as far as it moves the median slice. A traced run
    /// alternates untraced slices with slices of traced calls and returns
    /// both medians (untraced, traced), so drift over the phase cancels
    /// out of their ratio.
    fn closed_loop(&mut self, dur: Duration, wave: usize, trace: bool) -> (f64, f64) {
        const SLICE: Duration = Duration::from_millis(50);
        let begin = Instant::now();
        while begin.elapsed() < dur / 10 {
            self.call(wave, false);
        }
        let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut traced = false;
        while begin.elapsed() < dur {
            let slice = Instant::now();
            let mut queries = 0;
            while slice.elapsed() < SLICE {
                self.call(wave, traced);
                queries += wave;
            }
            rates[usize::from(traced)].push(queries as f64 / slice.elapsed().as_secs_f64());
            traced = trace && !traced;
        }
        (median(&rates[0]), median(&rates[1]))
    }

    /// Requests of `size` queries due every `1 / rate` seconds for `dur`.
    fn open_loop(&mut self, dur: Duration, size: usize, rate: f64, trace: bool) -> Vec<Request> {
        let interval = Duration::from_secs_f64(1.0 / rate);
        let begin = Instant::now() + interval;
        let count = (dur.as_secs_f64() * rate) as usize;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let due = begin + interval * i as u32;
            let woke = Instant::now() < due;
            wait_until(due);
            let (start, end) = self.call(size, trace);
            out.push(Request {
                due,
                start,
                end,
                woke,
            });
        }
        out
    }
}

/// Mean recall@k of `approx` against `exact`.
fn recall(exact: &[Vec<usize>], approx: &[Vec<usize>]) -> f64 {
    let per: Vec<f64> = exact
        .iter()
        .zip(approx)
        .filter(|(e, _)| !e.is_empty())
        .map(|(e, a)| e.iter().filter(|t| a.contains(t)).count() as f64 / e.len() as f64)
        .collect();
    if per.is_empty() {
        1.0
    } else {
        mean(&per)
    }
}

/// The exhaustive sequential answer to `q`.
fn exact(rec: &Recommender, q: &Query) -> Result<Vec<usize>, String> {
    rec.recommend_excluding(&q.recent, q.k, &q.exclude)
        .map_err(|e| format!("reference: {e}"))
}

fn plain_or_excluding(recent: Vec<usize>, exclude: bool) -> Query {
    if exclude {
        Query::with_exclusions(recent.clone(), TOP_K, recent)
    } else {
        Query::new(recent, TOP_K)
    }
}

// ---------------------------------------------------------------- dense

const DENSE_DIM: usize = 50;
const DENSE_STREAM: usize = 32_768;

fn dense_config() -> ServeConfig {
    ServeConfig {
        max_batch: 32,
        workers: worker_threads(),
        cache_capacity: 4096,
        ann: None,
    }
}

/// Set-up of `serve_dense`: the medium world and a 600-location model.
fn dense_setup(seed: u64) -> Result<(PreparedData, BatchEngine), String> {
    let prep = PreparedData::generate(&ExperimentConfig::medium(WORLD_SEED))
        .map_err(|e| format!("prepare data: {e}"))?;
    let mut rng = StdRng::seed_from_u64(Rng64::new(seed, 0xD3).next_u64());
    let params =
        ModelParams::init(&mut rng, prep.vocab_size(), DENSE_DIM).map_err(|e| e.to_string())?;
    let engine =
        BatchEngine::new(Recommender::new(&params), dense_config()).map_err(|e| e.to_string())?;
    Ok((prep, engine))
}

/// A stream of `len` queries: half Zipf-popular picks from `pool` (cache
/// hits once warm), half fresh queries from `fresh` (misses). Returns the
/// stream, each entry's index into the distinct queries, and the distinct
/// queries (the pool first).
fn zipf_mix(
    rng: &mut Rng64,
    pool: Vec<Query>,
    len: usize,
    mut fresh: impl FnMut(&mut Rng64) -> Query,
) -> (Vec<Query>, Vec<usize>, Vec<Query>) {
    let pool_len = pool.len();
    let mut distinct = pool;
    let mut stream = Vec::with_capacity(len);
    let mut ref_of = Vec::with_capacity(len);
    for _ in 0..len {
        let slot = if rng.unit() < 0.5 {
            rng.zipf(pool_len)
        } else {
            distinct.push(fresh(rng));
            distinct.len() - 1
        };
        stream.push(distinct[slot].clone());
        ref_of.push(slot);
    }
    (stream, ref_of, distinct)
}

/// Leave-one-out test histories in a seeded popularity order, mixed
/// with fresh histories: a trial with one or two random locations
/// appended.
fn dense_workload(seed: u64, prep: &PreparedData, rec: &Recommender) -> Result<Workload, String> {
    let trials = leave_one_out_trials(&prep.test);
    if trials.is_empty() {
        return Err("the test split has no trials".to_string());
    }
    let vocab = rec.vocab_size();
    let mut rng = Rng64::new(seed, 0xD5);
    let mut order: Vec<usize> = (0..trials.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let pool = order
        .iter()
        .enumerate()
        .map(|(i, &t)| plain_or_excluding(trials[t].0.to_vec(), i % 2 == 1))
        .collect();
    let (stream, ref_of, distinct) = zipf_mix(&mut rng, pool, DENSE_STREAM, |rng| {
        let mut recent = trials[rng.below(trials.len())].0.to_vec();
        for _ in 0..1 + rng.below(2) {
            recent.push(rng.below(vocab));
        }
        plain_or_excluding(recent, rng.unit() < 0.5)
    });
    let (refs, ms) = timed(|| {
        distinct
            .iter()
            .map(|q| exact(rec, q))
            .collect::<Result<Vec<_>, _>>()
    });
    Ok(Workload {
        stream,
        ref_of,
        refs: vec![refs?],
        score_us: ms * 1e3 / distinct.len() as f64,
        // The exhaustive engine is the exact scan.
        quality: 1.0,
    })
}

// ----------------------------------------------------------------- city

const CITY_DIM: usize = 32;
const CITY_STREAM: usize = 16_384;
const CITY_EXACT_SAMPLE: usize = 256;

fn city_config() -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        workers: worker_threads(),
        cache_capacity: 4096,
        ann: Some(AnnConfig {
            cells: 512,
            nprobe: 8,
            kmeans_iters: 4,
            kmeans_sample: 25_000,
            seed: 0x1F,
            build_threads: worker_threads(),
            quantized: true,
            overfetch: 4,
        }),
    }
}

/// A serving-shaped embedding over the city: one random unit direction
/// per neighbourhood cluster, each POI its cluster's direction plus
/// jitter, rows normalised — the geography skip-gram training learns, so
/// the IVF cells have real structure.
fn city_embedding(world: &SyntheticGenerator, seed: u64) -> Matrix {
    let clusters: Vec<usize> = (0..world.pois().len())
        .map(|p| world.cluster_of(p).unwrap_or(0))
        .collect();
    let n_clusters = clusters.iter().max().map_or(1, |c| c + 1);
    let mut rng = Rng64::new(seed, 0xC1);
    let dirs: Vec<f64> = (0..n_clusters * CITY_DIM).map(|_| rng.gauss()).collect();
    let mut m = Matrix::zeros(clusters.len(), CITY_DIM);
    for (p, &c) in clusters.iter().enumerate() {
        for (d, slot) in m.row_mut(p).iter_mut().enumerate() {
            *slot = dirs[c * CITY_DIM + d] + 0.25 * rng.gauss();
        }
    }
    m.normalize_rows();
    m
}

/// Set-up of `serve_city`: the 100k-location world, its embedding and
/// the quantized IVF engine (the index build is timed on its own).
fn city_setup() -> Result<(SyntheticGenerator, BatchEngine, f64), String> {
    let mut rng = StdRng::seed_from_u64(Rng64::new(WORLD_SEED, 0xC17).next_u64());
    let world =
        SyntheticGenerator::new(&mut rng, GeneratorConfig::city()).map_err(|e| e.to_string())?;
    let rec = Recommender::from_embedding(city_embedding(&world, WORLD_SEED))
        .map_err(|e| e.to_string())?;
    let (engine, build_ms) = timed(|| BatchEngine::new(rec, city_config()));
    Ok((world, engine.map_err(|e| e.to_string())?, build_ms))
}

/// Cluster-local histories of 2–5 POIs, half with exclusions; all
/// distinct within the stream, which is longer than the cache.
fn city_workload(
    seed: u64,
    world: &SyntheticGenerator,
    fresh: &BatchEngine,
) -> Result<Workload, String> {
    let mut members: Vec<Vec<usize>> = Vec::new();
    for p in 0..world.pois().len() {
        let c = world.cluster_of(p).unwrap_or(0);
        if c >= members.len() {
            members.resize(c + 1, Vec::new());
        }
        members[c].push(p);
    }
    members.retain(|m| !m.is_empty());
    let mut rng = Rng64::new(seed, 0xC5);
    let stream: Vec<Query> = (0..CITY_STREAM)
        .map(|i| {
            let cluster = &members[rng.below(members.len())];
            let recent = (0..2 + rng.below(4))
                .map(|_| cluster[rng.below(cluster.len())])
                .collect();
            plain_or_excluding(recent, i % 2 == 1)
        })
        .collect();
    // Reference: a second, freshly built engine of the same config.
    let refs: Vec<Vec<usize>> = stream
        .chunks(256)
        .map(|w| fresh.serve(w))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?
        .concat();
    // Sequential cost: the same IVF search one query at a time.
    let rec = fresh.recommender();
    let (index, quant) = match (fresh.ann_index(), fresh.ann_quant()) {
        (Some(i), Some(q)) => (i, q),
        _ => return Err("city engine has no quantized index".to_string()),
    };
    let ann = city_config().ann.expect("ann config");
    let mut scratch = RecommendScratch::new();
    let sample = &stream[..LAYER_SAMPLE];
    let (seq, ms) = timed(|| {
        sample
            .iter()
            .map(|q| {
                rec.recommend_indexed_quantized_into(
                    index,
                    quant,
                    &q.recent,
                    q.k,
                    &q.exclude,
                    ann.nprobe,
                    ann.overfetch,
                    &mut scratch,
                )
                .map(|(r, _)| r)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let seq = seq.map_err(|e| e.to_string())?;
    if seq[..] != refs[..LAYER_SAMPLE] {
        return Err("sequential IVF search disagrees with the engine".to_string());
    }
    let exhaustive = stream[..CITY_EXACT_SAMPLE]
        .iter()
        .map(|q| exact(rec, q))
        .collect::<Result<Vec<_>, _>>()?;
    let quality = recall(&exhaustive, &refs[..CITY_EXACT_SAMPLE]);
    Ok(Workload {
        ref_of: (0..stream.len()).collect(),
        stream,
        refs: vec![refs],
        score_us: ms * 1e3 / LAYER_SAMPLE as f64,
        quality,
    })
}

// ----------------------------------------------------------------- swap

const SWAP_VOCAB: usize = 10_000;
const SWAP_DIM: usize = 16;
/// Distinct models cycled through the published generations.
const SWAP_MODELS: usize = 4;
const SWAP_POOL: usize = 2048;
const SWAP_STREAM: usize = 32_768;
/// Time between publishes.
const PUBLISH_EVERY: Duration = Duration::from_millis(500);

fn swap_config() -> ServeConfig {
    ServeConfig {
        max_batch: 32,
        workers: worker_threads(),
        cache_capacity: 2048,
        ann: Some(AnnConfig {
            cells: 32,
            nprobe: 8,
            kmeans_iters: 4,
            kmeans_sample: SWAP_VOCAB,
            seed: 0x33,
            build_threads: worker_threads(),
            quantized: false,
            overfetch: 4,
        }),
    }
}

/// Set-up of `serve_swap`: the model generations, generation 1
/// published, loaded (open, validate, map, index build) and serving.
fn swap_setup(seed: u64) -> Result<Swap, String> {
    let models: Vec<Recommender> = (0..SWAP_MODELS as u64)
        .map(|m| {
            let mut rng = StdRng::seed_from_u64(Rng64::new(seed, 0x5A + m).next_u64());
            ModelParams::init(&mut rng, SWAP_VOCAB, SWAP_DIM).map(|p| Recommender::new(&p))
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let dir = TempDir::new("swap")?;
    let cfg = swap_config();
    let path = publish_generation(&dir.0, models[0].embedding(), 1).map_err(|e| e.to_string())?;
    let first = ModelGeneration::load(&path, cfg).map_err(|e| e.to_string())?;
    Ok(Swap {
        server: Arc::new(HotSwapServer::new(first)),
        dir,
        cfg,
        models: Arc::new(models),
    })
}

/// Uniform random histories of 1–4 locations, half with exclusions:
/// Zipf-popular picks from a pool mixed with fresh ones.
fn swap_workload(seed: u64, swap: &Swap) -> Result<Workload, String> {
    let mut rng = Rng64::new(seed, 0x5B);
    let random_query = |rng: &mut Rng64| {
        let recent = (0..1 + rng.below(4))
            .map(|_| rng.below(SWAP_VOCAB))
            .collect();
        plain_or_excluding(recent, rng.unit() < 0.5)
    };
    let pool = (0..SWAP_POOL).map(|_| random_query(&mut rng)).collect();
    let (stream, ref_of, distinct) = zipf_mix(&mut rng, pool, SWAP_STREAM, random_query);
    // Per-model reference: the sequential IVF search over an index built
    // the way every generation builds its own.
    let ann = swap.cfg.ann.expect("ann config");
    let params = IvfBuildParams {
        cells: ann.cells,
        iters: ann.kmeans_iters,
        sample: ann.kmeans_sample,
        seed: ann.seed,
        threads: ann.build_threads,
    };
    let mut refs = Vec::new();
    let mut seq_ms = 0.0;
    let mut scratch = RecommendScratch::new();
    for rec in swap.models.iter() {
        let index = rec.build_index(&params).map_err(|e| e.to_string())?;
        let (answers, ms) = timed(|| {
            distinct
                .iter()
                .map(|q| {
                    rec.recommend_indexed_into(
                        &index,
                        &q.recent,
                        q.k,
                        &q.exclude,
                        ann.nprobe,
                        &mut scratch,
                    )
                })
                .collect::<Result<Vec<_>, _>>()
        });
        refs.push(answers.map_err(|e| e.to_string())?);
        seq_ms += ms;
    }
    let sample = &distinct[..SWAP_POOL];
    let exhaustive = sample
        .iter()
        .map(|q| exact(&swap.models[0], q))
        .collect::<Result<Vec<_>, _>>()?;
    let quality = recall(&exhaustive, &refs[0][..SWAP_POOL]);
    Ok(Workload {
        stream,
        ref_of,
        refs,
        score_us: seq_ms * 1e3 / (distinct.len() * SWAP_MODELS) as f64,
        quality,
    })
}

/// One publish → swap cycle, as the publisher saw it.
struct SwapEvent {
    generation: u64,
    publish_at: Instant,
    /// When the publisher finished with this generation: swapped in,
    /// (traced) re-opened, and the stale bundle removed.
    settled_at: Instant,
    publish_ms: f64,
    poll_ms: f64,
    build_ms: f64,
    open_ms: f64,
}

struct PublisherLog {
    events: Vec<SwapEvent>,
    rejected: u64,
    failed: u64,
}

/// The publisher thread: every `PUBLISH_EVERY`, publishes the next
/// generation and polls the watcher until it has swapped it in. In a
/// traced run it also times opening and validating the new bundle.
fn spawn_publisher(swap: &Swap, stop: Arc<AtomicBool>, trace: bool) -> JoinHandle<PublisherLog> {
    let dir = swap.dir.0.clone();
    let server = Arc::clone(&swap.server);
    let models = Arc::clone(&swap.models);
    let watcher = GenerationWatcher::new(
        &dir,
        swap.cfg,
        Arc::clone(&server),
        plp_obs::Observer::disabled(),
    );
    std::thread::spawn(move || {
        let mut log = PublisherLog {
            events: Vec::new(),
            rejected: 0,
            failed: 0,
        };
        let mut next_at = Instant::now() + PUBLISH_EVERY;
        let mut generation = server.generation();
        while !stop.load(Ordering::Relaxed) {
            if Instant::now() < next_at {
                std::thread::sleep(Duration::from_millis(2).min(next_at - Instant::now()));
                continue;
            }
            next_at += PUBLISH_EVERY;
            generation += 1;
            let model = &models[(generation - 1) as usize % models.len()];
            let publish_at = Instant::now();
            let (published, publish_ms) =
                timed(|| publish_generation(&dir, model.embedding(), generation));
            let Ok(path) = published else {
                log.failed += 1;
                continue;
            };
            let poll_start = Instant::now();
            let outcome = loop {
                match watcher.poll_once() {
                    SwapOutcome::Unchanged => std::thread::yield_now(),
                    other => break other,
                }
            };
            let poll_ms = ms_since(poll_start);
            let build_ms = match outcome {
                SwapOutcome::Swapped { to, build_ms, .. } if to == generation => build_ms,
                SwapOutcome::Rejected { .. } => {
                    log.rejected += 1;
                    continue;
                }
                _ => {
                    log.failed += 1;
                    continue;
                }
            };
            let open_ms = if trace {
                timed(|| PlpsSnapshot::open(&path).and_then(|s| s.validate())).1
            } else {
                0.0
            };
            // Bundles two generations back no longer back a live engine's
            // pointer; mapped ones stay readable until unmapped.
            if generation > 2 {
                let _ = std::fs::remove_file(
                    dir.join(plp_serve::swap::generation_file_name(generation - 2)),
                );
            }
            log.events.push(SwapEvent {
                generation,
                publish_at,
                settled_at: Instant::now(),
                publish_ms,
                poll_ms,
                build_ms,
                open_ms,
            });
        }
        log
    })
}

// ------------------------------------------------------------------ run

/// A serving workload ready to measure.
struct Prepared {
    shape: Shape,
    target: Target,
    work: Workload,
    /// Index build time (`serve_city`), milliseconds.
    build_ms: f64,
    /// Wall time of each set-up, seconds.
    setup_s: Vec<f64>,
}

/// Sets workload `name` up `SETUPS` times (`CITY_SETUPS` for the city)
/// and builds its query stream and reference answers.
fn prepare(name: &str, seed: u64) -> Result<Prepared, String> {
    match name {
        "serve_dense" => {
            let (mut kept, setup_s) = repeat_setup(SETUPS, 1, || dense_setup(seed))?;
            let (prep, engine) = kept.remove(0);
            Ok(Prepared {
                work: dense_workload(seed, &prep, engine.recommender())?,
                shape: Shape {
                    closed_wave: 256,
                    open_request: 64,
                    open_rate: 200.0,
                },
                target: Target::Engine(Arc::new(ModelGeneration::from_engine(engine))),
                build_ms: 0.0,
                setup_s,
            })
        }
        "serve_city" => {
            // The first engine serves; the second, built the same way,
            // answers the reference.
            let (mut kept, setup_s) = repeat_setup(CITY_SETUPS, 2, city_setup)?;
            let (world, fresh, fresh_ms) = kept.pop().expect("two set-ups");
            let (_, engine, build_ms) = kept.pop().expect("two set-ups");
            let work = city_workload(seed, &world, &fresh)?;
            Ok(Prepared {
                work,
                shape: Shape {
                    closed_wave: 64,
                    open_request: 16,
                    open_rate: 200.0,
                },
                target: Target::Engine(Arc::new(ModelGeneration::from_engine(engine))),
                build_ms: (build_ms + fresh_ms) / 2.0,
                setup_s,
            })
        }
        "serve_swap" => {
            // Later set-ups are timed only; their directories go.
            let (mut kept, setup_s) = repeat_setup(SETUPS, 1, || swap_setup(seed))?;
            let swap = kept.remove(0);
            Ok(Prepared {
                work: swap_workload(seed, &swap)?,
                shape: Shape {
                    closed_wave: 256,
                    open_request: 64,
                    open_rate: 100.0,
                },
                target: Target::Swap(swap),
                build_ms: 0.0,
                setup_s,
            })
        }
        _ => Err(format!("unknown serving workload {name}")),
    }
}

/// Runs serving workload `name`, filling `report`.
pub fn run(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let Prepared {
        shape,
        target,
        work,
        build_ms,
        setup_s,
    } = prepare(name, seed)?;

    let stop = Arc::new(AtomicBool::new(false));
    let publisher = match &target {
        Target::Swap(s) => Some(spawn_publisher(s, Arc::clone(&stop), trace)),
        Target::Engine(_) => None,
    };
    let mut client = Client {
        target: &target,
        work: &work,
        cursor: 0,
        attempted: 0,
        failed: 0,
        first_seen: HashMap::new(),
        totals: Totals::default(),
    };
    let total = Duration::from_secs(seconds);
    let closed = total.mul_f64(CLOSED_SHARE);
    let clock = CpuClock::start();
    let (qps, traced_qps) = client.closed_loop(closed, shape.closed_wave, trace);
    let before_open = client.totals;
    let requests = client.open_loop(total - closed, shape.open_request, shape.open_rate, trace);
    let open = client.totals.since(&before_open);
    let (cpu_s, cpu_util) = clock.stop();
    stop.store(true, Ordering::Relaxed);
    let log = match publisher {
        Some(h) => Some(
            h.join()
                .map_err(|_| "publisher thread panicked".to_string())?,
        ),
        None => None,
    };
    let (attempted, failed) = (client.attempted, client.failed);
    let first_seen = std::mem::take(&mut client.first_seen);
    report.ops(attempted, failed, "served answers equal the reference");
    if let Some(log) = &log {
        report.ops(
            log.events.len() as u64 + log.rejected + log.failed,
            log.rejected + log.failed,
            "every publish swaps in its generation",
        );
        report.ops(
            1,
            u64::from(log.events.is_empty()),
            "a generation is swapped in during the run",
        );
    }

    // Swap windows: publish start to settled. Requests overlapping one
    // are the swap window's; the rest are steady state.
    let windows: Vec<(Instant, Instant)> = log
        .as_ref()
        .map(|l| {
            l.events
                .iter()
                .map(|e| (e.publish_at, e.settled_at))
                .collect()
        })
        .unwrap_or_default();
    let in_window = |r: &Request| windows.iter().any(|&(a, b)| r.due < b && r.end > a);
    let lat = |r: &Request| (r.end - r.due).as_secs_f64() * 1e3;
    let steady: Vec<f64> = requests.iter().filter(|r| !in_window(r)).map(lat).collect();
    let window: Vec<f64> = requests.iter().filter(|r| in_window(r)).map(lat).collect();
    let latency: Vec<f64> = requests.iter().map(lat).collect();
    let wait: Vec<f64> = requests
        .iter()
        .map(|r| (r.start - r.due).as_secs_f64() * 1e3)
        .collect();
    let call: Vec<f64> = requests
        .iter()
        .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
        .collect();
    let late: Vec<f64> = requests
        .iter()
        .filter(|r| r.woke)
        .map(|r| (r.start - r.due).as_secs_f64() * 1e3)
        .collect();

    report.set("setup_s", median(&setup_s));
    report.set("throughput", qps);
    report.set("p50_ms", median(&steady));
    report.set("quality_at_10", work.quality);
    println!(
        "{name}: closed loop {qps:.0} queries/s; open loop {} requests at {}/s, \
         p50 {:.4} ms p99 {:.4} ms; {attempted} answers checked, {failed} wrong",
        requests.len(),
        shape.open_rate,
        median(&steady),
        quantile(&steady, 0.99),
    );
    if !trace {
        return Ok(());
    }

    let life = client.totals;
    let open_scored_ms = open.misses as f64 * work.score_us / 1e3;
    report.set("model.score_us_per_query", work.score_us);
    report.set(
        "serve.dispatch_share",
        1.0 - open_scored_ms / call.iter().sum::<f64>(),
    );
    report.set("serve.p99_ms", quantile(&steady, 0.99));
    report.set("serve.call_p50_ms", quantile(&call, 0.5));
    report.set("serve.call_p99_ms", quantile(&call, 0.99));
    report.set("serve.queue_wait_p50_ms", quantile(&wait, 0.5));
    report.set("serve.queue_wait_p99_ms", quantile(&wait, 0.99));
    report.set(
        "serve.batch_queries",
        life.misses as f64 / life.batches.max(1) as f64,
    );
    report.set(
        "serve.cache_hit_rate",
        life.hits as f64 / life.queries.max(1) as f64,
    );
    report.set(
        "serve.unaccounted_share",
        1.0 - (wait.iter().sum::<f64>() + open.wall_ms) / latency.iter().sum::<f64>(),
    );
    report.set("proc.cpu_s", cpu_s);
    report.set("proc.cpu_util", cpu_util);
    report.set("gen.late_p99_ms", quantile(&late, 0.99));
    report.set("trace.overhead_share", qps / traced_qps - 1.0);
    if let Target::Engine(generation) = &target {
        let engine = generation.engine();
        if engine.ann_index().is_some() {
            report.set("ivf.build_ms", build_ms);
            // Lifetime counters of the one engine: every call scored there.
            let (candidates, shortlisted) = engine.quant_totals();
            let misses = engine.telemetry().cache_misses;
            report.set(
                "ivf.candidates_per_query",
                candidates as f64 / misses.max(1) as f64,
            );
            report.set(
                "ivf.shortlist_ratio",
                shortlisted as f64 / candidates.max(1) as f64,
            );
            layer_timings(engine, &work, report)?;
        }
    }
    if let (Target::Swap(swap), Some(log)) = (&target, &log) {
        let ev = &log.events;
        let pick = |f: fn(&SwapEvent) -> f64| median(&ev.iter().map(f).collect::<Vec<_>>());
        let to_serve: Vec<f64> = ev
            .iter()
            .filter_map(|e| {
                first_seen
                    .get(&e.generation)
                    .map(|t| t.saturating_duration_since(e.publish_at).as_secs_f64() * 1e3)
            })
            .collect();
        report.set("ivf.build_ms", pick(|e| e.build_ms));
        report.set("swap.publish_ms", pick(|e| e.publish_ms));
        report.set("swap.poll_ms", pick(|e| e.poll_ms));
        report.set("plps.open_ms", pick(|e| e.open_ms));
        report.set("swap.count", ev.len() as f64);
        report.set("swap.rejected", log.rejected as f64);
        report.set("swap.p99_window_ms", quantile(&window, 0.99));
        report.set("swap.publish_to_serve_ms", median(&to_serve));
        let generation = swap.server.current();
        layer_timings(generation.engine(), &work, report)?;
    }
    Ok(())
}

/// Times the IVF layer's two stages — `probe_cells` and the (quantized
/// or exact) re-rank — one query at a time over the stream's first
/// `LAYER_SAMPLE` queries on `engine`'s own index.
fn layer_timings(engine: &BatchEngine, work: &Workload, report: &mut Report) -> Result<(), String> {
    let (Some(index), Some(ann)) = (engine.ann_index(), engine.config().ann) else {
        return Ok(());
    };
    let rec = engine.recommender();
    let mut scratch = IvfScratch::new();
    let mut profile = vec![0.0; rec.dim()];
    let mut out = Vec::new();
    let (mut probe_ms, mut rerank_ms) = (0.0, 0.0);
    let sample = &work.stream[..LAYER_SAMPLE.min(work.stream.len())];
    for q in sample {
        rec.profile_into(&q.recent, &mut profile)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        index
            .probe_cells(&profile, ann.nprobe, &mut scratch)
            .map_err(|e| e.to_string())?;
        probe_ms += ms_since(t);
        let t = Instant::now();
        match engine.ann_quant() {
            Some(quant) => {
                index
                    .rerank_probed_quantized(
                        quant,
                        rec.embedding(),
                        &profile,
                        q.k,
                        ann.overfetch,
                        &q.exclude,
                        &mut scratch,
                        &mut out,
                    )
                    .map_err(|e| e.to_string())?;
            }
            None => index.rerank_probed(
                rec.embedding(),
                &profile,
                q.k,
                &q.exclude,
                &mut scratch,
                &mut out,
            ),
        }
        rerank_ms += ms_since(t);
    }
    let n = sample.len().max(1) as f64;
    report.set("ivf.probe_us", probe_ms * 1e3 / n);
    report.set("ivf.rerank_us", rerank_ms * 1e3 / n);
    Ok(())
}
