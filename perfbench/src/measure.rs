//! Measurement helpers shared by every workload: the seeded input
//! stream, order statistics, process counters read from `/proc`, and the
//! host/build fingerprint.

use std::time::{Duration, Instant};

/// Seed of the synthetic worlds. They stand in for the paper's fixed
/// check-in dataset, so they are the same in every run; `--seed` drives
/// everything a run draws — model initialisation, the training run's
/// sampling and noise, and the query streams.
pub const WORLD_SEED: u64 = 42;

/// SplitMix64: the benchmark's own input generator, so the query streams
/// depend on `--seed` alone and never on the program's RNG scheme.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// A stream for `seed` in the named `domain`.
    pub fn new(seed: u64, domain: u64) -> Self {
        let mut r = Rng64(seed ^ domain.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller).
    pub fn gauss(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A Zipf(1)-distributed rank in `[0, n)`: rank `r` has weight
    /// `1 / (r + 1)`. Inverse-CDF on the harmonic series, approximated by
    /// `exp(u · ln(n + 1)) - 1`.
    pub fn zipf(&mut self, n: usize) -> usize {
        let x = (self.unit() * ((n + 1) as f64).ln()).exp() - 1.0;
        (x as usize).min(n - 1)
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// Runs `setup` `n` times, timing each run, and keeps the first `keep`
/// results; returns them with every run's wall time in seconds.
pub fn repeat_setup<T>(
    n: usize,
    keep: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, Vec<f64>), String> {
    let mut kept = Vec::with_capacity(keep);
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n {
        let (built, ms) = timed(&mut setup);
        secs.push(ms / 1e3);
        let built = built?;
        if kept.len() < keep {
            kept.push(built);
        }
    }
    Ok((kept, secs))
}

/// Waits until `due`: sleeps while more than `SPIN` remains, then spins,
/// so an open-loop request starts close to its due time without a core
/// burnt for the whole gap.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process so far (all
/// threads), from `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// CPU and wall time of one measured phase.
pub struct CpuClock {
    cpu0: f64,
    wall0: Instant,
}

impl CpuClock {
    /// Starts the clock.
    pub fn start() -> Self {
        CpuClock {
            cpu0: cpu_seconds(),
            wall0: Instant::now(),
        }
    }

    /// `(cpu_s, cpu_s / wall_s)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        let cpu = cpu_seconds() - self.cpu0;
        let wall = self.wall0.elapsed().as_secs_f64();
        (cpu, if wall > 0.0 { cpu / wall } else { 0.0 })
    }
}

/// Worker threads the benchmark allows any engine or trainer: the host's
/// `available_parallelism`, capped at 2 so runs on larger hosts load the
/// program the same way.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    })
}

/// The source commit, read from `.git` in the working directory when
/// there is one (a plain source checkout has none).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{reference}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build fingerprint printed beside every result.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> serde_json::Value {
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    serde_json::json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "available_parallelism": parallelism,
        "cpu_model": first_line_with("/proc/cpuinfo", "model name")
            .unwrap_or_else(|| "unknown".to_string()),
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        "rustc": env!("PERFBENCH_RUSTC"),
        "commit": git_commit(),
        "kernel_scheme_version": plp_core::checkpoint::KERNEL_SCHEME_VERSION,
        "rng_scheme_version": plp_core::checkpoint::RNG_SCHEME_VERSION,
        "engine_workers": worker_threads(),
        "train_threads": worker_threads(),
    })
}
