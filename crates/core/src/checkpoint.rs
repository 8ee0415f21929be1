//! Crash-safe training checkpoints (`PLPC` format).
//!
//! A [`TrainingCheckpoint`] captures everything a private training run
//! needs to resume bit-identically after a crash: the model parameters and
//! the server-optimizer state (Adam's moment estimates included), each as
//! an embedded PLPS image ([`plp_model::plps::encode_params`]), plus the
//! auditable privacy ledger, the run seed and the number of completed
//! steps.
//!
//! Integrity and safety properties:
//! * **Versioned**: a magic/version header rejects foreign or future files.
//! * **Config-fingerprinted**: the header carries a fingerprint of the
//!   hyper-parameters (and vocabulary size) that produced it; a resumed
//!   run refuses to start under a different configuration, because mixing
//!   configurations would silently invalidate both the model and the
//!   privacy accounting.
//! * **CRC-terminated**: a CRC-32 footer over the whole payload detects
//!   truncated or bit-flipped files before any field is trusted. It covers
//!   the embedded PLPS images too, so their body CRCs are not re-checked.
//! * **Atomically written**: [`save_checkpoint`] writes to a temporary
//!   file, fsyncs it, then renames over the destination, so a crash
//!   mid-write never destroys the previous good checkpoint.
//!
//! The privacy ledger inside the checkpoint is the source of truth for ε:
//! resuming rebuilds the moments accountant from the ledger entries
//! rather than trusting any cached ε value.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use plp_data::frame::{checked_frame_len, crc32};
use plp_model::optimizer::{ServerAdam, ServerSgd};
use plp_model::params::ModelParams;
use plp_model::plps::{self, PlpsSnapshot};
use plp_privacy::accountant::LedgerEntry;
use plp_privacy::PrivacyLedger;

use crate::config::Hyperparameters;
use crate::error::CoreError;

const MAGIC: &[u8; 4] = b"PLPC";
/// Format version 4: parameters and Adam moments are embedded PLPS images.
/// Version 3 carried them in the retired length-prefixed tensor codec,
/// which this build no longer reads. Version 3 itself moved the linalg
/// reduction kernels to eight accumulator lanes (see `plp_linalg::ops`)
/// from version 2's four, changing every trained bit stream, and version 2
/// replaced version 1's sequential noise sampler with counter-based
/// per-row streams. Every older version is refused outright with an
/// explanatory restart-from-scratch error.
const VERSION: u8 = 4;

/// Version of the noise-RNG scheme, folded into [`config_fingerprint`]:
/// any future change to how per-step noise is derived (stream seeding,
/// domains, bias chunking) must bump this so old checkpoints cannot
/// silently resume onto a different noise trajectory.
pub const RNG_SCHEME_VERSION: u64 = 2;

/// Version of the dense-kernel reduction scheme, folded into
/// [`config_fingerprint`] exactly like [`RNG_SCHEME_VERSION`]: the unrolled
/// lane count of `plp_linalg::ops` fixes the floating-point reduction order
/// of every dot product and norm, so changing it (scheme 1 = four lanes,
/// scheme 2 = eight lanes) forks the bit stream of every trained model.
/// Any future kernel-order change must bump this so old checkpoints cannot
/// silently resume under a different reduction order.
pub const KERNEL_SCHEME_VERSION: u64 = 2;

/// Server-optimizer state as stored in a checkpoint.
// A checkpoint holds exactly one of these, so the Sgd/Adam size gap is
// irrelevant; boxing the moment tensors would only complicate the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ServerState {
    /// Plain averaging server (stateless beyond its rate).
    Sgd {
        /// Server learning rate.
        learning_rate: f64,
    },
    /// DP-Adam with its full moment state.
    Adam {
        /// Step size α.
        learning_rate: f64,
        /// First-moment decay β₁.
        beta1: f64,
        /// Second-moment decay β₂.
        beta2: f64,
        /// Numerical-stability constant ε.
        eps: f64,
        /// Steps taken (drives bias correction).
        t: u64,
        /// First-moment estimate.
        m: ModelParams,
        /// Second-moment estimate.
        v: ModelParams,
    },
}

impl ServerState {
    /// Captures the state of a live optimizer.
    pub fn of_sgd(sgd: &ServerSgd) -> Self {
        ServerState::Sgd {
            learning_rate: sgd.learning_rate,
        }
    }

    /// Captures the state of a live Adam optimizer.
    pub fn of_adam(adam: &ServerAdam) -> Self {
        let (t, m, v) = adam.state();
        ServerState::Adam {
            learning_rate: adam.learning_rate,
            beta1: adam.beta1,
            beta2: adam.beta2,
            eps: adam.eps,
            t,
            m: m.clone(),
            v: v.clone(),
        }
    }
}

/// Everything needed to resume a private training run bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// Fingerprint of the configuration that produced this checkpoint
    /// (see [`config_fingerprint`]).
    pub fingerprint: u64,
    /// The run's base seed; per-step randomness derives from
    /// `(run_seed, step)`, which is what makes resumption bit-identical.
    pub run_seed: u64,
    /// Completed (and privacy-accounted) steps.
    pub step: u64,
    /// Model parameters after `step` steps.
    pub params: ModelParams,
    /// Server-optimizer state after `step` steps.
    pub server: ServerState,
    /// The auditable privacy ledger — the source of truth for ε.
    pub ledger: PrivacyLedger,
}

/// Fingerprints a training configuration: FNV-1a 64 over the canonical
/// JSON encoding of the hyper-parameters plus the vocabulary size, the
/// noise-RNG scheme version and the dense-kernel scheme version. Any change
/// to one of these yields a different fingerprint, so checkpoints cannot
/// silently resume under mismatched settings.
///
/// `threads` is deliberately normalised out: every phase of the trainer is
/// bit-identical across thread counts (strided partitions with ordered
/// reductions, counter-based noise streams, element-wise server updates),
/// so a run checkpointed at one thread count may resume at another and
/// stay on the exact same trajectory.
///
/// # Errors
/// Propagates (theoretical) serialization failures as [`CoreError::Io`].
pub fn config_fingerprint(hp: &Hyperparameters, vocab_size: usize) -> Result<u64, CoreError> {
    let mut canonical_hp = hp.clone();
    canonical_hp.threads = 1;
    let canonical = serde_json::to_string(&canonical_hp).map_err(|e| CoreError::Io {
        message: e.to_string(),
    })?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(canonical.as_bytes());
    eat(&(vocab_size as u64).to_le_bytes());
    eat(&RNG_SCHEME_VERSION.to_le_bytes());
    eat(&KERNEL_SCHEME_VERSION.to_le_bytes());
    Ok(h)
}

fn put_params(buf: &mut BytesMut, params: &ModelParams) {
    let image = plps::encode_params(params);
    buf.put_u64_le(image.len() as u64);
    buf.put_slice(&image);
}

/// Decodes one length-prefixed PLPS parameter image. Its body CRCs are
/// not re-checked: the checkpoint's CRC footer already covered these bytes.
fn get_params(data: &mut Bytes, what: &'static str) -> Result<ModelParams, CoreError> {
    if data.remaining() < 8 {
        return Err(CoreError::CheckpointCorrupt {
            what: "truncated blob header",
        });
    }
    let len = data.get_u64_le();
    // Shared frame ceiling: a garbled blob length fails explicitly instead
    // of driving a huge slice request.
    let len = checked_frame_len(len).ok_or(CoreError::CheckpointCorrupt {
        what: "blob length over max frame size",
    })?;
    if data.remaining() < len {
        return Err(CoreError::CheckpointCorrupt {
            what: "truncated blob body",
        });
    }
    let image = data.slice(..len).to_vec();
    *data = data.slice(len..);
    PlpsSnapshot::from_bytes(image)
        .and_then(|snap| snap.params())
        .map_err(|_| CoreError::CheckpointCorrupt { what })
}

/// Serializes a checkpoint to its `PLPC` binary form (CRC footer
/// included).
pub fn encode_checkpoint(ckpt: &TrainingCheckpoint) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(ckpt.fingerprint);
    buf.put_u64_le(ckpt.run_seed);
    buf.put_u64_le(ckpt.step);
    put_params(&mut buf, &ckpt.params);
    match &ckpt.server {
        ServerState::Sgd { learning_rate } => {
            buf.put_u8(0);
            buf.put_f64_le(*learning_rate);
        }
        ServerState::Adam {
            learning_rate,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        } => {
            buf.put_u8(1);
            buf.put_f64_le(*learning_rate);
            buf.put_f64_le(*beta1);
            buf.put_f64_le(*beta2);
            buf.put_f64_le(*eps);
            buf.put_u64_le(*t);
            put_params(&mut buf, m);
            put_params(&mut buf, v);
        }
    }
    let entries = ckpt.ledger.entries();
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        buf.put_f64_le(e.q);
        buf.put_f64_le(e.noise_multiplier);
        buf.put_u64_le(e.steps);
    }
    let body = buf.freeze();
    let mut with_crc = BytesMut::with_capacity(body.len() + 4);
    with_crc.put_slice(body.as_ref());
    with_crc.put_u32_le(crc32(body.as_ref()));
    with_crc.freeze()
}

fn get_f64(data: &mut Bytes, what: &'static str) -> Result<f64, CoreError> {
    if data.remaining() < 8 {
        return Err(CoreError::CheckpointCorrupt { what });
    }
    Ok(data.get_f64_le())
}

/// Deserializes and integrity-checks a `PLPC` checkpoint.
///
/// # Errors
/// [`CoreError::CheckpointCorrupt`] on any truncation, bad magic/version,
/// CRC mismatch, malformed tensor, invalid ledger entry, or a step count
/// disagreeing with the ledger.
pub fn decode_checkpoint(data: Bytes) -> Result<TrainingCheckpoint, CoreError> {
    if data.len() < 4 + 1 + 24 + 4 {
        return Err(CoreError::CheckpointCorrupt {
            what: "file shorter than a header",
        });
    }
    let body = data.slice(..data.len() - 4);
    let mut footer = data.slice(data.len() - 4..);
    if footer.get_u32_le() != crc32(body.as_ref()) {
        return Err(CoreError::CheckpointCorrupt {
            what: "CRC mismatch",
        });
    }
    let mut data = body;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CoreError::CheckpointCorrupt { what: "bad magic" });
    }
    match data.get_u8() {
        VERSION => {}
        1 => {
            // A v1 file is structurally readable but semantically dead: its
            // remaining steps were destined for the sequential-noise RNG
            // scheme, which the counter-based streams replaced. Resuming it
            // would fork the noise trajectory, so it gets a distinct error.
            return Err(CoreError::CheckpointCorrupt {
                what: "version 1 checkpoint (sequential-noise RNG scheme) cannot resume \
                       under counter-based noise streams; restart the run from scratch",
            });
        }
        2 => {
            // Same situation for v2: its parameters were trained under the
            // four-lane kernel reduction order, so every dot product of the
            // remaining steps would round differently under the eight-lane
            // kernels. Resuming would fork the bit stream.
            return Err(CoreError::CheckpointCorrupt {
                what: "version 2 checkpoint (four-lane kernel scheme) cannot resume \
                       under eight-lane reduction kernels; restart the run from scratch",
            });
        }
        3 => {
            // v3 tensors use the retired length-prefixed tensor codec; its
            // decoder is gone, so the file cannot be read at all.
            return Err(CoreError::CheckpointCorrupt {
                what: "version 3 checkpoint (length-prefixed tensor codec) cannot be \
                       read now that tensors are PLPS images; restart the run from scratch",
            });
        }
        _ => {
            return Err(CoreError::CheckpointCorrupt {
                what: "unsupported version",
            });
        }
    }
    let fingerprint = data.get_u64_le();
    let run_seed = data.get_u64_le();
    let step = data.get_u64_le();
    let params = get_params(&mut data, "malformed parameter snapshot")?;
    if data.remaining() < 1 {
        return Err(CoreError::CheckpointCorrupt {
            what: "missing server tag",
        });
    }
    let server = match data.get_u8() {
        0 => ServerState::Sgd {
            learning_rate: get_f64(&mut data, "truncated sgd state")?,
        },
        1 => {
            let learning_rate = get_f64(&mut data, "truncated adam state")?;
            let beta1 = get_f64(&mut data, "truncated adam state")?;
            let beta2 = get_f64(&mut data, "truncated adam state")?;
            let eps = get_f64(&mut data, "truncated adam state")?;
            if data.remaining() < 8 {
                return Err(CoreError::CheckpointCorrupt {
                    what: "truncated adam state",
                });
            }
            let t = data.get_u64_le();
            let m = get_params(&mut data, "malformed adam m")?;
            let v = get_params(&mut data, "malformed adam v")?;
            ServerState::Adam {
                learning_rate,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            }
        }
        _ => {
            return Err(CoreError::CheckpointCorrupt {
                what: "unknown server tag",
            })
        }
    };
    if data.remaining() < 4 {
        return Err(CoreError::CheckpointCorrupt {
            what: "truncated ledger header",
        });
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() != n * 24 {
        return Err(CoreError::CheckpointCorrupt {
            what: "ledger length mismatch",
        });
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(LedgerEntry {
            q: data.get_f64_le(),
            noise_multiplier: data.get_f64_le(),
            steps: data.get_u64_le(),
        });
    }
    let ledger =
        PrivacyLedger::from_entries(entries).map_err(|_| CoreError::CheckpointCorrupt {
            what: "invalid ledger entry",
        })?;
    if ledger.total_steps() != step {
        return Err(CoreError::CheckpointCorrupt {
            what: "step count disagrees with ledger",
        });
    }
    Ok(TrainingCheckpoint {
        fingerprint,
        run_seed,
        step,
        params,
        server,
        ledger,
    })
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, then best-effort directory fsync.
///
/// # Errors
/// [`CoreError::Io`] on any filesystem failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CoreError> {
    let io = |e: std::io::Error| CoreError::Io {
        message: e.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    fs::rename(&tmp, path).map_err(io)?;
    // Persisting the rename itself needs a directory fsync; not every
    // platform supports opening a directory, so this part is best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Atomically writes a checkpoint to `path`.
///
/// # Errors
/// [`CoreError::Io`] on filesystem failures.
pub fn save_checkpoint(ckpt: &TrainingCheckpoint, path: &Path) -> Result<(), CoreError> {
    write_atomic(path, encode_checkpoint(ckpt).as_ref())
}

/// Reads and integrity-checks a checkpoint from `path`.
///
/// # Errors
/// [`CoreError::Io`] on filesystem failures, [`CoreError::CheckpointCorrupt`]
/// on a damaged file.
pub fn load_checkpoint(path: &Path) -> Result<TrainingCheckpoint, CoreError> {
    let data = fs::read(path).map_err(|e| CoreError::Io {
        message: e.to_string(),
    })?;
    decode_checkpoint(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_checkpoint(adam: bool) -> TrainingCheckpoint {
        let mut rng = StdRng::seed_from_u64(13);
        let params = ModelParams::init(&mut rng, 9, 4).unwrap();
        let server = if adam {
            let mut p = params.clone();
            let mut opt = ServerAdam::new(&params, 0.01).unwrap();
            let mut dir = ModelParams::zeros(9, 4);
            dir.bias[1] = 0.125;
            opt.step(&mut p, &dir).unwrap();
            ServerState::of_adam(&opt)
        } else {
            ServerState::of_sgd(&ServerSgd::new(0.5).unwrap())
        };
        let mut ledger = PrivacyLedger::new();
        for _ in 0..6 {
            ledger.track(0.06, 2.5).unwrap();
        }
        ledger.track(0.08, 2.5).unwrap();
        TrainingCheckpoint {
            fingerprint: 0xDEAD_BEEF_F00D_CAFE,
            run_seed: 42,
            step: 7,
            params,
            server,
            ledger,
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        for adam in [false, true] {
            let ckpt = sample_checkpoint(adam);
            let back = decode_checkpoint(encode_checkpoint(&ckpt)).unwrap();
            assert_eq!(back, ckpt);
        }
    }

    #[test]
    fn corruption_is_always_detected() {
        let ckpt = sample_checkpoint(true);
        let bytes = encode_checkpoint(&ckpt);
        // Truncation at every plausible boundary.
        for cut in [0, 3, 8, 24, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_checkpoint(bytes.slice(..cut)).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
        // A single flipped bit anywhere trips the CRC.
        for at in [
            0usize,
            4,
            20,
            bytes.len() / 3,
            bytes.len() - 5,
            bytes.len() - 1,
        ] {
            let mut raw = bytes.to_vec();
            raw[at] ^= 0x10;
            assert!(
                decode_checkpoint(Bytes::from(raw)).is_err(),
                "bit flip at {at}"
            );
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version_behind_valid_crc() {
        let ckpt = sample_checkpoint(false);
        let bytes = encode_checkpoint(&ckpt);
        // Re-seal the CRC after tampering so only the semantic check trips.
        let reseal = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut raw = bytes.to_vec();
            raw.truncate(raw.len() - 4);
            mutate(&mut raw);
            let crc = crc32(&raw);
            raw.extend_from_slice(&crc.to_le_bytes());
            decode_checkpoint(Bytes::from(raw))
        };
        assert!(matches!(
            reseal(&|raw| raw[0] = b'X'),
            Err(CoreError::CheckpointCorrupt { what: "bad magic" })
        ));
        assert!(matches!(
            reseal(&|raw| raw[4] = 99),
            Err(CoreError::CheckpointCorrupt {
                what: "unsupported version"
            })
        ));
        // A v1 file (pre counter-based noise streams) gets its own message
        // explaining *why* it cannot resume, not a generic version error.
        let v1 = reseal(&|raw| raw[4] = 1);
        match v1 {
            Err(CoreError::CheckpointCorrupt { what }) => {
                assert!(what.contains("version 1"), "got: {what}");
                assert!(what.contains("counter-based"), "got: {what}");
            }
            other => panic!("v1 checkpoint must be refused, got {other:?}"),
        }
        // Likewise v2 (four-lane kernel reduction order): refused with a
        // restart-from-scratch explanation, not a generic version error.
        let v2 = reseal(&|raw| raw[4] = 2);
        match v2 {
            Err(CoreError::CheckpointCorrupt { what }) => {
                assert!(what.contains("version 2"), "got: {what}");
                assert!(what.contains("four-lane"), "got: {what}");
                assert!(what.contains("restart"), "got: {what}");
            }
            other => panic!("v2 checkpoint must be refused, got {other:?}"),
        }
        // And v3 (tensors in the retired length-prefixed codec).
        let v3 = reseal(&|raw| raw[4] = 3);
        match v3 {
            Err(CoreError::CheckpointCorrupt { what }) => {
                assert!(what.contains("version 3"), "got: {what}");
                assert!(what.contains("PLPS"), "got: {what}");
                assert!(what.contains("restart"), "got: {what}");
            }
            other => panic!("v3 checkpoint must be refused, got {other:?}"),
        }
        // Step count disagreeing with the ledger is rejected too.
        assert!(matches!(
            reseal(&|raw| raw[21] = 200),
            Err(CoreError::CheckpointCorrupt {
                what: "step count disagrees with ledger"
            })
        ));
    }

    #[test]
    fn fingerprint_tracks_config_and_vocab() {
        let hp = Hyperparameters::default();
        let a = config_fingerprint(&hp, 100).unwrap();
        assert_eq!(
            a,
            config_fingerprint(&hp, 100).unwrap(),
            "fingerprint is stable"
        );
        assert_ne!(a, config_fingerprint(&hp, 101).unwrap(), "vocab matters");
        let mut hp2 = hp.clone();
        hp2.noise_multiplier += 0.1;
        assert_ne!(a, config_fingerprint(&hp2, 100).unwrap(), "σ matters");
        let mut hp3 = hp;
        hp3.grouping_factor += 1;
        assert_ne!(a, config_fingerprint(&hp3, 100).unwrap(), "λ matters");
    }

    #[test]
    fn fingerprint_ignores_thread_count() {
        // Every trainer phase is bit-identical across thread counts, so a
        // checkpoint taken at threads=1 must resume at threads=8 (and vice
        // versa) without tripping the configuration check.
        let hp = Hyperparameters::default();
        let a = config_fingerprint(&hp, 100).unwrap();
        // 0 is the auto mode (resolve to available_parallelism); it must be
        // just as fingerprint-neutral as any explicit count.
        for threads in [0usize, 1, 2, 4, 8, 32] {
            let mut hp2 = hp.clone();
            hp2.threads = threads;
            assert_eq!(
                a,
                config_fingerprint(&hp2, 100).unwrap(),
                "threads={threads} must not change the fingerprint"
            );
        }
    }

    #[test]
    fn atomic_save_and_load() {
        let dir = std::env::temp_dir().join("plp_checkpoint_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.plpc");
        let first = sample_checkpoint(false);
        save_checkpoint(&first, &path).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), first);
        // Overwriting is atomic: the new checkpoint replaces the old one
        // and no temp file survives.
        let second = sample_checkpoint(true);
        save_checkpoint(&second, &path).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), second);
        assert!(
            !dir.join("run.plpc.tmp").exists(),
            "temp file must not linger"
        );
        assert!(load_checkpoint(&dir.join("absent.plpc")).is_err());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
