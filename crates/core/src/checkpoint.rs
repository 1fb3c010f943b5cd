//! Policy checkpointing: save a trained h/i-MADRL fleet to JSON and restore
//! it for deployment or continued training.
//!
//! The checkpoint captures everything the *policies* need — actors, critics,
//! optimiser moments, LCFs, the i-EOI classifier, and the value-normalisation
//! statistics. RNG state is intentionally excluded: a restored trainer is
//! reseeded, so training continues reproducibly from the restore seed.

use crate::agent::PpoAgent;
use crate::config::TrainConfig;
use crate::copo::Lcf;
use crate::eoi::EoiClassifier;
use crate::error::CheckpointError;
use agsc_nn::{Mlp, RunningStat};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A serialisable snapshot of a [`crate::trainer::HiMadrlTrainer`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Training configuration at save time.
    pub config: TrainConfig,
    /// Per-UV (or shared) agents.
    pub agents: Vec<PpoAgent>,
    /// i-EOI classifier, when the ablation had it enabled.
    pub classifier: Option<EoiClassifier>,
    /// Overall value network `V_all`.
    pub v_all: Mlp,
    /// Local coordination factors per UV.
    pub lcfs: Vec<Lcf>,
    /// Value-normalisation stats (own critic, overall critic).
    pub stat_own: RunningStat,
    /// Value-normalisation stats for `V_all`.
    pub stat_all: RunningStat,
    /// Iterations completed before the save.
    pub iterations_done: usize,
    /// Fleet size the checkpoint was trained for.
    pub num_agents: usize,
    /// UAV count (for the LCF-by-kind report).
    pub num_uavs: usize,
    /// Observation dimensionality.
    pub obs_dim: usize,
    /// Homogeneous-neighbour range in metres (environment-geometry bound).
    pub neighbor_range_m: f64,
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The sibling scratch path used for atomic saves (`<path>.tmp`).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Marker opening the integrity footer appended after the JSON payload.
/// `serde_json::to_string` never emits a raw newline, so the marker cannot
/// collide with payload content.
const FOOTER_MARKER: &str = "\n#agsc-crc32=";

/// CRC32 (IEEE 802.3, polynomial `0xEDB88320`) over `bytes` — the integrity
/// check behind the checkpoint footer. Table-driven, built once.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Split off and verify the `#agsc-crc32` integrity footer, returning the
/// JSON payload slice. Files without a footer (the pre-durability format)
/// pass through unverified, so old checkpoints keep loading.
fn verify_footer(data: &str) -> Result<&str, CheckpointError> {
    let idx = match data.rfind(FOOTER_MARKER) {
        Some(i) => i,
        None => return Ok(data),
    };
    let payload = &data[..idx];
    let line = data[idx + FOOTER_MARKER.len()..].trim_end();
    let (crc_hex, len_str) = match line.split_once(" len=") {
        Some(parts) => parts,
        None => return Err(CheckpointError::Corrupt("malformed integrity footer".into())),
    };
    let expected = match u32::from_str_radix(crc_hex, 16) {
        Ok(c) => c,
        Err(_) => return Err(CheckpointError::Corrupt("malformed integrity footer crc".into())),
    };
    let len: usize = match len_str.parse() {
        Ok(l) => l,
        Err(_) => return Err(CheckpointError::Corrupt("malformed integrity footer length".into())),
    };
    if len != payload.len() {
        return Err(CheckpointError::Corrupt(format!(
            "integrity footer claims {len} payload bytes, file has {}",
            payload.len()
        )));
    }
    let found = crc32(payload.as_bytes());
    if found != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

/// fsync the directory holding `path`, making a just-completed rename
/// durable. Best-effort: not every platform lets a directory be opened for
/// syncing, and a failed dir sync must not fail the save that preceded it.
fn sync_parent_dir(path: &Path) {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(d) = std::fs::File::open(parent) {
        let _ = d.sync_all();
    }
}

/// Remove a stale `<path>.tmp` sibling left behind by an interrupted atomic
/// save. The temp file is dead weight from a killed process — `path` itself
/// always holds the last *complete* checkpoint — so restore-side callers
/// delete it rather than trying to recover it. Returns whether a file was
/// removed.
pub fn remove_stale_tmp(path: &Path) -> bool {
    let tmp = tmp_sibling(path);
    if tmp.exists() && std::fs::remove_file(&tmp).is_ok() {
        agsc_telemetry::counter_add("checkpoint.stale_tmp_removed", 1);
        agsc_telemetry::emit_with(agsc_telemetry::Level::Info, "checkpoint_stale_tmp", |e| {
            e.str("path", tmp.display().to_string()).msg("removed stale temp from interrupted save")
        });
        return true;
    }
    false
}

/// The schema-version probe: deserialises only the `version` field, so a
/// stale or future-format file can be diagnosed without (and before) a full
/// schema decode.
#[derive(Deserialize)]
struct VersionProbe {
    version: u32,
}

impl Checkpoint {
    /// Check the checkpoint's schema version and internal consistency.
    ///
    /// This is the shared gate in front of every consumer —
    /// [`crate::trainer::HiMadrlTrainer::restore`] and
    /// [`crate::actors::InferencePolicy::from_checkpoint`] both call it — so an incompatible or internally
    /// contradictory checkpoint always fails with the same typed, readable
    /// error instead of a downstream panic.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: self.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let required_agents = if self.config.shared_params { 1 } else { self.num_agents };
        if self.agents.len() != required_agents {
            return Err(CheckpointError::Inconsistent(format!(
                "checkpoint holds {} agent(s) but its config requires {required_agents}",
                self.agents.len()
            )));
        }
        if self.lcfs.len() != self.num_agents {
            return Err(CheckpointError::Inconsistent(format!(
                "checkpoint holds {} LCF(s) for a fleet of {}",
                self.lcfs.len(),
                self.num_agents
            )));
        }
        if self.obs_dim == 0 {
            return Err(CheckpointError::Inconsistent("observation dimension is zero".into()));
        }
        Ok(())
    }

    /// Serialise to a JSON file atomically **and durably**.
    ///
    /// The payload is written to a `<path>.tmp` sibling together with a
    /// CRC32 integrity footer, fsynced, renamed into place, and the parent
    /// directory is fsynced — so a crash at any point leaves either the
    /// previous complete checkpoint or the new complete checkpoint at
    /// `path`, never a torn file that silently loads. A torn or bit-flipped
    /// file is caught at load time by the footer check.
    pub fn save_json(&self, path: &Path) -> Result<(), CheckpointError> {
        let json = match serde_json::to_string(self) {
            Ok(j) => j,
            Err(e) => return Err(CheckpointError::Corrupt(format!("serialisation failed: {e}"))),
        };
        let crc = crc32(json.as_bytes());
        let bytes = json.len() as u64;
        let mut data = json.into_bytes();
        data.extend_from_slice(format!("{FOOTER_MARKER}{crc:08x} len={bytes}\n").as_bytes());
        let tmp = tmp_sibling(path);
        let write_result = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&data)?;
            f.sync_all()
        })();
        if let Err(e) = write_result {
            std::fs::remove_file(&tmp).ok();
            return Err(CheckpointError::Io(e));
        }
        match std::fs::rename(&tmp, path) {
            Ok(()) => {
                sync_parent_dir(path);
                agsc_telemetry::counter_add("checkpoints_saved", 1);
                agsc_telemetry::emit_with(agsc_telemetry::Level::Info, "checkpoint_saved", |e| {
                    e.str("path", path.display().to_string()).u64("bytes", bytes)
                });
                Ok(())
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(CheckpointError::Io(e))
            }
        }
    }

    /// Deserialise from a JSON file.
    ///
    /// Truncated or garbage content yields [`CheckpointError::Corrupt`];
    /// filesystem failures yield [`CheckpointError::Io`]. When the body does
    /// not match this build's schema, the file's `version` field is probed
    /// first so a stale file fails with the readable
    /// [`CheckpointError::Version`] ("written by version N, this build
    /// supports M") instead of an opaque deserialize error.
    ///
    /// Files carrying the CRC32 integrity footer are verified first: a torn
    /// write or bit flip fails with the typed
    /// [`CheckpointError::ChecksumMismatch`] before any JSON parsing.
    /// Footer-less files (the pre-durability format) still load.
    pub fn load_json(path: &Path) -> Result<Self, CheckpointError> {
        let data = match std::fs::read_to_string(path) {
            Ok(j) => j,
            Err(e) => return Err(CheckpointError::Io(e)),
        };
        let json = verify_footer(&data)?;
        match serde_json::from_str(json) {
            Ok(ckpt) => Ok(ckpt),
            Err(e) => match serde_json::from_str::<VersionProbe>(json) {
                Ok(probe) if probe.version != CHECKPOINT_VERSION => Err(CheckpointError::Version {
                    found: probe.version,
                    supported: CHECKPOINT_VERSION,
                }),
                Ok(probe) => Err(CheckpointError::Corrupt(format!(
                    "file claims supported schema version {} but its body does not match: {e}",
                    probe.version
                ))),
                Err(_) => Err(CheckpointError::Corrupt(e.to_string())),
            },
        }
    }
}

/// A directory of checkpoint generations with bounded retention and
/// corruption-tolerant restore.
///
/// [`save`](Self::save) writes `ckpt-<generation>.json` files (durable via
/// [`Checkpoint::save_json`]) and prunes beyond the `keep` newest;
/// [`restore_latest`](Self::restore_latest) walks generations newest-first,
/// skipping any that fail the integrity footer, schema, or validation
/// checks, and returns the newest *intact* one — the crash-survival
/// contract a kill -9 mid-save must not break. Stale `.tmp` siblings from
/// interrupted saves are cleaned up on restore.
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// A store rooted at `dir` retaining the `keep` newest generations
    /// (clamped to at least 1).
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        Self { dir: dir.into(), keep: keep.max(1) }
    }

    /// The directory generations are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn gen_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:08}.json"))
    }

    fn parse_generation(name: &str) -> Option<u64> {
        let digits = name.strip_prefix("ckpt-")?.strip_suffix(".json")?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// Every generation on disk, ascending by generation number. An
    /// unreadable or missing directory reads as empty.
    pub fn generations(&self) -> Vec<(u64, PathBuf)> {
        let mut gens = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(name) = entry.file_name().to_str() {
                    if let Some(g) = Self::parse_generation(name) {
                        gens.push((g, entry.path()));
                    }
                }
            }
        }
        gens.sort();
        gens
    }

    /// Durably save `ckpt` as the next generation and prune old ones down
    /// to the retention bound. Returns the new generation's path. Pruning
    /// is best-effort: a failed unlink never fails the save that preceded
    /// it.
    ///
    /// Stale `.tmp` leftovers from interrupted saves are swept here as well
    /// as on restore, so a crash-looping writer that never restores cannot
    /// accumulate unbounded tmp files.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            return Err(CheckpointError::Io(e));
        }
        // Sweep before writing: our own save's tmp file only exists inside
        // `save_json`, so everything matching the pattern now is a casualty
        // of an earlier crash.
        self.cleanup_stale_tmp();
        let gens = self.generations();
        let next = gens.last().map(|(g, _)| g + 1).unwrap_or(1);
        let path = self.gen_path(next);
        ckpt.save_json(&path)?;
        let total = gens.len() + 1;
        if total > self.keep {
            for (_, old) in gens.iter().take(total - self.keep) {
                std::fs::remove_file(old).ok();
                remove_stale_tmp(old);
            }
        }
        Ok(path)
    }

    /// Restore the newest intact generation.
    ///
    /// Corrupt, torn, or invalid generations are skipped (each emits a
    /// `checkpoint_corrupt` warning; falling back past at least one bumps
    /// the `checkpoint.fallback` counter) and stale `.tmp` siblings are
    /// removed. Fails only when no generation loads — with the *newest*
    /// failure's typed error, so the caller sees why the head of the chain
    /// was unusable.
    pub fn restore_latest(&self) -> Result<(Checkpoint, PathBuf), CheckpointError> {
        self.cleanup_stale_tmp();
        let gens = self.generations();
        if gens.is_empty() {
            return Err(CheckpointError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no checkpoint generations under {}", self.dir.display()),
            )));
        }
        let mut newest_err = None;
        for (generation, path) in gens.iter().rev() {
            let loaded = Checkpoint::load_json(path).and_then(|c| {
                c.validate()?;
                Ok(c)
            });
            match loaded {
                Ok(ckpt) => {
                    if newest_err.is_some() {
                        agsc_telemetry::counter_add("checkpoint.fallback", 1);
                    }
                    let generation = *generation;
                    agsc_telemetry::emit_with(
                        agsc_telemetry::Level::Info,
                        "checkpoint_restored",
                        |e| e.str("path", path.display().to_string()).u64("generation", generation),
                    );
                    return Ok((ckpt, path.clone()));
                }
                Err(e) => {
                    agsc_telemetry::counter_add("checkpoint.corrupt_skipped", 1);
                    agsc_telemetry::warn("checkpoint_corrupt", |ev| {
                        ev.str("path", path.display().to_string()).msg(e.to_string())
                    });
                    if newest_err.is_none() {
                        newest_err = Some(e);
                    }
                }
            }
        }
        Err(newest_err.expect("at least one generation was tried"))
    }

    fn cleanup_stale_tmp(&self) {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let is_stale = entry
                    .file_name()
                    .to_str()
                    .map(|n| n.starts_with("ckpt-") && n.ends_with(".json.tmp"))
                    .unwrap_or(false);
                if is_stale && std::fs::remove_file(entry.path()).is_ok() {
                    agsc_telemetry::counter_add("checkpoint.stale_tmp_removed", 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::HiMadrlTrainer;
    use agsc_datasets::presets;
    use agsc_env::{AirGroundEnv, EnvConfig};

    fn env() -> AirGroundEnv {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { horizon: 10, stochastic_fading: false, ..EnvConfig::default() };
        AirGroundEnv::new(cfg, &dataset, 5)
    }

    fn small_cfg() -> TrainConfig {
        TrainConfig { hidden: vec![16], policy_epochs: 1, lcf_epochs: 1, ..TrainConfig::default() }
    }

    #[test]
    fn round_trip_preserves_policy_outputs() {
        let mut e = env();
        let mut t = HiMadrlTrainer::new(&e, small_cfg(), 3, 9).unwrap();
        t.train(&mut e, 3);
        let ckpt = t.checkpoint();
        assert_eq!(ckpt.version, CHECKPOINT_VERSION);
        assert_eq!(ckpt.iterations_done, 3);

        let restored = HiMadrlTrainer::restore(&ckpt, 77).unwrap();
        let obs = vec![0.3f32; t.obs_dim()];
        for k in 0..4 {
            assert_eq!(
                t.policy_action(k, &obs),
                restored.policy_action(k, &obs),
                "restored policy must act identically"
            );
        }
        assert_eq!(restored.iterations_done(), 3);
        assert_eq!(restored.lcfs(), t.lcfs());
    }

    #[test]
    fn restored_trainer_continues_training() {
        let mut e = env();
        let mut t = HiMadrlTrainer::new(&e, small_cfg(), 5, 9).unwrap();
        t.train(&mut e, 2);
        let ckpt = t.checkpoint();
        let mut restored = HiMadrlTrainer::restore(&ckpt, 123).unwrap();
        let stats = restored.train_iteration(&mut e);
        assert!(stats.mean_ext_reward.is_finite());
        assert_eq!(restored.iterations_done(), 3);
    }

    #[test]
    fn file_round_trip() {
        let mut e = env();
        let mut t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        t.train(&mut e, 1);
        let ckpt = t.checkpoint();
        let dir = std::env::temp_dir().join("agsc_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        ckpt.save_json(&path).unwrap();
        let loaded = Checkpoint::load_json(&path).unwrap();
        assert_eq!(loaded.iterations_done, ckpt.iterations_done);
        assert_eq!(loaded.num_agents, ckpt.num_agents);
        let restored = HiMadrlTrainer::restore(&loaded, 1).unwrap();
        let obs = vec![0.1f32; t.obs_dim()];
        assert_eq!(t.policy_action(0, &obs), restored.policy_action(0, &obs));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut e = env();
        let t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        let mut ckpt = t.checkpoint();
        ckpt.version = 999;
        let err = HiMadrlTrainer::restore(&ckpt, 1).unwrap_err();
        assert!(matches!(
            err,
            crate::error::TrainError::Checkpoint(CheckpointError::Version {
                found: 999,
                supported: CHECKPOINT_VERSION
            })
        ));
        let _ = &mut e;
    }

    #[test]
    fn stale_schema_file_fails_with_version_error_not_deserialize_noise() {
        // A file from a future (or ancient) format whose body no longer
        // matches this build's schema: the version probe must turn the
        // deserialize failure into the readable typed error.
        let dir = std::env::temp_dir().join("agsc_ckpt_stale_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.json");
        std::fs::write(&path, r#"{"version": 7, "weights_blob": "AAAA", "arch": [64, 64]}"#)
            .unwrap();
        let err = Checkpoint::load_json(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Version { found: 7, supported: CHECKPOINT_VERSION }),
            "got {err:?}"
        );
        assert!(err.to_string().contains('7'), "message must name the found version: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matching_version_with_wrong_body_stays_a_corruption_error() {
        let dir = std::env::temp_dir().join("agsc_ckpt_wrongbody_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrongbody.json");
        std::fs::write(&path, format!(r#"{{"version": {CHECKPOINT_VERSION}}}"#)).unwrap();
        let err = Checkpoint::load_json(&path).unwrap_err();
        match err {
            CheckpointError::Corrupt(msg) => {
                assert!(msg.contains("schema version"), "message must mention the schema: {msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_rejects_internal_contradictions() {
        let e = env();
        let t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        let good = t.checkpoint();
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.lcfs.pop();
        assert!(matches!(bad.validate(), Err(CheckpointError::Inconsistent(_))));
        let mut bad = good.clone();
        bad.agents.clear();
        assert!(matches!(bad.validate(), Err(CheckpointError::Inconsistent(_))));
    }

    #[test]
    fn garbage_file_is_a_typed_corruption_error() {
        let dir = std::env::temp_dir().join("agsc_ckpt_garbage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "this is not json {{{").unwrap();
        let err = Checkpoint::load_json(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_corruption_error() {
        let e = env();
        let t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        let dir = std::env::temp_dir().join("agsc_ckpt_trunc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        t.checkpoint().save_json(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = Checkpoint::load_json(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let path = std::env::temp_dir().join("agsc_ckpt_missing_test/nope.json");
        let err = Checkpoint::load_json(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
    }

    #[test]
    fn interrupted_save_leaves_previous_checkpoint_readable() {
        // An interrupted atomic save is, at worst, a stale `<path>.tmp`
        // sibling: the real path always holds the last complete checkpoint.
        let mut e = env();
        let mut t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        t.train(&mut e, 1);
        let dir = std::env::temp_dir().join("agsc_ckpt_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        t.checkpoint().save_json(&path).unwrap();

        // Simulate a crash mid-save: a half-written temp file next door.
        let tmp = super::tmp_sibling(&path);
        std::fs::write(&tmp, "{\"version\": 1, \"trunc").unwrap();
        let loaded = Checkpoint::load_json(&path).unwrap();
        assert_eq!(loaded.iterations_done, 1);

        // The next successful save replaces both the temp file and the
        // checkpoint.
        t.train(&mut e, 1);
        t.checkpoint().save_json(&path).unwrap();
        assert!(!tmp.exists(), "atomic save must consume the temp file");
        let reloaded = Checkpoint::load_json(&path).unwrap();
        assert_eq!(reloaded.iterations_done, 2);

        // The restore side: a trainer starting up from the path must load
        // the intact checkpoint AND clean up a stale temp sibling.
        std::fs::write(&tmp, "{\"version\": 1, \"still trunc").unwrap();
        let restored = HiMadrlTrainer::restore_from_file(&path, 5).unwrap();
        assert_eq!(restored.iterations_done(), 2);
        assert!(!tmp.exists(), "restore must remove the stale temp sibling");
        let obs = vec![0.2f32; t.obs_dim()];
        assert_eq!(t.policy_action(0, &obs), restored.policy_action(0, &obs));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE 802.3 check value.
        assert_eq!(super::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(super::crc32(b""), 0);
    }

    #[test]
    fn bit_flip_in_payload_is_a_typed_checksum_mismatch() {
        let e = env();
        let t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        let dir = std::env::temp_dir().join("agsc_ckpt_bitflip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flipped.json");
        t.checkpoint().save_json(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = bytes.len() / 3; // well inside the JSON payload
        bytes[victim] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load_json(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { .. } | CheckpointError::Corrupt(_)),
            "a flipped payload byte must fail typed, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footerless_legacy_file_still_loads() {
        let e = env();
        let t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        let dir = std::env::temp_dir().join("agsc_ckpt_legacy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        t.checkpoint().save_json(&path).unwrap();
        let data = std::fs::read_to_string(&path).unwrap();
        let idx = data.rfind(super::FOOTER_MARKER).expect("new saves carry the footer");
        std::fs::write(&path, &data[..idx]).unwrap();
        let loaded = Checkpoint::load_json(&path).unwrap();
        assert_eq!(loaded.num_agents, t.num_agents());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_retains_keep_generations_and_restores_newest() {
        let mut e = env();
        let mut t = HiMadrlTrainer::new(&e, small_cfg(), 4, 9).unwrap();
        let dir = std::env::temp_dir().join(format!("agsc_ckpt_store_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir, 2);
        for _ in 0..3 {
            t.train(&mut e, 1);
            store.save(&t.checkpoint()).unwrap();
        }
        let gens = store.generations();
        assert_eq!(gens.len(), 2, "retention must prune to keep=2");
        assert_eq!((gens[0].0, gens[1].0), (2, 3), "the newest generations survive");
        let (restored, path) = store.restore_latest().unwrap();
        assert_eq!(restored.iterations_done, 3);
        assert_eq!(path, gens[1].1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_save_sweeps_stale_tmp_litter() {
        // A crash-looping writer that never restores must not accumulate
        // `.tmp` leftovers: the sweep runs on save, not just on restore.
        let mut e = env();
        let mut t = HiMadrlTrainer::new(&e, small_cfg(), 4, 9).unwrap();
        let dir =
            std::env::temp_dir().join(format!("agsc_ckpt_savesweep_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir, 2);
        t.train(&mut e, 1);
        store.save(&t.checkpoint()).unwrap();
        for n in [7, 8, 9] {
            std::fs::write(dir.join(format!("ckpt-000000{n:02}.json.tmp")), "torn").unwrap();
        }
        std::fs::write(dir.join("unrelated.tmp"), "keep me").unwrap();
        store.save(&t.checkpoint()).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".json.tmp"))
            .collect();
        assert!(leftovers.is_empty(), "save must sweep stale tmp files, found {leftovers:?}");
        assert!(dir.join("unrelated.tmp").exists(), "only ckpt-*.json.tmp files are swept");
        assert_eq!(store.generations().len(), 2, "both real generations survive the sweep");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_falls_back_past_a_corrupted_newest_generation() {
        let mut e = env();
        let mut t = HiMadrlTrainer::new(&e, small_cfg(), 4, 9).unwrap();
        let dir =
            std::env::temp_dir().join(format!("agsc_ckpt_fallback_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir, 4);
        for _ in 0..3 {
            t.train(&mut e, 1);
            store.save(&t.checkpoint()).unwrap();
        }
        let gens = store.generations();
        let good_json = std::fs::read_to_string(&gens[1].1).unwrap();
        // Corrupt the newest generation and leave a stale tmp behind it.
        let mut bytes = std::fs::read(&gens[2].1).unwrap();
        let victim = bytes.len() / 2;
        bytes[victim] ^= 0x10;
        std::fs::write(&gens[2].1, &bytes).unwrap();
        std::fs::write(dir.join("ckpt-00000099.json.tmp"), "torn").unwrap();

        let (restored, path) = store.restore_latest().unwrap();
        assert_eq!(path, gens[1].1, "restore must fall back to the newest intact generation");
        assert_eq!(restored.iterations_done, 2);
        assert!(!dir.join("ckpt-00000099.json.tmp").exists(), "stale tmp must be cleaned");
        // Bit-identical to the fallback generation as originally saved.
        let reread = std::fs::read_to_string(&path).unwrap();
        assert_eq!(reread, good_json);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_restore_is_a_typed_io_error() {
        let dir =
            std::env::temp_dir().join(format!("agsc_ckpt_empty_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir, 3);
        let err = store.restore_latest().unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
    }
}
