//! Crash-safety acceptance tests for durable checkpoints.
//!
//! The headline test kills a child process with SIGKILL while it is
//! mid-save-loop, then proves [`CheckpointStore::restore_latest`] still
//! recovers an intact, bit-identical generation — no matter where in the
//! write/fsync/rename sequence the kill landed. The bit-flip test proves
//! the CRC footer turns silent on-disk corruption into a detected,
//! fallback-able condition end to end with a real trained checkpoint.

use std::path::PathBuf;
use std::time::Duration;

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{Checkpoint, CheckpointStore, HiMadrlTrainer, InferencePolicy, TrainConfig};

/// Env var that flips this test binary into "child save-loop" mode.
const CHILD_DIR_VAR: &str = "AGSC_KILL9_CHILD_DIR";

fn env() -> AirGroundEnv {
    let dataset = presets::purdue(1);
    let cfg = EnvConfig { horizon: 10, stochastic_fading: false, ..EnvConfig::default() };
    AirGroundEnv::new(cfg, &dataset, 5)
}

fn small_cfg() -> TrainConfig {
    TrainConfig { hidden: vec![16], policy_epochs: 1, lcf_epochs: 1, ..TrainConfig::default() }
}

fn trained_checkpoint(iters: usize) -> Checkpoint {
    let mut e = env();
    let mut t = HiMadrlTrainer::new(&e, small_cfg(), 3, 9).unwrap();
    t.train(&mut e, iters);
    t.checkpoint()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agsc-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Child-process body, disguised as a test so it lives in this binary: if
/// the env var is set, load the seed checkpoint and save it to the store
/// in a tight loop until the parent kills the process. Without the env
/// var (a normal test run) it is a no-op pass.
#[test]
fn kill9_child_save_loop() {
    let dir = match std::env::var(CHILD_DIR_VAR) {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => return,
    };
    let ckpt = Checkpoint::load_json(&dir.join("seed.json")).expect("child loads the seed");
    let store = CheckpointStore::new(dir, 3);
    // Saved forever; only SIGKILL ends this loop.
    loop {
        store.save(&ckpt).expect("a healthy filesystem save must not fail");
    }
}

#[test]
#[cfg(unix)]
fn restore_survives_sigkill_mid_save_loop() {
    let dir = fresh_dir("kill9");
    let ckpt = trained_checkpoint(1);
    ckpt.save_json(&dir.join("seed.json")).unwrap();

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .arg("kill9_child_save_loop")
        .arg("--exact")
        .arg("--nocapture")
        .env(CHILD_DIR_VAR, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn the save-loop child");

    // Wait until the child has demonstrably saved at least once, let it
    // keep going a little, then SIGKILL it mid-flight. The exact landing
    // spot (serialize / write / fsync / rename) varies run to run — the
    // restore contract must hold for all of them.
    let store = CheckpointStore::new(&dir, 3);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while store.generations().is_empty() {
        assert!(std::time::Instant::now() < deadline, "child never produced a generation");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(300));
    child.kill().expect("SIGKILL the child");
    let _ = child.wait();

    assert!(!store.generations().is_empty(), "generations cannot vanish after the kill");
    let (restored, from) =
        store.restore_latest().expect("restore must succeed no matter where the kill landed");
    assert!(from.starts_with(&dir));

    // Bit-identity: the restored checkpoint re-serializes to exactly the
    // seed's bytes (same payload, same CRC footer).
    let reread = dir.join("reread.json");
    restored.save_json(&reread).unwrap();
    let seed_bytes = std::fs::read(dir.join("seed.json")).unwrap();
    let restored_bytes = std::fs::read(&reread).unwrap();
    assert_eq!(seed_bytes, restored_bytes, "restored generation diverged from what was saved");

    // And it is trainable state, not just parseable JSON.
    let trainer = HiMadrlTrainer::restore(&restored, 9).expect("restored checkpoint is usable");
    assert!(trainer.num_agents() > 0);
}

#[test]
fn bit_flip_falls_back_to_the_previous_generation_end_to_end() {
    let dir = fresh_dir("bitflip");
    let store = CheckpointStore::new(&dir, 3);
    let gen1 = store.save(&trained_checkpoint(1)).unwrap();
    let gen2 = store.save(&trained_checkpoint(2)).unwrap();
    let gen3 = store.save(&trained_checkpoint(3)).unwrap();
    let gen2_bytes = std::fs::read(&gen2).unwrap();

    // Flip one payload byte of the newest generation — silent media
    // corruption, exactly what the CRC footer exists to catch.
    let mut corrupted = std::fs::read(&gen3).unwrap();
    corrupted[64] ^= 0x01;
    std::fs::write(&gen3, &corrupted).unwrap();

    let (restored, from) = store.restore_latest().expect("an intact older generation exists");
    assert_eq!(from, gen2, "restore must fall back to the newest intact generation");
    let reread = dir.join("reread.json");
    restored.save_json(&reread).unwrap();
    assert_eq!(
        std::fs::read(&reread).unwrap(),
        gen2_bytes,
        "fallback generation must round-trip bit-identically"
    );

    // The fallback still drives inference.
    let policy = InferencePolicy::from_checkpoint(&restored).unwrap();
    let action = policy.action(0, &vec![0.0; policy.obs_dim()]);
    assert!(action[0].is_finite() && action[1].is_finite());
    let _ = gen1;
}

#[test]
fn retention_prunes_old_generations_with_real_checkpoints() {
    let dir = fresh_dir("retention");
    let store = CheckpointStore::new(&dir, 2);
    let ckpt = trained_checkpoint(1);
    for _ in 0..4 {
        store.save(&ckpt).unwrap();
    }
    let gens: Vec<u64> = store.generations().into_iter().map(|(g, _)| g).collect();
    assert_eq!(gens, vec![3, 4], "keep=2 must retain exactly the newest two generations");
}

#[test]
fn stale_tmp_files_are_cleaned_on_restore() {
    let dir = fresh_dir("staletmp");
    let store = CheckpointStore::new(&dir, 3);
    store.save(&trained_checkpoint(1)).unwrap();
    // A crashed writer's leftovers, both store-shaped and arbitrary.
    let stale = dir.join("ckpt-00000042.json.tmp");
    std::fs::write(&stale, b"partial garbage from a dead process").unwrap();

    let (_, from) = store.restore_latest().unwrap();
    assert!(from.ends_with("ckpt-00000001.json"));
    assert!(!stale.exists(), "restore must sweep stale tmp siblings: {}", stale.display());
}
