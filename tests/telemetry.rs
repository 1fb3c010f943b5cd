//! Telemetry integration tests: the JSONL log of an instrumented training
//! run must be machine-readable end to end — a manifest first, one
//! `iteration` record per iteration with finite values, and a final profile.
//!
//! The telemetry handle is process-global, so every test here serialises on
//! one mutex and shuts the handle down before releasing it.

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{HiMadrlTrainer, TrainConfig};
use agsc::telemetry as tlm;
use std::sync::{Arc, Mutex};

static GLOBAL: Mutex<()> = Mutex::new(());

fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
    let _guard = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    let out = f();
    tlm::shutdown();
    out
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("agsc_tlm_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast_env(seed: u64) -> AirGroundEnv {
    let dataset = presets::purdue(seed);
    let cfg = EnvConfig { horizon: 20, stochastic_fading: false, ..EnvConfig::default() };
    AirGroundEnv::new(cfg, &dataset, seed)
}

fn fast_train_cfg() -> TrainConfig {
    TrainConfig { hidden: vec![16], policy_epochs: 2, ..TrainConfig::default() }
}

#[test]
fn jsonl_round_trips_through_serde() {
    with_telemetry(|| {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("log.jsonl");
        let sink = Arc::new(tlm::JsonlSink::at_path(&path).unwrap());
        tlm::install(vec![sink], tlm::Level::Debug);

        tlm::emit_with(tlm::Level::Info, "iteration", |e| {
            e.u64("iter", 1)
                .f64("lambda", 0.75)
                .f64("bad", f64::NAN) // non-finite floats must serialise as null
                .bool("update_skipped", false)
                .str("note", "quote \" backslash \\ newline \n done")
        });
        tlm::warn("config_warning", |e| e.str("var", "AGSC_ITERS").msg("ignoring it"));
        tlm::flush();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one JSON object per event:\n{text}");
        let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v["type"], "iteration");
        assert_eq!(v["level"], "info");
        assert_eq!(v["iter"], 1);
        assert!((v["lambda"].as_f64().unwrap() - 0.75).abs() < 1e-12);
        assert!(v["bad"].is_null(), "NaN must round-trip as null: {v}");
        assert_eq!(v["update_skipped"], false);
        assert_eq!(v["note"], "quote \" backslash \\ newline \n done");
        assert!(v["ts_ms"].as_u64().unwrap() > 0);
        let w: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(w["type"], "config_warning");
        assert_eq!(w["level"], "warn");
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn severity_filter_drops_below_min_level() {
    with_telemetry(|| {
        let mem = Arc::new(tlm::MemorySink::new());
        tlm::install(vec![mem.clone()], tlm::Level::Warn);
        tlm::emit_with(tlm::Level::Debug, "dropped_debug", |e| e);
        tlm::emit_with(tlm::Level::Info, "dropped_info", |e| e);
        tlm::emit_with(tlm::Level::Warn, "kept_warn", |e| e);
        tlm::emit_with(tlm::Level::Error, "kept_error", |e| e);
        let kinds: Vec<&str> = mem.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["kept_warn", "kept_error"]);
    });
}

#[test]
fn two_iteration_run_writes_manifest_and_per_iteration_records() {
    with_telemetry(|| {
        let dir = tmp_dir("run");
        let path = dir.join("run.jsonl");
        let sink = Arc::new(tlm::JsonlSink::at_path(&path).unwrap());
        tlm::install(vec![sink], tlm::Level::Info);

        let env_cfg_json =
            serde_json::to_string(&{ EnvConfig { horizon: 20, ..EnvConfig::default() } }).unwrap();
        tlm::RunManifest::new(5, "purdue")
            .config_json("env_config", env_cfg_json)
            .field_u64("iterations", 2)
            .emit();

        let mut env = fast_env(5);
        let mut trainer = HiMadrlTrainer::new(&env, fast_train_cfg(), 2, 5).unwrap();
        trainer.train(&mut env, 2);
        tlm::emit_profile();
        tlm::flush();

        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<serde_json::Value> =
            text.lines().map(|l| serde_json::from_str(l).expect(l)).collect();

        assert_eq!(records[0]["type"], "manifest", "manifest must be the first record");
        assert_eq!(records[0]["seed"], 5);
        assert_eq!(records[0]["dataset"], "purdue");
        assert!(records[0]["version"].is_string());
        assert!(records[0]["env_config"].is_object(), "config splices as real JSON");

        let iters: Vec<&serde_json::Value> =
            records.iter().filter(|r| r["type"] == "iteration").collect();
        assert_eq!(iters.len(), 2, "one iteration record per train iteration:\n{text}");
        for (i, rec) in iters.iter().enumerate() {
            assert_eq!(rec["iter"].as_u64().unwrap(), i as u64 + 1);
            for key in
                ["mean_ext_reward", "lambda", "psi", "sigma", "xi", "kappa", "classifier_accuracy"]
            {
                let x = rec[key].as_f64().unwrap_or(f64::NAN);
                assert!(x.is_finite(), "iteration[{i}].{key} must be finite, got {rec}");
            }
            assert!(rec["update_skipped"].is_boolean());
        }

        let profile = records.iter().find(|r| r["type"] == "profile").expect("profile record");
        let spans = profile["spans"].as_object().unwrap();
        assert!(
            spans.keys().any(|k| k.contains("train_iteration")),
            "profile must cover the training span: {profile}"
        );
        assert!(
            spans.keys().any(|k| k.contains("train_iteration/")),
            "nested spans keep their parent path: {profile}"
        );
        assert!(profile["counters"]["train_iterations"].as_u64() == Some(2), "{profile}");
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn profile_table_ranks_training_spans() {
    with_telemetry(|| {
        let mem = Arc::new(tlm::MemorySink::new());
        tlm::install(vec![mem], tlm::Level::Info);
        let mut env = fast_env(11);
        let mut trainer = HiMadrlTrainer::new(&env, fast_train_cfg(), 1, 11).unwrap();
        trainer.train(&mut env, 1);
        let table = tlm::profile_table().expect("spans were recorded");
        for needle in ["span", "calls", "total ms", "train_iteration", "env_step"] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
    });
}

#[test]
fn profile_table_is_absent_when_disabled_and_aligned_when_present() {
    with_telemetry(|| {
        assert!(
            tlm::profile_table().is_none(),
            "no table before telemetry is installed — the span registry starts empty"
        );
        let mem = Arc::new(tlm::MemorySink::new());
        tlm::install(vec![mem], tlm::Level::Info);
        assert!(tlm::profile_table().is_none(), "enabled but nothing timed yet");

        let mut env = fast_env(13);
        let mut trainer = HiMadrlTrainer::new(&env, fast_train_cfg(), 1, 13).unwrap();
        trainer.train(&mut env, 1);

        let table = tlm::profile_table().expect("spans were recorded");
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines.len() >= 2, "header plus at least one span row:\n{table}");
        for (needle, right_aligned) in
            [("span", false), ("calls", true), ("total ms", true), ("mean us", true)]
        {
            assert!(lines[0].contains(needle), "header lacks {needle:?}: {table}");
            if right_aligned {
                assert!(
                    !lines[0].ends_with(&format!("{needle} ")),
                    "numeric columns are right-aligned"
                );
            }
        }
        // Fixed column widths: every line (header included) is the same
        // length, so the table stays grid-aligned in a terminal.
        let width = lines[0].chars().count();
        for line in &lines {
            assert_eq!(line.chars().count(), width, "misaligned row {line:?} in:\n{table}");
        }
    });
}

#[test]
fn spans_on_worker_threads_record_under_the_spawning_path() {
    with_telemetry(|| {
        tlm::install(vec![], tlm::Level::Info);
        {
            let _iteration = tlm::span("train_iteration");
            agsc::madrl::parallel::scoped_shards(2, &mut [0u8, 1], |_, _| {
                drop(tlm::span("gae"));
                Vec::<()>::new()
            });
        }
        let spans = tlm::spans_snapshot();
        let gae = spans.iter().find(|(p, _)| p == "train_iteration/gae");
        assert_eq!(gae.map(|(_, s)| s.calls), Some(2), "both shards' spans: {spans:?}");
        assert!(spans.iter().all(|(p, _)| p != "gae"), "no worker span outside: {spans:?}");

        // The update pipeline's workers too: every phase span, on every
        // thread, nests under the iteration.
        let mut env = fast_env(3);
        let cfg = TrainConfig { rollout_workers: 2, ..fast_train_cfg() };
        HiMadrlTrainer::new(&env, cfg, 2, 3).unwrap().train_iteration(&mut env);
        for (path, _) in tlm::spans_snapshot() {
            let leaf = path.rsplit('/').next().unwrap();
            if ["gae", "ppo_epochs", "v_all_update", "lcf_meta_gradient", "eoi_update"]
                .contains(&leaf)
            {
                assert!(path.starts_with("train_iteration/"), "{path} escaped the iteration");
            }
        }
    });
}
