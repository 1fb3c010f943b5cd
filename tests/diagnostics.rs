//! Learning-diagnostics integration tests: exported training curves are
//! machine-parseable, injected pathologies raise warn-level anomaly events,
//! and NaN-guard rollbacks are recorded without polluting detector
//! baselines.
//!
//! The telemetry handle is process-global, so every test here serialises on
//! one mutex and shuts the handle down before releasing it.

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{
    AnomalyKind, Diagnostics, DiagnosticsConfig, HiMadrlTrainer, IterationStats, PpoStats,
    TrainConfig,
};
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
    let dir = std::env::temp_dir().join(format!("agsc_diag_it_{tag}_{}", std::process::id()));
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

/// A synthetic healthy iteration for detector-level tests.
fn healthy_stats(num_agents: usize) -> IterationStats {
    IterationStats {
        ppo: PpoStats { entropy: 1.5, approx_kl: 0.01, ..Default::default() },
        value_loss: 1.0,
        lcf_degrees: vec![(10.0, 45.0); num_agents],
        collection_share: vec![1.0 / num_agents as f32; num_agents],
        intrinsic_share: vec![1.0 / num_agents as f32; num_agents],
        ..Default::default()
    }
}

#[test]
fn two_iteration_run_exports_parseable_training_curves() {
    with_telemetry(|| {
        let mem = Arc::new(tlm::MemorySink::new());
        tlm::install(vec![mem], tlm::Level::Info);
        let dir = tmp_dir("curves");

        let mut env = fast_env(5);
        let mut trainer = HiMadrlTrainer::new(&env, fast_train_cfg(), 2, 5).unwrap();
        let fleet = env.num_uvs();
        let mut diag =
            Diagnostics::new(fleet, trainer.num_uavs(), DiagnosticsConfig::default(), Some(&dir));
        for i in 0..2 {
            let mut stats = trainer.train_iteration(&mut env);
            diag.observe(i, &mut stats);
        }
        diag.finish();

        let csv_path = diag.csv_path().expect("recorder must be active").to_path_buf();
        let text = std::fs::read_to_string(&csv_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per iteration:\n{text}");
        let header: Vec<&str> = lines[0].split(',').collect();
        for col in [
            "iter",
            "update_skipped",
            "approx_kl",
            "entropy",
            "explained_variance",
            "policy_grad_norm",
            "critic_grad_norm",
            "value_loss",
            "advantage_mean",
            "advantage_std",
            "lambda",
            "psi",
        ] {
            assert!(header.contains(&col), "missing column {col} in {header:?}");
        }
        for k in 0..fleet {
            for group in ["lcf_phi_deg", "lcf_chi_deg", "intrinsic_share", "collection_share"] {
                let col = format!("{group}_{k}");
                assert!(header.contains(&col.as_str()), "missing column {col}");
            }
        }
        // Every data cell must parse: integers for the bookkeeping columns,
        // f64 (NaN allowed) for the signals.
        for line in &lines[1..] {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), header.len(), "ragged row: {line}");
            for (name, cell) in header.iter().zip(cells.iter()) {
                match *name {
                    "iter" | "update_skipped" | "nan_events" | "anomalies" => {
                        cell.parse::<u64>().unwrap_or_else(|_| panic!("bad int {name}={cell}"));
                    }
                    _ => {
                        cell.parse::<f64>().unwrap_or_else(|_| panic!("bad float {name}={cell}"));
                    }
                }
            }
        }

        // The JSONL twin parses line-by-line with serde.
        let jsonl = std::fs::read_to_string(csv_path.with_extension("jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect(line);
            assert!(v["approx_kl"].is_number() || v["approx_kl"].is_null());
            assert!(v["lcf_deg"].as_array().unwrap().len() == fleet);
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn injected_entropy_collapse_raises_warn_level_anomaly_event() {
    with_telemetry(|| {
        let mem = Arc::new(tlm::MemorySink::new());
        tlm::install(vec![mem.clone()], tlm::Level::Warn);

        let mut diag = Diagnostics::new(2, 1, DiagnosticsConfig::default(), None);
        let mut collapsed = healthy_stats(2);
        collapsed.ppo.entropy = -3.5;
        diag.observe(0, &mut collapsed);

        assert_eq!(collapsed.anomalies.len(), 1, "collapse must be stamped on the stats");
        assert_eq!(collapsed.anomalies[0].kind, AnomalyKind::EntropyCollapse);

        let events = mem.events();
        let anomaly = events
            .iter()
            .find(|e| e.kind == "anomaly")
            .expect("an anomaly event must reach the sinks");
        assert_eq!(anomaly.level, tlm::Level::Warn);
        let kind_field = anomaly
            .fields
            .iter()
            .find(|(k, _)| *k == "anomaly_kind")
            .map(|(_, v)| v.clone())
            .expect("anomaly_kind field");
        assert_eq!(kind_field, tlm::Value::Str("entropy_collapse".into()));
    });
}

#[test]
fn nan_rollback_rows_are_recorded_without_polluting_baselines() {
    with_telemetry(|| {
        let mem = Arc::new(tlm::MemorySink::new());
        tlm::install(vec![mem], tlm::Level::Info);
        let dir = tmp_dir("rollback");
        let mut diag = Diagnostics::new(2, 1, DiagnosticsConfig::default(), Some(&dir));

        // Quiet baseline interleaved with rolled-back iterations carrying
        // absurd losses — exactly what the NaN guard produces.
        let mut iter = 0usize;
        for i in 0..20 {
            let mut s = healthy_stats(2);
            s.value_loss = 1.0 + 0.05 * (i % 4) as f32;
            diag.observe(iter, &mut s);
            assert!(s.anomalies.is_empty());
            iter += 1;

            let mut skipped = healthy_stats(2);
            skipped.update_skipped = true;
            skipped.nan_events = 1;
            skipped.value_loss = 1e6;
            skipped.ppo.approx_kl = 10.0;
            diag.observe(iter, &mut skipped);
            assert!(skipped.anomalies.is_empty(), "skipped rows must never raise anomalies");
            iter += 1;
        }
        // A genuine value-loss spike must still stand out: had the skipped
        // rows fed the EWMA baseline, its variance would have exploded and
        // this would pass silently.
        let mut spike = healthy_stats(2);
        spike.value_loss = 50.0;
        diag.observe(iter, &mut spike);
        assert_eq!(spike.anomalies.len(), 1, "baseline was polluted by update_skipped rows");
        assert_eq!(spike.anomalies[0].kind, AnomalyKind::ValueLossBlowup);
        diag.finish();

        // The rolled-back iterations still appear in the export, flagged.
        let csv = std::fs::read_to_string(diag.csv_path().unwrap()).unwrap();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let skip_idx = header.iter().position(|&c| c == "update_skipped").unwrap();
        let skipped_rows =
            csv.lines().skip(1).filter(|l| l.split(',').nth(skip_idx) == Some("1")).count();
        assert_eq!(skipped_rows, 20, "every rolled-back iteration gets a flagged row");
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn kl_spike_and_dead_agent_surface_in_iteration_stats() {
    with_telemetry(|| {
        let mem = Arc::new(tlm::MemorySink::new());
        tlm::install(vec![mem], tlm::Level::Warn);
        let mut diag = Diagnostics::new(2, 1, DiagnosticsConfig::default(), None);

        // Agent 1 collects nothing for long enough to be declared dead.
        let mut dead_seen = false;
        for i in 0..15 {
            let mut s = healthy_stats(2);
            s.collection_share = vec![1.0, 0.0];
            diag.observe(i, &mut s);
            for a in &s.anomalies {
                assert_eq!(a.kind, AnomalyKind::DeadAgent);
                assert_eq!(a.agent, Some(1));
                dead_seen = true;
            }
        }
        assert!(dead_seen, "persistent zero share must flag the dead agent");

        // An approx-KL far over the absolute ceiling fires immediately.
        let mut s = healthy_stats(2);
        s.ppo.approx_kl = 0.9;
        diag.observe(100, &mut s);
        assert!(
            s.anomalies.iter().any(|a| a.kind == AnomalyKind::KlSpike),
            "KL ceiling breach must be flagged, got {:?}",
            s.anomalies
        );
        assert!(diag.anomaly_total() >= 2);
    });
}
