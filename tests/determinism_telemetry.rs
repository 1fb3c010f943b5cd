//! Telemetry must be observation-only: a seeded training run produces
//! bit-identical results whether telemetry is enabled or not.
//!
//! This lives in its own integration-test binary so no sibling test can
//! flip the process-global telemetry handle mid-run.

use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{evaluate, HiMadrlTrainer, IterationStats, TrainConfig};
use agsc::telemetry as tlm;
use std::sync::Arc;

fn run_training() -> (Vec<IterationStats>, agsc::env::Metrics) {
    let dataset = presets::purdue(3);
    let cfg = EnvConfig { horizon: 20, stochastic_fading: false, ..EnvConfig::default() };
    let mut env = AirGroundEnv::new(cfg, &dataset, 3);
    let train_cfg = TrainConfig { hidden: vec![16], policy_epochs: 2, ..TrainConfig::default() };
    let mut trainer = HiMadrlTrainer::new(&env, train_cfg, 3, 3).unwrap();
    let stats = trainer.train(&mut env, 3);
    let metrics = evaluate(&trainer, &mut env, 2, 500);
    (stats, metrics)
}

#[test]
fn telemetry_on_and_off_are_bit_identical() {
    assert!(!tlm::is_enabled(), "telemetry must start disabled");
    let (stats_off, metrics_off) = run_training();

    let mem = Arc::new(tlm::MemorySink::new());
    tlm::install(vec![mem.clone()], tlm::Level::Debug);
    let (stats_on, metrics_on) = run_training();
    tlm::shutdown();
    assert!(!mem.events().is_empty(), "the instrumented run must actually record events");

    // Exact bit equality, not tolerance: telemetry may observe the run but
    // never perturb it.
    assert_eq!(metrics_off.efficiency.to_bits(), metrics_on.efficiency.to_bits());
    assert_eq!(
        metrics_off.data_collection_ratio.to_bits(),
        metrics_on.data_collection_ratio.to_bits()
    );
    assert_eq!(metrics_off.data_loss_ratio.to_bits(), metrics_on.data_loss_ratio.to_bits());
    assert_eq!(metrics_off.energy_ratio.to_bits(), metrics_on.energy_ratio.to_bits());
    assert_eq!(metrics_off.fairness.to_bits(), metrics_on.fairness.to_bits());

    assert_eq!(stats_off.len(), stats_on.len());
    for (a, b) in stats_off.iter().zip(stats_on.iter()) {
        assert_eq!(a.mean_ext_reward.to_bits(), b.mean_ext_reward.to_bits());
        assert_eq!(a.mean_intrinsic.to_bits(), b.mean_intrinsic.to_bits());
        assert_eq!(a.classifier_loss.to_bits(), b.classifier_loss.to_bits());
        assert_eq!(a.train_metrics.efficiency.to_bits(), b.train_metrics.efficiency.to_bits());
        assert_eq!(a.lcf_degrees, b.lcf_degrees);
        assert_eq!(a.update_skipped, b.update_skipped);
        // The widened diagnostics signals are observation-only too.
        assert_eq!(a.ppo.approx_kl.to_bits(), b.ppo.approx_kl.to_bits());
        assert_eq!(a.ppo.grad_norm.to_bits(), b.ppo.grad_norm.to_bits());
        assert_eq!(a.ppo.entropy.to_bits(), b.ppo.entropy.to_bits());
        assert_eq!(a.value_loss.to_bits(), b.value_loss.to_bits());
        assert_eq!(a.critic_grad_norm.to_bits(), b.critic_grad_norm.to_bits());
        assert_eq!(a.explained_variance.to_bits(), b.explained_variance.to_bits());
        assert_eq!(a.advantage_mean.to_bits(), b.advantage_mean.to_bits());
        assert_eq!(a.advantage_std.to_bits(), b.advantage_std.to_bits());
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.intrinsic_share), bits(&b.intrinsic_share));
        assert_eq!(bits(&a.collection_share), bits(&b.collection_share));
        // Anomaly stamps come from the diagnostics layer, which only runs
        // on the instrumented pass — the baseline run must stay clean.
        assert!(a.anomalies.is_empty(), "diagnostics must be inert when telemetry is off");
    }
}
