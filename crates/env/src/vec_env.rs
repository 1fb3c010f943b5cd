//! Vectorized environments: N independently seeded replicas of one
//! [`AirGroundEnv`], stepped in lockstep by the parallel rollout engine.
//!
//! ## Seeding discipline
//!
//! Every rollout collection draws **one** `batch_seed` from the trainer RNG
//! (regardless of how many replicas run), and each replica `i` derives two
//! decorrelated sub-seeds from it:
//!
//! * [`derive_env_seed`] — seeds `env.reset(..)` (PoI layout shuffle,
//!   fading, fault plans — the PR-1 discipline salts all of those off the
//!   episode seed),
//! * [`derive_sampler_seed`] — seeds the per-replica action-sampling RNG,
//!   so the stochastic-policy noise stream of replica `i` is a pure
//!   function of `(batch_seed, i)` and never depends on worker scheduling.
//!
//! Both derivations are a splitmix64-style finalizer over an input that is
//! affine in the replica index with an odd multiplier: the pre-mix input is
//! injective in `i`, the finalizer is a bijection on `u64`, so derived
//! seeds never collide across replicas of one batch. Being pure functions,
//! they are also stable across runs, processes, and platforms — the
//! property test suite pins golden values.

use crate::env::AirGroundEnv;
use crate::metrics::Metrics;

/// Weyl-sequence increment of splitmix64 (odd ⇒ `i ↦ i·γ` is injective).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// Stream salt for environment seeds (`b"AGSC_ENV"` as big-endian bytes).
const ENV_STREAM: u64 = 0x4147_5343_5F45_4E56;
/// Stream salt for action-sampler seeds (`b"AGSC_SMP"`).
const SAMPLER_STREAM: u64 = 0x4147_5343_5F53_4D50;

/// splitmix64 finalizer — a bijection on `u64` with good avalanche.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(batch_seed: u64, env_index: usize, stream: u64) -> u64 {
    finalize(
        batch_seed.wrapping_add(stream).wrapping_add((env_index as u64).wrapping_mul(GOLDEN_GAMMA)),
    )
}

/// Episode seed for replica `env_index` of the batch seeded by `batch_seed`.
///
/// Injective in `env_index` for a fixed `batch_seed` and stable across runs.
pub fn derive_env_seed(batch_seed: u64, env_index: usize) -> u64 {
    mix(batch_seed, env_index, ENV_STREAM)
}

/// Action-sampler seed for replica `env_index` of the batch seeded by
/// `batch_seed` — a stream decorrelated from [`derive_env_seed`] so policy
/// noise and environment randomness never share a generator.
pub fn derive_sampler_seed(batch_seed: u64, env_index: usize) -> u64 {
    mix(batch_seed, env_index, SAMPLER_STREAM)
}

/// N replicas of one environment, reset together off derived seeds.
///
/// Replicas are full clones of the prototype (same config, dataset-derived
/// PoIs, and fleet), so they share one horizon and finish every episode in
/// lockstep; only their seeds differ.
#[derive(Debug, Clone)]
pub struct VecEnv {
    envs: Vec<AirGroundEnv>,
}

impl VecEnv {
    /// Clone `proto` into `num_envs` replicas.
    ///
    /// # Panics
    /// Panics if `num_envs` is zero.
    pub fn new(proto: &AirGroundEnv, num_envs: usize) -> Self {
        assert!(num_envs >= 1, "a VecEnv needs at least one replica");
        Self { envs: vec![proto.clone(); num_envs] }
    }

    /// Number of replicas.
    #[allow(clippy::len_without_is_empty)] // construction forbids empty
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// Shared view of every replica, in fixed index order.
    pub fn envs(&self) -> &[AirGroundEnv] {
        &self.envs
    }

    /// Mutable view of every replica, in fixed index order.
    pub fn envs_mut(&mut self) -> &mut [AirGroundEnv] {
        &mut self.envs
    }

    /// Replica `i`.
    pub fn env(&self, i: usize) -> &AirGroundEnv {
        &self.envs[i]
    }

    /// Per-replica task metrics (ψ σ ξ κ λ), in fixed index order.
    pub fn metrics(&self) -> Vec<Metrics> {
        self.envs.iter().map(AirGroundEnv::metrics).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;
    use agsc_datasets::presets;

    fn proto() -> AirGroundEnv {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { horizon: 5, stochastic_fading: false, ..EnvConfig::default() };
        AirGroundEnv::new(cfg, &dataset, 7)
    }

    #[test]
    fn derivation_matches_pinned_golden_values() {
        // Stability across runs/platforms: these are the constants the
        // derivation produced when the scheme was introduced. If they move,
        // every recorded batch seed re-derives different episodes.
        assert_eq!(derive_env_seed(0, 0), 0x4290_C06A_6AD4_E3AA);
        assert_eq!(derive_env_seed(0, 1), 0x365C_5D0A_B747_365A);
        assert_eq!(derive_env_seed(0x5EED, 0), 0xD295_30B5_C100_FC97);
        assert_eq!(derive_env_seed(0x5EED, 3), 0x0697_53E0_6AD4_503B);
        assert_eq!(derive_sampler_seed(0x5EED, 0), 0x9DC7_D2D3_E168_3009);
        assert_eq!(derive_sampler_seed(0x5EED, 3), 0x6213_F69B_BFD8_975E);
    }

    #[test]
    fn env_and_sampler_streams_differ() {
        for i in 0..16 {
            assert_ne!(derive_env_seed(42, i), derive_sampler_seed(42, i));
        }
    }

    #[test]
    fn replicas_are_independent_after_derived_reset() {
        let mut v = VecEnv::new(&proto(), 3);
        assert_eq!(v.len(), 3);
        for (i, env) in v.envs_mut().iter_mut().enumerate() {
            env.reset(derive_env_seed(0x5EED, i));
        }
        // Replica 0 re-run standalone with its derived seed must match the
        // in-batch replica exactly.
        let mut solo = proto();
        solo.reset(derive_env_seed(0x5EED, 0));
        assert_eq!(solo.observations(), v.env(0).observations());
        assert_eq!(solo.global_state(), v.env(0).global_state());
    }

    #[test]
    fn metrics_reports_one_row_per_replica() {
        let mut v = VecEnv::new(&proto(), 2);
        for (i, env) in v.envs_mut().iter_mut().enumerate() {
            env.reset(derive_env_seed(9, i));
        }
        assert_eq!(v.metrics().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = VecEnv::new(&proto(), 0);
    }
}
