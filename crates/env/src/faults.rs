//! Deterministic fault injection: UV failures, subchannel outages, sensor
//! noise.
//!
//! The paper's fleet operates under adverse physical conditions, yet the base
//! environment assumes nothing ever breaks. This module adds a seeded fault
//! layer so robustness experiments (λ-vs-failure-rate curves, degraded-fleet
//! training) are first-class:
//!
//! * **UV failure** — a UV dies at a sampled timeslot (battery fault, crash).
//!   From that slot on it stops moving, collecting, and relaying; its
//!   observation slots are zero-masked for every other UV, and its own
//!   observation goes fully dark.
//! * **Subchannel outage** — a subchannel blacks out for a window of slots
//!   ([`agsc_channel::OutageSchedule`]). Uploads scheduled on a downed
//!   subchannel fail and count toward the data-loss ratio σ.
//! * **Observation faults** — per-UV, per-slot Gaussian sensor noise and
//!   whole-observation dropouts.
//!
//! **Seeding discipline:** every fault is derived from the episode seed
//! through its own salted ChaCha stream — the dynamics RNG (fading draws,
//! rollout seeds) consumes exactly the same sequence whether faults are on or
//! off, so `FaultConfig::default()` (all off) reproduces fault-free episodes
//! bit-identically, and any fault plan is replayable from the seed alone.
//! Observation perturbations are *stateless*: each is a pure function of
//! `(fault seed, slot, uv)`, so repeated [`FaultInjector::perturb_observation`]
//! calls for the same slot agree and `&self` observation builders stay pure.

use agsc_channel::OutageSchedule;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Salt separating the fault stream from the dynamics stream.
const FAULT_STREAM_SALT: u64 = 0xFA_17_5E_ED_0B_AD_CA_FE;

/// Salt separating per-(slot, uv) observation-noise streams.
const OBS_STREAM_SALT: u64 = 0x0B5E_0000_C0FF_EE01;

/// Fault-injection knobs. The default disables everything and is provably
/// zero-cost: no fault RNG is created and the collection path is unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a given UV fails at some point in the episode.
    pub uv_failure_rate: f64,
    /// Window, as fractions of the horizon `(start, end)`, inside which
    /// failures strike. `(0.0, 1.0)` allows failure at any slot.
    pub failure_window: (f64, f64),
    /// Per-subchannel, per-slot probability that an outage window begins.
    pub outage_rate: f64,
    /// Inclusive range of outage-window lengths, in slots.
    pub outage_len: (usize, usize),
    /// Std-dev of Gaussian noise added to every observation entry.
    pub obs_noise_std: f32,
    /// Probability a UV's entire observation is dropped (zeroed) for a slot.
    pub obs_drop_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            uv_failure_rate: 0.0,
            failure_window: (0.0, 1.0),
            outage_rate: 0.0,
            outage_len: (1, 1),
            obs_noise_std: 0.0,
            obs_drop_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// True when every fault channel is disabled.
    pub fn is_off(&self) -> bool {
        self.uv_failure_rate == 0.0
            && self.outage_rate == 0.0
            && self.obs_noise_std == 0.0
            && self.obs_drop_rate == 0.0
    }

    /// Validate the knobs; returns an error string on failure.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("uv_failure_rate", self.uv_failure_rate),
            ("outage_rate", self.outage_rate),
            ("obs_drop_rate", self.obs_drop_rate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        let (a, b) = self.failure_window;
        if !(0.0..=1.0).contains(&a) || !(0.0..=1.0).contains(&b) || a > b {
            return Err(format!(
                "failure_window must satisfy 0 <= start <= end <= 1, got ({a}, {b})"
            ));
        }
        if self.outage_len.0 == 0 || self.outage_len.0 > self.outage_len.1 {
            return Err(format!(
                "outage_len must satisfy 1 <= min <= max, got {:?}",
                self.outage_len
            ));
        }
        if !self.obs_noise_std.is_finite() || self.obs_noise_std < 0.0 {
            return Err(format!(
                "obs_noise_std must be finite and >= 0, got {}",
                self.obs_noise_std
            ));
        }
        Ok(())
    }
}

/// The concrete faults sampled for one episode — fully determined by
/// `(FaultConfig, fleet size, subchannels, horizon, episode seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Slot at which each UV dies; `usize::MAX` means it never fails.
    pub uv_down_at: Vec<usize>,
    /// Per-subchannel outage windows.
    pub outages: OutageSchedule,
}

impl FaultPlan {
    /// Sample a plan from the fault stream derived from `episode_seed`.
    pub fn sample(
        cfg: &FaultConfig,
        num_uvs: usize,
        subchannels: usize,
        horizon: usize,
        episode_seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(episode_seed, FAULT_STREAM_SALT));
        let lo = ((cfg.failure_window.0 * horizon as f64).floor() as usize).min(horizon);
        let hi = ((cfg.failure_window.1 * horizon as f64).ceil() as usize).clamp(lo, horizon);
        let uv_down_at = (0..num_uvs)
            .map(|_| {
                if rng.gen::<f64>() < cfg.uv_failure_rate {
                    if hi > lo {
                        rng.gen_range(lo..hi)
                    } else {
                        lo
                    }
                } else {
                    usize::MAX
                }
            })
            .collect();
        let outages = if cfg.outage_rate > 0.0 {
            OutageSchedule::sample(subchannels, horizon, cfg.outage_rate, cfg.outage_len, &mut rng)
        } else {
            OutageSchedule::always_up(subchannels, horizon)
        };
        Self { uv_down_at, outages }
    }

    /// A plan with no faults at all.
    pub fn none(num_uvs: usize, subchannels: usize, horizon: usize) -> Self {
        Self {
            uv_down_at: vec![usize::MAX; num_uvs],
            outages: OutageSchedule::always_up(subchannels, horizon),
        }
    }
}

/// Applies a [`FaultPlan`] during an episode. Created at every environment
/// reset; all queries are pure (`&self`) so observation building stays
/// side-effect free.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    plan: FaultPlan,
    seed: u64,
    active: bool,
}

impl FaultInjector {
    /// An injector that never injects anything (the all-off fast path).
    pub fn disabled(num_uvs: usize) -> Self {
        Self {
            cfg: FaultConfig::default(),
            plan: FaultPlan::none(num_uvs, 0, 0),
            seed: 0,
            active: false,
        }
    }

    /// Build the injector for one episode. When `cfg.is_off()` this is
    /// equivalent to [`FaultInjector::disabled`] and samples nothing.
    pub fn for_episode(
        cfg: &FaultConfig,
        num_uvs: usize,
        subchannels: usize,
        horizon: usize,
        episode_seed: u64,
    ) -> Self {
        if cfg.is_off() {
            return Self::disabled(num_uvs);
        }
        Self {
            cfg: cfg.clone(),
            plan: FaultPlan::sample(cfg, num_uvs, subchannels, horizon, episode_seed),
            seed: episode_seed,
            active: true,
        }
    }

    /// Whether any fault channel is live this episode.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The sampled plan (all-clear when inactive).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Is UV `k` alive during slot `t`? A UV with `uv_down_at[k] == d` acts
    /// normally for slots `0..d` and is dead from slot `d` on.
    pub fn uv_alive(&self, k: usize, t: usize) -> bool {
        !self.active || self.plan.uv_down_at.get(k).is_none_or(|&d| t < d)
    }

    /// Is subchannel `z` usable during slot `t`?
    pub fn subchannel_up(&self, z: usize, t: usize) -> bool {
        !self.active || self.plan.outages.is_up(z, t)
    }

    /// Apply observation faults (dropout, Gaussian noise) in place for UV
    /// `k`'s observation at slot `t`. Pure in `(seed, t, k)`: the same slot
    /// always yields the same perturbation.
    pub fn perturb_observation(&self, k: usize, t: usize, obs: &mut [f32]) {
        if !self.active || (self.cfg.obs_noise_std == 0.0 && self.cfg.obs_drop_rate == 0.0) {
            return;
        }
        let stream = mix(mix(self.seed, OBS_STREAM_SALT), (t as u64) << 20 | k as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(stream);
        if self.cfg.obs_drop_rate > 0.0 && rng.gen::<f64>() < self.cfg.obs_drop_rate {
            obs.fill(0.0);
            return;
        }
        if self.cfg.obs_noise_std > 0.0 {
            let std = self.cfg.obs_noise_std;
            let mut pending: Option<f32> = None;
            for v in obs.iter_mut() {
                let n = match pending.take() {
                    Some(n) => n,
                    None => {
                        let (a, b) = gaussian_pair(&mut rng);
                        pending = Some(b);
                        a
                    }
                };
                *v += std * n;
            }
        }
    }
}

/// SplitMix64-style mixer for deriving independent seed streams.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Box-Muller: two independent standard normals from two uniforms.
fn gaussian_pair<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    // Guard the log against u1 == 0.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    ((r * theta.cos()) as f32, (r * theta.sin()) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty_cfg() -> FaultConfig {
        FaultConfig {
            uv_failure_rate: 0.5,
            failure_window: (0.2, 0.8),
            outage_rate: 0.05,
            outage_len: (2, 4),
            obs_noise_std: 0.01,
            obs_drop_rate: 0.1,
        }
    }

    #[test]
    fn default_is_off_and_valid() {
        let c = FaultConfig::default();
        assert!(c.is_off());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let c = FaultConfig { uv_failure_rate: 1.5, ..FaultConfig::default() };
        assert!(c.validate().is_err());
        let c = FaultConfig { failure_window: (0.8, 0.2), ..FaultConfig::default() };
        assert!(c.validate().is_err());
        let c = FaultConfig { outage_len: (0, 3), ..FaultConfig::default() };
        assert!(c.validate().is_err());
        let c = FaultConfig { obs_noise_std: -1.0, ..FaultConfig::default() };
        assert!(c.validate().is_err());
        assert!(faulty_cfg().validate().is_ok());
    }

    #[test]
    fn plan_is_deterministic_given_seed() {
        let c = faulty_cfg();
        let a = FaultPlan::sample(&c, 6, 3, 100, 42);
        let b = FaultPlan::sample(&c, 6, 3, 100, 42);
        assert_eq!(a, b);
        let c2 = FaultPlan::sample(&c, 6, 3, 100, 43);
        assert!(a != c2 || a.uv_down_at.iter().all(|&d| d == usize::MAX));
    }

    #[test]
    fn failure_slots_respect_the_window() {
        let mut c = faulty_cfg();
        c.uv_failure_rate = 1.0;
        for seed in 0..20 {
            let plan = FaultPlan::sample(&c, 4, 3, 100, seed);
            for &d in &plan.uv_down_at {
                assert!((20..80).contains(&d), "death slot {d} outside [20, 80)");
            }
        }
    }

    #[test]
    fn injector_death_is_permanent() {
        let c = FaultConfig {
            uv_failure_rate: 1.0,
            failure_window: (0.5, 0.5),
            ..FaultConfig::default()
        };
        let inj = FaultInjector::for_episode(&c, 2, 3, 100, 7);
        assert!(inj.uv_alive(0, 0) && inj.uv_alive(0, 49));
        assert!(!inj.uv_alive(0, 50));
        assert!(!inj.uv_alive(0, 99));
    }

    #[test]
    fn disabled_injector_is_transparent() {
        let inj = FaultInjector::disabled(4);
        assert!(!inj.is_active());
        assert!(inj.uv_alive(0, 0) && inj.uv_alive(3, 1_000));
        assert!(inj.subchannel_up(0, 0) && inj.subchannel_up(99, 99));
        let mut obs = vec![0.5f32; 8];
        inj.perturb_observation(0, 0, &mut obs);
        assert_eq!(obs, vec![0.5f32; 8]);
    }

    #[test]
    fn off_config_builds_disabled_injector() {
        let inj = FaultInjector::for_episode(&FaultConfig::default(), 4, 3, 100, 9);
        assert!(!inj.is_active());
    }

    #[test]
    fn observation_perturbation_is_stateless() {
        let c = faulty_cfg();
        let inj = FaultInjector::for_episode(&c, 4, 3, 100, 11);
        let base = vec![0.3f32; 12];
        let mut a = base.clone();
        let mut b = base.clone();
        inj.perturb_observation(1, 5, &mut a);
        inj.perturb_observation(1, 5, &mut b);
        assert_eq!(a, b, "same (seed, slot, uv) must perturb identically");
        let mut other_slot = base.clone();
        inj.perturb_observation(1, 6, &mut other_slot);
        let mut other_uv = base;
        inj.perturb_observation(2, 5, &mut other_uv);
        assert!(a != other_slot || a != other_uv, "streams must differ across (t, k)");
    }

    #[test]
    fn noise_keeps_values_finite() {
        let c = FaultConfig { obs_noise_std: 5.0, ..FaultConfig::default() };
        let inj = FaultInjector::for_episode(&c, 2, 3, 50, 3);
        for t in 0..50 {
            let mut obs = vec![0.1f32; 9];
            inj.perturb_observation(0, t, &mut obs);
            assert!(obs.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn full_drop_rate_blanks_every_observation() {
        let c = FaultConfig { obs_drop_rate: 1.0, ..FaultConfig::default() };
        let inj = FaultInjector::for_episode(&c, 2, 3, 50, 3);
        let mut obs = vec![0.7f32; 6];
        inj.perturb_observation(1, 10, &mut obs);
        assert_eq!(obs, vec![0.0f32; 6]);
    }
}
