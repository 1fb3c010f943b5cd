//! The air-ground spatial-crowdsourcing Dec-POMDP environment (§III-IV).

use crate::collect::{run_collection_masked, CollectionMask, SlotCollection};
use crate::config::EnvConfig;
use crate::error::EnvError;
use crate::faults::FaultInjector;
use crate::metrics::{MetricInputs, Metrics};
use crate::obs::{global_state, local_observation, obs_dim};
use crate::types::{UvAction, UvKind, UvState};
use agsc_channel::RayleighFading;
use agsc_datasets::CampusDataset;
use agsc_geo::{Aabb, Point, RoadNetwork};
use agsc_telemetry as tlm;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Result of one environment step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Extrinsic reward `r^k_ext` per UV (Eqn 17).
    pub rewards: Vec<f64>,
    /// True once `t == T`.
    pub done: bool,
    /// Full record of the slot's data collection.
    pub collection: SlotCollection,
}

/// The environment: campus geometry + UV fleet + PoI data + channel state.
///
/// Global UV index convention everywhere: `0..U` are UAVs, `U..U+G` UGVs.
#[derive(Debug, Clone)]
pub struct AirGroundEnv {
    cfg: EnvConfig,
    bounds: Aabb,
    roads: RoadNetwork,
    poi_pos: Vec<Point>,
    start: Point,
    uvs: Vec<UvState>,
    poi_remaining: Vec<f64>,
    t: usize,
    fading: RayleighFading,
    rng: ChaCha8Rng,
    total_losses: usize,
    /// Per-UV visited positions, one entry per slot (plus the start).
    trajectories: Vec<Vec<Point>>,
    /// Relay pairs of the most recent slot (h-CoPO heterogeneous neighbours).
    last_relay_pairs: Vec<(usize, usize)>,
    /// Energy spent in the most recent slot, per UV.
    last_energy_spent: Vec<f64>,
    episode_seed: u64,
    /// Fault layer for the current episode (transparent when faults are off).
    injector: FaultInjector,
    /// Liveness per UV for the *current* slot (all true when faults are off).
    alive: Vec<bool>,
}

impl AirGroundEnv {
    /// Build an environment over a campus dataset.
    ///
    /// # Panics
    /// Panics if the config is invalid or the dataset has no PoIs/roads.
    /// Long-running pipelines should prefer [`AirGroundEnv::try_new`].
    pub fn new(cfg: EnvConfig, dataset: &CampusDataset, seed: u64) -> Self {
        match Self::try_new(cfg, dataset, seed) {
            Ok(env) => env,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build an environment over a campus dataset, reporting construction
    /// problems as a typed [`EnvError`] instead of panicking.
    pub fn try_new(cfg: EnvConfig, dataset: &CampusDataset, seed: u64) -> Result<Self, EnvError> {
        if let Err(msg) = cfg.validate() {
            return Err(EnvError::InvalidConfig(msg));
        }
        if dataset.pois.is_empty() {
            return Err(EnvError::BadDataset("dataset has no PoIs".into()));
        }
        if dataset.roads.is_empty() {
            return Err(EnvError::BadDataset("dataset has no road network".into()));
        }
        let poi_pos = dataset.poi_positions();
        let mut env = Self {
            bounds: dataset.bounds,
            roads: dataset.roads.clone(),
            start: dataset.start,
            uvs: Vec::new(),
            poi_remaining: Vec::new(),
            t: 0,
            fading: RayleighFading::unit(cfg.channel.subchannels),
            rng: ChaCha8Rng::seed_from_u64(seed),
            total_losses: 0,
            trajectories: Vec::new(),
            last_relay_pairs: Vec::new(),
            last_energy_spent: Vec::new(),
            episode_seed: seed,
            injector: FaultInjector::disabled(0),
            alive: Vec::new(),
            poi_pos,
            cfg,
        };
        env.reset(seed);
        Ok(env)
    }

    /// Reset to the initial state with a fresh episode seed.
    pub fn reset(&mut self, seed: u64) {
        self.episode_seed = seed;
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.t = 0;
        self.total_losses = 0;
        self.last_relay_pairs.clear();
        self.poi_remaining = vec![self.cfg.poi_initial_bits; self.poi_pos.len()];
        self.uvs.clear();
        for _ in 0..self.cfg.num_uavs {
            self.uvs.push(UvState {
                kind: UvKind::Uav,
                position: self.start,
                energy: self.cfg.uav_energy_j,
                initial_energy: self.cfg.uav_energy_j,
            });
        }
        for _ in 0..self.cfg.num_ugvs {
            self.uvs.push(UvState {
                kind: UvKind::Ugv,
                position: self.start,
                energy: self.cfg.ugv_energy_j,
                initial_energy: self.cfg.ugv_energy_j,
            });
        }
        self.trajectories = vec![vec![self.start]; self.uvs.len()];
        self.last_energy_spent = vec![0.0; self.uvs.len()];
        // The fault stream is salted off the episode seed and never touches
        // `self.rng`, so the dynamics sequence is identical with faults off.
        self.injector = FaultInjector::for_episode(
            &self.cfg.faults,
            self.uvs.len(),
            self.cfg.channel.subchannels,
            self.cfg.horizon,
            seed,
        );
        self.alive = (0..self.uvs.len()).map(|k| self.injector.uv_alive(k, 0)).collect();
        if self.injector.is_active() {
            let fleet = self.uvs.len() as u64;
            tlm::emit_with(tlm::Level::Info, "fault_plan_armed", |e| {
                e.u64("seed", seed).u64("fleet", fleet).u64("horizon", self.cfg.horizon as u64)
            });
        }
        self.redraw_fading();
    }

    fn redraw_fading(&mut self) {
        self.fading = if self.cfg.stochastic_fading {
            RayleighFading::sample(self.cfg.channel.subchannels, &mut self.rng)
        } else {
            RayleighFading::unit(self.cfg.channel.subchannels)
        };
    }

    /// Environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }

    /// Task-area bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Current timeslot.
    pub fn timeslot(&self) -> usize {
        self.t
    }

    /// True once the horizon is reached.
    pub fn is_done(&self) -> bool {
        self.t >= self.cfg.horizon
    }

    /// Number of UVs.
    pub fn num_uvs(&self) -> usize {
        self.uvs.len()
    }

    /// UV states (UAVs first).
    pub fn uv_states(&self) -> &[UvState] {
        &self.uvs
    }

    /// PoI positions.
    pub fn poi_positions(&self) -> &[Point] {
        &self.poi_pos
    }

    /// Remaining data per PoI, bits.
    pub fn poi_remaining(&self) -> &[f64] {
        &self.poi_remaining
    }

    /// Observation/state vector length.
    pub fn obs_dim(&self) -> usize {
        obs_dim(self.uvs.len(), self.poi_pos.len())
    }

    /// Continuous action dimension per UV (heading, speed).
    pub fn action_dim(&self) -> usize {
        2
    }

    /// The unmasked global state `s_t`.
    pub fn global_state(&self) -> Vec<f32> {
        global_state(&self.cfg, &self.bounds, &self.uvs, &self.poi_pos, &self.poi_remaining)
    }

    /// Local observation `o^k_t` for each UV, each masked from one copy of
    /// the global state.
    ///
    /// Under fault injection, a dead UV's observation is fully dark, dead
    /// UVs are zero-masked out of every survivor's observation, and sensor
    /// noise/dropout faults are applied last. With faults off the fault
    /// layer is bypassed entirely.
    pub fn observations(&self) -> Vec<Vec<f32>> {
        self.state_and_observations().1
    }

    /// The global state and every UV's [`observations`](Self::observations)
    /// masked from it: what one collection step records, for one build of
    /// the state.
    pub fn state_and_observations(&self) -> (Vec<f32>, Vec<Vec<f32>>) {
        let state = self.global_state();
        let obs = (0..self.uvs.len())
            .map(|k| {
                let mut o = local_observation(&self.cfg, &state, &self.uvs, &self.poi_pos, k);
                if self.injector.is_active() {
                    if !self.alive[k] {
                        o.fill(0.0);
                    } else {
                        for (j, &alive) in self.alive.iter().enumerate() {
                            if !alive {
                                o[3 * j] = 0.0;
                                o[3 * j + 1] = 0.0;
                                o[3 * j + 2] = 0.0;
                            }
                        }
                        self.injector.perturb_observation(k, self.t, &mut o);
                    }
                }
                o
            })
            .collect();
        (state, obs)
    }

    /// Advance one timeslot: move every UV, run data collection, compute
    /// rewards.
    ///
    /// # Panics
    /// Panics if the action count differs from the fleet size or the episode
    /// is already done.
    pub fn step(&mut self, actions: &[UvAction]) -> StepResult {
        let _span = tlm::span("env_step");
        assert_eq!(actions.len(), self.uvs.len(), "one action per UV required");
        assert!(!self.is_done(), "episode is over; call reset()");

        // --- Movement (τ_move) and energy (Eqn 1) ---------------------------
        for (k, action) in actions.iter().enumerate() {
            // A dead UV holds position and spends nothing.
            let spent = if self.alive[k] { self.move_uv(k, *action) } else { 0.0 };
            self.last_energy_spent[k] = spent;
            let pos = self.uvs[k].position;
            self.trajectories[k].push(pos);
        }

        // --- Data collection (τ_coll) ---------------------------------------
        self.redraw_fading();
        let uav_pos: Vec<Point> =
            self.uvs.iter().filter(|u| u.kind == UvKind::Uav).map(|u| u.position).collect();
        let ugv_pos: Vec<Point> =
            self.uvs.iter().filter(|u| u.kind == UvKind::Ugv).map(|u| u.position).collect();
        let subchannel_up: Vec<bool>;
        let mask_storage;
        let mask = if self.injector.is_active() {
            subchannel_up = (0..self.cfg.channel.subchannels)
                .map(|z| self.injector.subchannel_up(z, self.t))
                .collect();
            mask_storage = CollectionMask { uv_alive: &self.alive, subchannel_up: &subchannel_up };
            Some(&mask_storage)
        } else {
            None
        };
        let collection = run_collection_masked(
            &self.cfg,
            &self.fading,
            &uav_pos,
            &ugv_pos,
            &self.poi_pos,
            &self.poi_remaining,
            mask,
        );
        for (i, delta) in collection.poi_delta.iter().enumerate() {
            self.poi_remaining[i] = (self.poi_remaining[i] - delta).max(0.0);
        }
        self.total_losses += collection.losses_per_uv.iter().sum::<usize>();
        self.last_relay_pairs = collection.relay_pairs.clone();

        // --- Reward (Eqn 17) -------------------------------------------------
        let norm = self.poi_pos.len() as f64 * self.cfg.poi_initial_bits;
        let rewards: Vec<f64> = (0..self.uvs.len())
            .map(|k| {
                let data_term = collection.collected_per_uv[k] / norm;
                let loss_term = self.cfg.loss_penalty * collection.losses_per_uv[k] as f64;
                let energy_term =
                    self.cfg.move_penalty * self.last_energy_spent[k] / self.uvs[k].initial_energy;
                data_term - loss_term - energy_term
            })
            .collect();

        self.t += 1;
        // Refresh liveness for the next slot (deaths are permanent).
        if self.injector.is_active() {
            for (k, a) in self.alive.iter_mut().enumerate() {
                let next = self.injector.uv_alive(k, self.t);
                if *a && !next {
                    tlm::counter_add("uv_failures", 1);
                    let slot = self.t as u64;
                    tlm::emit_with(tlm::Level::Warn, "uv_failed", |e| {
                        e.u64("uv", k as u64).u64("slot", slot).msg("injected UV failure")
                    });
                }
                *a = next;
            }
        }
        StepResult { rewards, done: self.is_done(), collection }
    }

    /// Move UV `k` per its action; returns the energy spent (J).
    fn move_uv(&mut self, k: usize, action: UvAction) -> f64 {
        let uv = self.uvs[k];
        if uv.is_exhausted() {
            return 0.0;
        }
        match uv.kind {
            UvKind::Uav => {
                let (theta, v) = action.decode(self.cfg.uav_max_speed);
                let want = v * self.cfg.move_secs;
                // Energy-feasible distance.
                let affordable = uv.energy / self.cfg.uav_energy_per_m;
                let dist = want.min(affordable);
                let raw = uv.position.polar_offset(theta, dist);
                let clamped = self.bounds.clamp(&raw);
                // Pay only for distance actually flown (boundary clamp may
                // shorten the leg).
                let flown = uv.position.dist(&clamped);
                let spent = flown * self.cfg.uav_energy_per_m;
                self.uvs[k].position = clamped;
                self.uvs[k].energy = (uv.energy - spent).max(0.0);
                spent
            }
            UvKind::Ugv => {
                let (theta, v) = action.decode(self.cfg.ugv_max_speed);
                let want = v * self.cfg.move_secs;
                let affordable = uv.energy / self.cfg.ugv_energy_per_m;
                let budget = want.min(affordable);
                let target = self.bounds.clamp(&uv.position.polar_offset(theta, want));
                let walk = self.roads.walk_towards(&uv.position, &target, budget);
                let spent = walk.travelled * self.cfg.ugv_energy_per_m;
                self.uvs[k].position = walk.position;
                self.uvs[k].energy = (uv.energy - spent).max(0.0);
                spent
            }
        }
    }

    /// Heterogeneous relay pairs active in the most recent slot —
    /// h-CoPO's `N_HE` (§V-B).
    pub fn relay_pairs(&self) -> &[(usize, usize)] {
        &self.last_relay_pairs
    }

    /// Heterogeneous neighbours of each UV: its relay partners in the most
    /// recent slot — h-CoPO's `N_HE` (§V-B), per UV.
    pub fn heterogeneous_neighbors(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.uvs.len()];
        for &(u, g) in &self.last_relay_pairs {
            out[u].push(g);
            out[g].push(u);
        }
        out
    }

    /// Homogeneous neighbours of each UV: same-kind UVs within `range`
    /// metres — h-CoPO's `N_HO` (§V-B).
    pub fn homogeneous_neighbors(&self, range: f64) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.uvs.len()];
        for (i, row) in out.iter_mut().enumerate() {
            for j in 0..self.uvs.len() {
                if i != j
                    && self.alive[i]
                    && self.alive[j]
                    && self.uvs[i].kind == self.uvs[j].kind
                    && self.uvs[i].position.dist(&self.uvs[j].position) <= range
                {
                    row.push(j);
                }
            }
        }
        out
    }

    /// Per-UV liveness for the current slot (all `true` when faults are off).
    pub fn uv_alive(&self) -> &[bool] {
        &self.alive
    }

    /// The episode's fault injector (transparent when faults are off).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// End-of-episode metrics (valid at any time; ratios are w.r.t. the
    /// elapsed horizon).
    pub fn metrics(&self) -> Metrics {
        let uav_fracs: Vec<f64> = self
            .uvs
            .iter()
            .filter(|u| u.kind == UvKind::Uav)
            .map(|u| 1.0 - u.energy_frac())
            .collect();
        let ugv_fracs: Vec<f64> = self
            .uvs
            .iter()
            .filter(|u| u.kind == UvKind::Ugv)
            .map(|u| 1.0 - u.energy_frac())
            .collect();
        MetricInputs {
            poi_initial: vec![self.cfg.poi_initial_bits; self.poi_pos.len()],
            poi_remaining: self.poi_remaining.clone(),
            loss_events: self.total_losses,
            subchannels: self.cfg.channel.subchannels,
            horizon: self.cfg.horizon,
            num_uvs: self.uvs.len(),
            uav_energy_fracs: uav_fracs,
            ugv_energy_fracs: ugv_fracs,
        }
        .compute()
    }

    /// Per-UV trajectory (start position plus one point per elapsed slot).
    pub fn trajectories(&self) -> &[Vec<Point>] {
        &self.trajectories
    }

    /// Road network reference (for planners and rendering).
    pub fn roads(&self) -> &RoadNetwork {
        &self.roads
    }

    /// Common start position.
    pub fn start(&self) -> Point {
        self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsc_datasets::presets;

    fn small_env() -> AirGroundEnv {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { stochastic_fading: false, ..EnvConfig::default() };
        AirGroundEnv::new(cfg, &dataset, 7)
    }

    #[test]
    fn reset_state_is_clean() {
        let env = small_env();
        assert_eq!(env.timeslot(), 0);
        assert!(!env.is_done());
        assert_eq!(env.num_uvs(), 4);
        assert!(env.uv_states().iter().all(|u| u.position == env.start()));
        assert!(env.poi_remaining().iter().all(|&d| d == 3e9));
        assert_eq!(env.obs_dim(), 3 * (4 + 100));
    }

    #[test]
    fn step_advances_time_and_episode_terminates() {
        let mut env = small_env();
        let actions = vec![UvAction::stay(); env.num_uvs()];
        for t in 0..100 {
            assert_eq!(env.timeslot(), t);
            let r = env.step(&actions);
            assert_eq!(r.rewards.len(), 4);
            if t == 99 {
                assert!(r.done);
            } else {
                assert!(!r.done);
            }
        }
        assert!(env.is_done());
    }

    #[test]
    #[should_panic(expected = "episode is over")]
    fn step_after_done_panics() {
        let mut env = small_env();
        let actions = vec![UvAction::stay(); env.num_uvs()];
        for _ in 0..101 {
            env.step(&actions);
        }
    }

    #[test]
    fn uav_moves_freely_ugv_follows_roads() {
        let mut env = small_env();
        let mut actions = vec![UvAction::stay(); env.num_uvs()];
        actions[0] = UvAction { heading: 0.25, speed: 1.0 }; // UAV NE at full speed
        actions[2] = UvAction { heading: 0.25, speed: 1.0 }; // UGV same order
        let start = env.start();
        env.step(&actions);
        let uav = env.uv_states()[0];
        let ugv = env.uv_states()[2];
        // UAV covered its full budget (180 m) in a straight line.
        assert!((uav.position.dist(&start) - 180.0).abs() < 1e-6);
        // UGV moved along roads: at most its 100 m budget.
        assert!(ugv.position.dist(&start) <= 100.0 + 1e-6);
        // UGV position is on (or extremely near) a road segment endpoint
        // interpolation — at minimum it must differ from a free-flight result.
        assert!(env.roads().nearest_node(&ugv.position) < env.roads().node_count());
    }

    #[test]
    fn movement_consumes_energy_proportionally() {
        let mut env = small_env();
        let mut actions = vec![UvAction::stay(); env.num_uvs()];
        actions[0] = UvAction { heading: 0.0, speed: 1.0 };
        let e0 = env.uv_states()[0].energy;
        env.step(&actions);
        let e1 = env.uv_states()[0].energy;
        let expected = 180.0 * env.config().uav_energy_per_m;
        assert!(((e0 - e1) - expected).abs() < 1e-6);
        // Stationary UVs spend nothing.
        assert_eq!(env.uv_states()[1].energy, env.config().uav_energy_j);
    }

    #[test]
    fn exhausted_uv_cannot_move() {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig {
            stochastic_fading: false,
            uav_energy_j: 100.0, // tiny reserve
            ..EnvConfig::default()
        };
        let mut env = AirGroundEnv::new(cfg, &dataset, 7);
        let mut actions = vec![UvAction::stay(); env.num_uvs()];
        actions[0] = UvAction { heading: 0.0, speed: 1.0 };
        env.step(&actions);
        assert!(env.uv_states()[0].is_exhausted());
        let pos_after_drain = env.uv_states()[0].position;
        env.step(&actions);
        assert_eq!(env.uv_states()[0].position, pos_after_drain);
    }

    #[test]
    fn uavs_stay_inside_bounds() {
        let mut env = small_env();
        let actions: Vec<UvAction> =
            (0..env.num_uvs()).map(|_| UvAction { heading: 0.37, speed: 1.0 }).collect();
        for _ in 0..100 {
            env.step(&actions);
        }
        let b = env.bounds();
        for uv in env.uv_states() {
            assert!(b.contains(&uv.position));
        }
    }

    #[test]
    fn collection_near_pois_generates_reward_and_drains_data() {
        let mut env = small_env();
        let total_before: f64 = env.poi_remaining().iter().sum();
        let mut collected_reward = 0.0;
        // Greedy chase: every UV heads for its nearest data-bearing PoI.
        for _ in 0..30 {
            let actions: Vec<UvAction> = env
                .uv_states()
                .iter()
                .map(|uv| {
                    let target = env
                        .poi_positions()
                        .iter()
                        .zip(env.poi_remaining())
                        .filter(|(_, &rem)| rem > 0.0)
                        .min_by(|(a, _), (b, _)| {
                            uv.position.dist(a).partial_cmp(&uv.position.dist(b)).unwrap()
                        })
                        .map(|(p, _)| *p)
                        .unwrap_or(uv.position);
                    let heading = (target.y - uv.position.y).atan2(target.x - uv.position.x)
                        / std::f64::consts::PI;
                    UvAction { heading, speed: 1.0 }
                })
                .collect();
            let r = env.step(&actions);
            collected_reward += r.rewards.iter().sum::<f64>();
        }
        let total_after: f64 = env.poi_remaining().iter().sum();
        assert!(total_after < total_before, "a PoI-chasing fleet must drain data within 30 slots");
        assert!(collected_reward.is_finite());
    }

    #[test]
    fn metrics_consistent_after_episode() {
        let mut env = small_env();
        let actions = vec![UvAction { heading: 0.1, speed: 0.0 }; env.num_uvs()];
        for _ in 0..100 {
            env.step(&actions);
        }
        let m = env.metrics();
        assert!((0.0..=1.0).contains(&m.data_collection_ratio));
        assert!((0.0..=1.0).contains(&m.data_loss_ratio));
        assert!((0.0..=1.0).contains(&m.fairness));
        assert!(m.energy_ratio >= 0.0 && m.energy_ratio <= 2.0);
        assert!(m.efficiency >= 0.0);
    }

    #[test]
    fn trajectories_recorded_per_slot() {
        let mut env = small_env();
        let actions = vec![UvAction::stay(); env.num_uvs()];
        for _ in 0..5 {
            env.step(&actions);
        }
        for traj in env.trajectories() {
            assert_eq!(traj.len(), 6); // start + 5 slots
        }
    }

    #[test]
    fn homogeneous_neighbors_by_kind_and_range() {
        let env = small_env();
        // At reset all UVs share the start position.
        let n = env.homogeneous_neighbors(10.0);
        assert_eq!(n[0], vec![1]); // UAV 0's same-kind neighbour is UAV 1
        assert_eq!(n[2], vec![3]); // UGV 2's same-kind neighbour is UGV 3
        let none = env.homogeneous_neighbors(0.0);
        // Range 0 still matches co-located UVs (distance 0 ≤ 0).
        assert_eq!(none[0], vec![1]);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { horizon: 0, ..EnvConfig::default() };
        match AirGroundEnv::try_new(cfg, &dataset, 1) {
            Err(crate::error::EnvError::InvalidConfig(msg)) => {
                assert!(msg.contains("horizon"));
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn dead_uv_holds_position_and_spends_nothing() {
        let dataset = presets::purdue(1);
        let mut cfg = EnvConfig { stochastic_fading: false, ..EnvConfig::default() };
        cfg.faults.uv_failure_rate = 1.0;
        cfg.faults.failure_window = (0.0, 0.0); // everyone dead from slot 0
        let mut env = AirGroundEnv::new(cfg, &dataset, 7);
        assert!(env.uv_alive().iter().all(|&a| !a));
        let actions = vec![UvAction { heading: 0.0, speed: 1.0 }; env.num_uvs()];
        let r = env.step(&actions);
        for (uv, reward) in env.uv_states().iter().zip(&r.rewards) {
            assert_eq!(uv.position, env.start());
            assert_eq!(uv.energy, uv.initial_energy);
            assert_eq!(*reward, 0.0);
        }
        // Dead observers are fully dark.
        assert!(env.observations().iter().all(|o| o.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn faulty_episode_completes_with_finite_metrics() {
        let dataset = presets::purdue(1);
        let mut cfg = EnvConfig { horizon: 30, ..EnvConfig::default() };
        cfg.faults.uv_failure_rate = 0.75;
        cfg.faults.outage_rate = 0.2;
        cfg.faults.outage_len = (1, 5);
        cfg.faults.obs_noise_std = 0.05;
        cfg.faults.obs_drop_rate = 0.1;
        let mut env = AirGroundEnv::new(cfg, &dataset, 11);
        let actions = vec![UvAction { heading: 0.3, speed: 0.8 }; env.num_uvs()];
        while !env.is_done() {
            let r = env.step(&actions);
            assert!(r.rewards.iter().all(|x| x.is_finite()));
            assert!(env.observations().iter().flatten().all(|v| v.is_finite()));
        }
        let m = env.metrics();
        assert!((0.0..=1.0).contains(&m.data_collection_ratio));
        assert!((0.0..=1.0).contains(&m.data_loss_ratio));
        assert!((0.0..=1.0).contains(&m.fairness));
        assert!(m.efficiency.is_finite() && m.efficiency >= 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig::default();
        let mut a = AirGroundEnv::new(cfg.clone(), &dataset, 3);
        let mut b = AirGroundEnv::new(cfg, &dataset, 3);
        let actions = vec![UvAction { heading: 0.5, speed: 0.5 }; a.num_uvs()];
        for _ in 0..10 {
            let ra = a.step(&actions);
            let rb = b.step(&actions);
            assert_eq!(ra.rewards, rb.rewards);
        }
        assert_eq!(a.global_state(), b.global_state());
    }

    #[test]
    fn observations_are_the_global_state_masked_to_each_uvs_range() {
        let mut env = small_env();
        let actions: Vec<UvAction> = (0..env.num_uvs())
            .map(|k| UvAction { heading: 0.3 * k as f64 - 0.5, speed: 1.0 })
            .collect();
        for _ in 0..4 {
            env.step(&actions);
        }
        let (state, obs) = (env.global_state(), env.observations());
        let range = env.config().obs_range;
        let uvs = env.uv_states();
        let entities: Vec<Point> =
            uvs.iter().map(|u| u.position).chain(env.poi_positions().iter().copied()).collect();
        let (mut seen, mut blanked) = (0, 0);
        for (k, o) in obs.iter().enumerate() {
            let me = uvs[k].position;
            for (e, p) in entities.iter().enumerate() {
                let (got, want) = (&o[3 * e..3 * e + 3], &state[3 * e..3 * e + 3]);
                if e == k || me.dist(p) <= range {
                    assert_eq!(got, want, "UV {k} must see entity {e} as the state has it");
                    seen += 1;
                } else {
                    assert_eq!(got, &[0.0; 3], "UV {k} must not see entity {e}");
                    blanked += 1;
                }
            }
        }
        assert!(seen > env.num_uvs() && blanked > 0, "both branches exercised");
    }

    #[test]
    fn reset_restores_initial_conditions() {
        let mut env = small_env();
        let actions = vec![UvAction { heading: 0.0, speed: 1.0 }; env.num_uvs()];
        for _ in 0..20 {
            env.step(&actions);
        }
        env.reset(7);
        assert_eq!(env.timeslot(), 0);
        assert!(env.poi_remaining().iter().all(|&d| d == 3e9));
        assert!(env.uv_states().iter().all(|u| u.position == env.start()));
    }
}
