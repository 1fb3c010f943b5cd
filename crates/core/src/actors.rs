//! The actor-only half of a fleet: everything decentralised execution
//! needs, and the one rollout collector that runs on it.
//!
//! h/i-MADRL trains centrally but executes decentrally (§V): each UV acts
//! on its own observation with its own actor. [`ActorSet`] is that view —
//! every agent's actor trunk and log-σ plus the fleet's shape — borrowed
//! either from a [`crate::trainer::HiMadrlTrainer`] (no copy) or from an
//! [`InferencePolicy`], the owned actor-only snapshot that policy servers
//! and dist workers hold. Collection runs against the view, so nothing
//! that only runs the actors has to build critics, `V_all`, LCFs, the
//! i-EOI classifier or optimiser state.

use crate::checkpoint::Checkpoint;
use crate::error::CheckpointError;
use crate::parallel::{resolve_workers, scoped_shards};
use crate::rollout::Rollout;
use agsc_env::{derive_env_seed, derive_sampler_seed, AirGroundEnv, UvAction};
use agsc_nn::{DiagGaussian, Matrix, Mlp};
use agsc_telemetry as tlm;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// Width of every UV action: `[heading, speed]`.
pub const ACTION_DIM: usize = 2;

/// The fleet-level facts collection checks an actor set against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetShape {
    /// One actor serves every UV (`TrainConfig::shared_params`).
    pub shared: bool,
    /// Observation dimensionality.
    pub obs_dim: usize,
    /// Fleet size: valid agent ids are `0..num_agents`.
    pub num_agents: usize,
    /// Homogeneous-neighbour range in metres, recorded with each step.
    pub neighbor_range_m: f64,
}

impl FleetShape {
    fn actor_count(&self) -> usize {
        if self.shared {
            1
        } else {
            self.num_agents
        }
    }
}

/// One agent's policy, borrowed: the actor trunk and its log-σ.
#[derive(Debug, Clone, Copy)]
pub struct ActorRef<'a> {
    /// Policy trunk: observation → action mean.
    pub net: &'a Mlp,
    /// State-independent log standard deviations, one per action dim.
    pub log_std: &'a [f32],
}

/// A borrowed actor-only view of a fleet.
#[derive(Debug, Clone)]
pub struct ActorSet<'a> {
    actors: Vec<ActorRef<'a>>,
    shape: FleetShape,
}

impl<'a> ActorSet<'a> {
    /// A view over `actors` (one, or one per agent, as `shape` says).
    pub(crate) fn new(actors: Vec<ActorRef<'a>>, shape: FleetShape) -> Self {
        debug_assert_eq!(actors.len(), shape.actor_count());
        Self { actors, shape }
    }

    /// The actors, one per agent or a single shared one.
    pub fn actors(&self) -> &[ActorRef<'a>] {
        &self.actors
    }

    /// The fleet's shape.
    pub fn shape(&self) -> &FleetShape {
        &self.shape
    }

    fn actor(&self, k: usize) -> ActorRef<'a> {
        self.actors[if self.shape.shared { 0 } else { k }]
    }

    /// One episode from replica `env_index` of the batch seeded by
    /// `batch_seed`, collected as a one-env shard.
    pub fn collect_one(
        &self,
        env: &mut AirGroundEnv,
        batch_seed: u64,
        env_index: usize,
    ) -> Rollout {
        let mut rollouts = self.collect(std::slice::from_mut(env), batch_seed, env_index, 1);
        rollouts.pop().expect("one env yields one rollout")
    }

    /// The one collection path: one episode per env of `envs`, whose first
    /// env has global index `first_index` in the batch seeded by
    /// `batch_seed`.
    ///
    /// The envs are sharded contiguously over
    /// [`resolve_workers`]`(workers, envs.len())` threads
    /// ([`scoped_shards`]); each shard resets and steps its envs in lockstep
    /// with batched policy inference. Because every env owns its derived
    /// sampler RNG and shards are joined in env order, the returned
    /// rollouts are a pure function of `(actors, batch_seed, first_index)`
    /// — the worker count only changes wall-clock.
    pub fn collect(
        &self,
        envs: &mut [AirGroundEnv],
        batch_seed: u64,
        first_index: usize,
        workers: usize,
    ) -> Vec<Rollout> {
        let _span = tlm::span("collect_rollout");
        let num_envs = envs.len();
        let workers = resolve_workers(workers, num_envs);
        let started = tlm::is_enabled().then(std::time::Instant::now);
        let rollouts = scoped_shards(workers, envs, |base, shard| {
            self.collect_shard(shard, batch_seed, first_index + base)
        });
        if let Some(t0) = started {
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            let steps: usize = rollouts.iter().map(Rollout::len).sum();
            tlm::gauge_set("rollout_envs_per_sec", num_envs as f64 / secs);
            tlm::gauge_set(
                "rollout_samples_per_sec",
                (steps * self.shape.num_agents) as f64 / secs,
            );
        }
        rollouts
    }

    /// Collect one episode from each replica of a contiguous shard
    /// (`base_index` is the first replica's global env index), stepping the
    /// replicas in lockstep so each policy forward covers the whole shard in
    /// one GEMM.
    fn collect_shard(
        &self,
        envs: &mut [AirGroundEnv],
        batch_seed: u64,
        base_index: usize,
    ) -> Vec<Rollout> {
        let _span = tlm::span("rollout_shard");
        let FleetShape { obs_dim, num_agents, neighbor_range_m, .. } = self.shape;
        let n = envs.len();
        let mut samplers: Vec<ChaCha8Rng> = (0..n)
            .map(|j| ChaCha8Rng::seed_from_u64(derive_sampler_seed(batch_seed, base_index + j)))
            .collect();
        for (j, env) in envs.iter_mut().enumerate() {
            env.reset(derive_env_seed(batch_seed, base_index + j));
        }
        let horizon = envs.first().map_or(0, |e| e.config().horizon);
        let mut rollouts: Vec<Rollout> =
            (0..n).map(|_| Rollout::with_capacity(num_agents, horizon, obs_dim)).collect();
        while envs.iter().any(|e| !e.is_done()) {
            // Replicas are clones sharing one horizon, so they finish
            // together; lockstep is what lets one GEMM serve the shard.
            debug_assert!(envs.iter().all(|e| !e.is_done()), "replicas must step in lockstep");
            let (states, all_obs): (Vec<Vec<f32>>, Vec<Vec<Vec<f32>>>) =
                envs.iter().map(AirGroundEnv::state_and_observations).unzip();
            let mut actions_env: Vec<Vec<UvAction>> = vec![Vec::with_capacity(num_agents); n];
            let mut actions: Vec<Vec<[f32; 2]>> = vec![Vec::with_capacity(num_agents); n];
            let mut log_probs: Vec<Vec<f32>> = vec![Vec::with_capacity(num_agents); n];
            for k in 0..num_agents {
                let actor = self.actor(k);
                let mut data = Vec::with_capacity(n * obs_dim);
                for o in &all_obs {
                    data.extend_from_slice(&o[k]);
                }
                let batch = Matrix::from_vec(n, obs_dim, data);
                // Row j of the batched means is bit-identical to the mean a
                // single-row forward computes for replica j (see
                // `Mlp::forward_batch`), so with each replica sampling from
                // its own derived RNG, its actions do not depend on the
                // shard it lands in.
                let means = actor.net.forward_batch(&batch);
                for j in 0..n {
                    let mean = Matrix::row_vector(means.row(j));
                    let dist = DiagGaussian::new(&mean, actor.log_std);
                    let a = dist.sample(&mut samplers[j]);
                    let lp = dist.log_prob(&a)[0];
                    let a = a.as_slice();
                    actions_env[j].push(UvAction { heading: a[0] as f64, speed: a[1] as f64 });
                    actions[j].push([a[0], a[1]]);
                    log_probs[j].push(lp);
                }
            }
            for ((j, env), state) in envs.iter_mut().enumerate().zip(states) {
                let step = env.step(&actions_env[j]);
                rollouts[j].add_collected(&step.collection.collected_per_uv);
                let rewards: Vec<f32> = step.rewards.iter().map(|&r| r as f32).collect();
                let het = env.heterogeneous_neighbors();
                let hom = env.homogeneous_neighbors(neighbor_range_m);
                rollouts[j].push_step(
                    &all_obs[j],
                    state,
                    &actions[j],
                    &log_probs[j],
                    &rewards,
                    het,
                    hom,
                );
            }
        }
        rollouts
    }
}

/// One agent's policy, owned.
#[derive(Debug, Clone, PartialEq)]
pub struct Actor {
    /// Policy trunk: observation → action mean.
    pub net: Mlp,
    /// State-independent log standard deviations, one per action dim.
    pub log_std: Vec<f32>,
}

/// The owned actor-only policy: what serving answers queries with and what
/// a dist worker collects with.
///
/// Where [`crate::trainer::HiMadrlTrainer::restore`] rebuilds the full
/// training state (critics, optimiser moments, LCFs, RNG), an
/// `InferencePolicy` keeps only the actors, so a policy server can hold
/// many generations of it cheaply and swap them atomically. Its
/// deterministic actions are bit-identical to the trainer's own
/// [`crate::trainer::HiMadrlTrainer::policy_action`], and its
/// [`actor_set`](Self::actor_set) collects bit-identically to the
/// trainer's, on the same parameters (`Mlp::forward_batch` documents why
/// batching preserves this).
#[derive(Debug, Clone, PartialEq)]
pub struct InferencePolicy {
    actors: Vec<Actor>,
    shape: FleetShape,
    iterations_done: usize,
}

impl InferencePolicy {
    /// An actor-only policy, checked for consistency: one actor (shared)
    /// or one per agent, each taking `obs_dim` inputs to an
    /// [`ACTION_DIM`]-wide mean with as many log-σ values.
    pub fn new(
        actors: Vec<Actor>,
        shape: FleetShape,
        iterations_done: usize,
    ) -> Result<Self, CheckpointError> {
        let bad = |msg: String| Err(CheckpointError::Inconsistent(msg));
        if shape.num_agents == 0 || shape.obs_dim == 0 {
            return bad(format!("empty fleet shape {shape:?}"));
        }
        if actors.len() != shape.actor_count() {
            return bad(format!(
                "{} actor(s) for a fleet that needs {}",
                actors.len(),
                shape.actor_count()
            ));
        }
        for (i, a) in actors.iter().enumerate() {
            let dims = (a.net.in_dim(), a.net.out_dim(), a.log_std.len());
            if dims != (shape.obs_dim, ACTION_DIM, ACTION_DIM) {
                return bad(format!(
                    "actor {i} maps {} inputs to {} outputs with {} log-std values; the fleet \
                     needs {} to {ACTION_DIM} with {ACTION_DIM}",
                    dims.0, dims.1, dims.2, shape.obs_dim
                ));
            }
        }
        Ok(Self { actors, shape, iterations_done })
    }

    /// Extract the actors from a validated checkpoint.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self, CheckpointError> {
        ckpt.validate()?;
        let actors = ckpt
            .agents
            .iter()
            .map(|a| Actor { net: a.actor().values_copy(), log_std: a.log_std().to_vec() })
            .collect();
        let shape = FleetShape {
            shared: ckpt.config.shared_params,
            obs_dim: ckpt.obs_dim,
            num_agents: ckpt.num_agents,
            neighbor_range_m: ckpt.neighbor_range_m,
        };
        Self::new(actors, shape, ckpt.iterations_done)
    }

    /// Load a checkpoint file and extract the actors.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_checkpoint(&Checkpoint::load_json(path)?)
    }

    /// The borrowed view collection and encoding run on.
    pub fn actor_set(&self) -> ActorSet<'_> {
        let actors =
            self.actors.iter().map(|a| ActorRef { net: &a.net, log_std: &a.log_std }).collect();
        ActorSet::new(actors, self.shape)
    }

    /// Observation dimensionality every query must match.
    pub fn obs_dim(&self) -> usize {
        self.shape.obs_dim
    }

    /// Fleet size: valid agent ids are `0..num_agents`.
    pub fn num_agents(&self) -> usize {
        self.shape.num_agents
    }

    /// Training iterations behind this policy (provenance).
    pub fn iterations_done(&self) -> usize {
        self.iterations_done
    }

    fn net(&self, k: usize) -> &Mlp {
        assert!(k < self.shape.num_agents, "agent id {k} out of range ({})", self.shape.num_agents);
        &self.actors[if self.shape.shared { 0 } else { k }].net
    }

    /// Greedy (mean) action `[heading, speed]` for agent `k`.
    ///
    /// Panics if `k` or the observation length is out of range — servers
    /// validate queries at the protocol boundary before reaching this.
    pub fn action(&self, k: usize, obs: &[f32]) -> [f32; 2] {
        let net = self.net(k);
        assert_eq!(obs.len(), self.shape.obs_dim, "observation length mismatch");
        let a = net.forward_inference(&Matrix::row_vector(obs));
        [a.as_slice()[0], a.as_slice()[1]]
    }

    /// Greedy actions for a whole batch of same-agent observations in one
    /// GEMM: `obs_rows` is `rows` concatenated observations of length
    /// [`obs_dim`](Self::obs_dim). Row `i` of the result is bit-identical
    /// to [`action`](Self::action)`(k, row_i)`.
    pub fn actions(&self, k: usize, obs_rows: &[f32], rows: usize) -> Vec<[f32; 2]> {
        let net = self.net(k);
        assert_eq!(obs_rows.len(), rows * self.shape.obs_dim, "batch shape mismatch");
        if rows == 0 {
            return Vec::new();
        }
        let batch = Matrix::from_vec(rows, self.shape.obs_dim, obs_rows.to_vec());
        let means = net.forward_batch(&batch);
        (0..rows)
            .map(|i| {
                let r = means.row(i);
                [r[0], r[1]]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::trainer::HiMadrlTrainer;
    use agsc_datasets::presets;
    use agsc_env::EnvConfig;

    fn env() -> AirGroundEnv {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { horizon: 10, stochastic_fading: false, ..EnvConfig::default() };
        AirGroundEnv::new(cfg, &dataset, 5)
    }

    fn small_cfg() -> TrainConfig {
        TrainConfig { hidden: vec![16], policy_epochs: 1, lcf_epochs: 1, ..TrainConfig::default() }
    }

    #[test]
    fn inference_policy_matches_trainer_actions_bitwise() {
        let mut e = env();
        let mut t = HiMadrlTrainer::new(&e, small_cfg(), 3, 9).unwrap();
        t.train(&mut e, 2);
        let policy = InferencePolicy::from_checkpoint(&t.checkpoint()).unwrap();
        assert_eq!(policy.num_agents(), 4);
        assert_eq!(policy.obs_dim(), t.obs_dim());
        assert_eq!(policy.iterations_done(), 2);
        // Single-row path.
        for k in 0..4 {
            let obs: Vec<f32> = (0..t.obs_dim()).map(|i| (i as f32 + k as f32) * 0.01).collect();
            let [h, s] = policy.action(k, &obs);
            let direct = t.policy_action(k, &obs);
            assert_eq!(h as f64, direct.heading);
            assert_eq!(s as f64, direct.speed);
        }
        // Batched path: every row bit-identical to its single-row action.
        let rows = 5;
        let obs_rows: Vec<f32> =
            (0..rows * t.obs_dim()).map(|i| (i % 13) as f32 * 0.03 - 0.2).collect();
        let batched = policy.actions(1, &obs_rows, rows);
        assert_eq!(batched.len(), rows);
        for (i, &[h, s]) in batched.iter().enumerate() {
            let row = &obs_rows[i * t.obs_dim()..(i + 1) * t.obs_dim()];
            let single = policy.action(1, row);
            assert_eq!(h.to_bits(), single[0].to_bits(), "row {i} heading diverged");
            assert_eq!(s.to_bits(), single[1].to_bits(), "row {i} speed diverged");
        }
        assert!(policy.actions(0, &[], 0).is_empty());
    }

    #[test]
    fn inference_policy_collects_exactly_like_its_trainer() {
        for shared_params in [false, true] {
            let mut e = env();
            let cfg = TrainConfig { shared_params, ..small_cfg() };
            let mut t = HiMadrlTrainer::new(&e, cfg, 3, 9).unwrap();
            t.train(&mut e, 1);
            let policy = InferencePolicy::from_checkpoint(&t.checkpoint()).unwrap();
            let (mut a, mut b) = (e.clone(), e.clone());
            let from_trainer = t.collect_rollout_indexed(&mut a, 0xC0FFEE, 3);
            let from_policy = policy.actor_set().collect_one(&mut b, 0xC0FFEE, 3);
            assert_eq!(from_trainer, from_policy);
            assert_eq!(a.metrics(), b.metrics());
        }
    }

    #[test]
    fn inconsistent_actor_sets_are_refused_typed() {
        let e = env();
        let t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        let good = InferencePolicy::from_checkpoint(&t.checkpoint()).unwrap();
        let (actors, shape) = (good.actors.clone(), good.shape);
        let refused = |actors: Vec<Actor>, shape: FleetShape| {
            matches!(InferencePolicy::new(actors, shape, 0), Err(CheckpointError::Inconsistent(_)))
        };
        assert!(refused(actors[..3].to_vec(), shape), "missing actor");
        assert!(refused(actors.clone(), FleetShape { shared: true, ..shape }), "shared count");
        assert!(refused(actors.clone(), FleetShape { obs_dim: shape.obs_dim + 3, ..shape }));
        assert!(refused(actors.clone(), FleetShape { num_agents: 0, ..shape }));
        let mut short_std = actors.clone();
        short_std[2].log_std.pop();
        assert!(refused(short_std, shape), "log-std width");
        assert_eq!(InferencePolicy::new(actors, shape, 0).unwrap().iterations_done(), 0);
    }

    #[test]
    fn inference_policy_load_rejects_bad_versions() {
        let dir = std::env::temp_dir().join("agsc_infer_badver_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        let e = env();
        let t = HiMadrlTrainer::new(&e, small_cfg(), 2, 9).unwrap();
        let mut ckpt = t.checkpoint();
        ckpt.version = 42;
        // A well-formed file of the wrong declared version still fails typed.
        std::fs::write(&path, serde_json::to_string(&ckpt).unwrap()).unwrap();
        let err = InferencePolicy::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Version { found: 42, .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }
}
