//! The h/i-MADRL training loop (Algorithm 1 of the paper).
//!
//! Per iteration: sample one episode with the current policies; update the
//! i-EOI classifier (line 12); run `M1` PPO epochs on the cooperation-aware
//! advantages (lines 14-20, Eqns 27-28); update the overall value network;
//! then run `M2` meta-gradient epochs on the LCFs (lines 21-23, Eqns 30-32).

use crate::actors::{ActorRef, ActorSet, FleetShape};
use crate::agent::{BehaviourPolicy, CriticForward, CriticKind, CriticStats, PpoAgent, PpoStats};
use crate::config::TrainConfig;
use crate::copo::{neighbor_range_m, Lcf};
use crate::eoi::EoiClassifier;
use crate::error::TrainError;
use crate::gae::{gae_segmented, normalize_advantages};
use crate::parallel::{balanced_ranges, fork, resolve_workers, worker_job, Turns};
use crate::rollout::{NeighborKind, Rollout};
use agsc_env::{AirGroundEnv, Metrics, UvAction, VecEnv};
use agsc_nn::{Adam, Matrix, Mlp, RunningStat};
use agsc_telemetry as tlm;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Minibatches of the classifier's one pass per iteration over the stacked
/// batch (line 12): one Eqn 21 step each, at the FLOPs of one full-batch
/// step (DESIGN.md §8).
const CLASSIFIER_MINIBATCHES: usize = 8;

/// Diagnostics of one training iteration.
#[derive(Debug, Clone, Default)]
pub struct IterationStats {
    /// Mean per-step extrinsic reward across the fleet.
    pub mean_ext_reward: f32,
    /// Mean per-step intrinsic reward actually paid.
    pub mean_intrinsic: f32,
    /// i-EOI classifier loss, the mean over the iteration's
    /// `CLASSIFIER_MINIBATCHES` steps (0 when i-EOI is off).
    pub classifier_loss: f32,
    /// i-EOI classification accuracy on this iteration's samples.
    pub classifier_accuracy: f32,
    /// Task metrics of the training episode.
    pub train_metrics: Metrics,
    /// Mean PPO stats over agents in the final policy epoch.
    pub ppo: PpoStats,
    /// Mean own-critic MSE loss over agents in the final policy epoch.
    pub value_loss: f32,
    /// Explained variance of the own critic over the final epoch's pooled
    /// returns: `1 − Var(ret − v)/Var(ret)` (1 is perfect, ≤ 0 is useless).
    pub explained_variance: f32,
    /// Mean raw cooperation-aware advantage in the final policy epoch
    /// (before per-batch normalisation).
    pub advantage_mean: f32,
    /// Standard deviation of the raw cooperation-aware advantage.
    pub advantage_std: f32,
    /// Mean pre-clip own-critic gradient L2 norm in the final policy epoch.
    pub critic_grad_norm: f32,
    /// Each agent's fraction of the total i-EOI intrinsic reward paid this
    /// iteration (all zeros when i-EOI is off or nothing was paid).
    pub intrinsic_share: Vec<f32>,
    /// Each UV's fraction of the training episode's collected data (all
    /// zeros when nothing was collected) — near-zero entries flag dead agents.
    pub collection_share: Vec<f32>,
    /// Current LCFs per UV, degrees.
    pub lcf_degrees: Vec<(f32, f32)>,
    /// `true` when the NaN guard detected non-finite quantities and rolled
    /// the learnable state back to the pre-iteration snapshot.
    pub update_skipped: bool,
    /// Non-finite detections this iteration (rewards, advantages, or
    /// post-update parameters): 0 or 1, as the first one ends the update.
    pub nan_events: usize,
    /// Anomalies the streaming detector raised for this iteration (filled by
    /// [`HiMadrlTrainer::train`] when diagnostics are enabled; always empty
    /// otherwise).
    pub anomalies: Vec<crate::diagnostics::Anomaly>,
}

impl IterationStats {
    /// The per-iteration scalars as `(name, value)` pairs: the one list the
    /// `iteration` telemetry event and the training-curve CSV columns and
    /// JSONL rows are written from.
    pub fn scalars(&self) -> [(&'static str, f64); 19] {
        let (p, m) = (&self.ppo, &self.train_metrics);
        [
            ("mean_ext_reward", self.mean_ext_reward as f64),
            ("mean_intrinsic", self.mean_intrinsic as f64),
            ("classifier_loss", self.classifier_loss as f64),
            ("classifier_accuracy", self.classifier_accuracy as f64),
            ("approx_kl", p.approx_kl as f64),
            ("entropy", p.entropy as f64),
            ("ppo_ratio", p.mean_ratio as f64),
            ("clip_fraction", p.clip_fraction as f64),
            ("policy_grad_norm", p.grad_norm as f64),
            ("value_loss", self.value_loss as f64),
            ("critic_grad_norm", self.critic_grad_norm as f64),
            ("explained_variance", self.explained_variance as f64),
            ("advantage_mean", self.advantage_mean as f64),
            ("advantage_std", self.advantage_std as f64),
            ("lambda", m.efficiency),
            ("psi", m.data_collection_ratio),
            ("sigma", m.data_loss_ratio),
            ("xi", m.energy_ratio),
            ("kappa", m.fairness),
        ]
    }

    /// The per-agent groups as `(name, JSON array)`: `lcf_deg` as
    /// `[[φ, χ], ...]`, then `intrinsic_share` and `collection_share`.
    pub(crate) fn per_agent_json(&self) -> [(&'static str, String); 3] {
        let lcf: Vec<String> =
            self.lcf_degrees.iter().map(|&(phi, chi)| json_array(&[phi, chi])).collect();
        [
            ("lcf_deg", format!("[{}]", lcf.join(","))),
            ("intrinsic_share", json_array(&self.intrinsic_share)),
            ("collection_share", json_array(&self.collection_share)),
        ]
    }
}

/// `v` as a JSON number, or `null` when it is not finite.
pub(crate) fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// `[x, ...]` as JSON; non-finite entries become `null`.
fn json_array(xs: &[f32]) -> String {
    let items: Vec<String> = xs.iter().map(|&v| json_number(v as f64)).collect();
    format!("[{}]", items.join(","))
}

/// Everything the optimisers touch: the state one update reads and writes,
/// and what the NaN guard rolls back.
#[derive(Debug)]
struct Learnables {
    classifier: Option<EoiClassifier>,
    models: Models,
}

/// The learnables beside the classifier: what the policy epochs, V_all and
/// the LCF meta step update.
#[derive(Debug)]
struct Models {
    agents: Vec<PpoAgent>,
    v_all: Mlp,
    v_all_opt: Adam,
    lcfs: Vec<Lcf>,
    stat_own: RunningStat,
    stat_all: RunningStat,
}

/// `clone_from` refills the destination's buffers in place: the NaN
/// guard's snapshot is one copy, refilled every iteration.
impl Clone for Learnables {
    fn clone(&self) -> Self {
        Self { classifier: self.classifier.clone(), models: self.models.clone() }
    }

    fn clone_from(&mut self, src: &Self) {
        self.classifier.clone_from(&src.classifier);
        self.models.clone_from(&src.models);
    }
}

/// `clone_from` refills the destination's buffers in place.
impl Clone for Models {
    fn clone(&self) -> Self {
        Self {
            agents: self.agents.clone(),
            v_all: self.v_all.clone(),
            v_all_opt: self.v_all_opt.clone(),
            lcfs: self.lcfs.clone(),
            stat_own: self.stat_own.clone(),
            stat_all: self.stat_all.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.agents.clone_from(&src.agents);
        self.v_all.clone_from(&src.v_all);
        self.v_all_opt.clone_from(&src.v_all_opt);
        self.lcfs.clone_from(&src.lcfs);
        self.stat_own.clone_from(&src.stat_own);
        self.stat_all.clone_from(&src.stat_all);
    }
}

/// A non-finite value the NaN guard caught; the first one ends the update.
#[derive(Debug)]
struct NonFinite;

/// The NaN guard's check: `Err(NonFinite)` when the guard is `on` and
/// `finite` finds a non-finite value.
fn guard(on: bool, finite: impl FnOnce() -> bool) -> Result<(), NonFinite> {
    if on && !finite() {
        Err(NonFinite)
    } else {
        Ok(())
    }
}

fn all_finite(xs: &[f32]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

/// Where an iteration's rollouts come from.
enum Batch<'e> {
    /// One episode per env, collected from the already drawn batch seed.
    Collect(&'e mut [AirGroundEnv], u64),
    /// Rollouts collected elsewhere, in env order, and their mean task
    /// metrics.
    Given(Vec<Rollout>, Metrics),
}

/// The actors of `agents`, borrowed, as a collection view of `shape`.
fn actor_set(agents: &[PpoAgent], shape: FleetShape) -> ActorSet<'_> {
    let actors = agents.iter().map(|a| ActorRef { net: a.actor(), log_std: a.log_std() }).collect();
    ActorSet::new(actors, shape)
}

/// The h/i-MADRL trainer.
#[derive(Debug, Clone)]
pub struct HiMadrlTrainer {
    cfg: TrainConfig,
    num_agents: usize,
    num_uavs: usize,
    obs_dim: usize,
    learn: Learnables,
    /// The NaN guard's copy of the learnables from before the running
    /// update: allocated by the first update under the guard, then
    /// refilled in place by each, on a helper thread where one is free
    /// (DESIGN.md §12). A trainer that never updates holds none.
    snapshot: Option<Learnables>,
    rng: ChaCha8Rng,
    iterations_done: usize,
    planned_iterations: usize,
    neighbor_range: f64,
}

impl HiMadrlTrainer {
    /// Build a trainer for the given environment.
    ///
    /// `planned_iterations` scales the intrinsic-reward schedule (Table IV);
    /// it is a planning hint, not a hard stop.
    ///
    /// Returns [`TrainError::InvalidConfig`] when `cfg` fails validation.
    pub fn new(
        env: &AirGroundEnv,
        cfg: TrainConfig,
        planned_iterations: usize,
        seed: u64,
    ) -> Result<Self, TrainError> {
        cfg.validate().map_err(TrainError::InvalidConfig)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let obs_dim = env.obs_dim();
        let state_dim = obs_dim; // state and obs share the layout (§IV-B1)
        let num_agents = env.num_uvs();
        let num_uavs = env.uv_states().iter().filter(|u| u.kind == agsc_env::UvKind::Uav).count();
        let critic_in = if cfg.centralized_critic { state_dim } else { obs_dim };
        let agent_count = if cfg.shared_params { 1 } else { num_agents };
        let agents = (0..agent_count)
            .map(|_| PpoAgent::new(obs_dim, critic_in, 2, &cfg, &mut rng))
            .collect();
        let classifier = cfg.ablation.use_eoi.then(|| {
            EoiClassifier::new(
                obs_dim,
                &cfg.hidden,
                num_agents,
                cfg.classifier_lr,
                cfg.eoi_epsilon,
                &mut rng,
            )
        });
        let mut v_all_sizes = vec![state_dim];
        v_all_sizes.extend_from_slice(&cfg.hidden);
        v_all_sizes.push(1);
        let v_all = Mlp::tanh(&v_all_sizes, &mut rng);
        let neighbor_range = neighbor_range_m(env.bounds().diagonal(), cfg.neighbor_range_frac);
        let learn = Learnables {
            classifier,
            models: Models {
                agents,
                v_all,
                v_all_opt: Adam::new(cfg.critic_lr),
                lcfs: vec![Lcf::default(); num_agents],
                stat_own: RunningStat::new(),
                stat_all: RunningStat::new(),
            },
        };
        Ok(Self {
            num_agents,
            num_uavs,
            obs_dim,
            snapshot: None,
            learn,
            rng,
            iterations_done: 0,
            planned_iterations: planned_iterations.max(1),
            neighbor_range,
            cfg,
        })
    }

    /// Training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Iterations completed so far.
    pub fn iterations_done(&self) -> usize {
        self.iterations_done
    }

    /// Current LCFs (per UV).
    pub fn lcfs(&self) -> &[Lcf] {
        &self.learn.models.lcfs
    }

    /// Mean `(φ, χ)` in degrees over UAVs and UGVs separately — the
    /// Fig 11(d) report.
    pub fn mean_lcf_by_kind(&self) -> ((f32, f32), (f32, f32)) {
        let mean = |slice: &[Lcf]| -> (f32, f32) {
            if slice.is_empty() {
                return (0.0, 0.0);
            }
            let n = slice.len() as f32;
            (
                slice.iter().map(|l| l.degrees().0).sum::<f32>() / n,
                slice.iter().map(|l| l.degrees().1).sum::<f32>() / n,
            )
        };
        let lcfs = &self.learn.models.lcfs;
        (mean(&lcfs[..self.num_uavs]), mean(&lcfs[self.num_uavs..]))
    }

    fn agent_idx(&self, k: usize) -> usize {
        if self.cfg.shared_params {
            0
        } else {
            k
        }
    }

    /// Greedy (mean) action for UV `k` — decentralised execution.
    pub fn policy_action(&self, k: usize, obs: &[f32]) -> UvAction {
        let a = self.learn.models.agents[self.agent_idx(k)].act_deterministic(obs);
        UvAction { heading: a[0] as f64, speed: a[1] as f64 }
    }

    /// Sample one episode with the current (stochastic) policies: replica 0
    /// of the batch seeded by one [`next_batch_seed`](Self::next_batch_seed)
    /// draw, so this is bit-identical to one-replica
    /// [`collect_rollout_vec`](Self::collect_rollout_vec).
    pub fn collect_rollout(&mut self, env: &mut AirGroundEnv) -> Rollout {
        let batch_seed = self.next_batch_seed();
        self.collect_rollout_indexed(env, batch_seed, 0)
    }

    /// One episode from replica `env_index` of the batch seeded by
    /// `batch_seed`, collected as a one-env shard.
    ///
    /// Resets `env` with [`agsc_env::derive_env_seed`] and samples actions
    /// from a dedicated RNG seeded by [`agsc_env::derive_sampler_seed`], so
    /// the result is a pure function of the actor parameters and
    /// `(batch_seed, env_index)` and equals replica `env_index` of a
    /// vectorized collection.
    pub fn collect_rollout_indexed(
        &self,
        env: &mut AirGroundEnv,
        batch_seed: u64,
        env_index: usize,
    ) -> Rollout {
        self.actor_set().collect_one(env, batch_seed, env_index)
    }

    /// Collect one episode per replica of `venv`, in parallel, drawing one
    /// batch seed from the trainer RNG (the same single draw
    /// [`collect_rollout`](Self::collect_rollout) makes).
    pub fn collect_rollout_vec(&mut self, venv: &mut VecEnv) -> Vec<Rollout> {
        let batch_seed = self.next_batch_seed();
        self.collect_rollout_vec_seeded(venv, batch_seed)
    }

    /// Draw the next collection's batch seed from the trainer RNG — the
    /// exact single `u64` draw every collection path makes, exposed so a
    /// distributed learner can broadcast the seed to remote workers and
    /// stay on the same RNG stream as
    /// [`collect_rollout_vec`](Self::collect_rollout_vec).
    pub fn next_batch_seed(&mut self) -> u64 {
        self.rng.gen::<u64>()
    }

    /// Seeded parallel collection: one rollout per replica, in fixed env
    /// order, independent of the worker count.
    pub fn collect_rollout_vec_seeded(&self, venv: &mut VecEnv, batch_seed: u64) -> Vec<Rollout> {
        self.actor_set().collect(venv.envs_mut(), batch_seed, 0, self.cfg.rollout_workers)
    }

    /// The actors, borrowed: what collection and the dist parameter
    /// broadcast need, without the critics or optimiser state.
    pub fn actor_set(&self) -> ActorSet<'_> {
        actor_set(&self.learn.models.agents, self.fleet_shape())
    }

    fn fleet_shape(&self) -> FleetShape {
        FleetShape {
            shared: self.cfg.shared_params,
            obs_dim: self.obs_dim,
            num_agents: self.num_agents,
            neighbor_range_m: self.neighbor_range,
        }
    }

    /// Current ω_in under the schedule.
    pub fn intrinsic_weight(&self) -> f32 {
        if !self.cfg.ablation.use_eoi {
            return 0.0;
        }
        let frac = self.iterations_done as f32 / self.planned_iterations as f32;
        self.cfg.intrinsic.weight_at(frac)
    }

    /// Run one full training iteration (Algorithm 1 body) on a single
    /// environment: a one-replica [`train_iteration_vec`](Self::train_iteration_vec).
    pub fn train_iteration(&mut self, env: &mut AirGroundEnv) -> IterationStats {
        self.train_iteration_envs(std::slice::from_mut(env))
    }

    /// Run one full training iteration on a vectorized environment: parallel
    /// rollout collection, then one update on the episodes concatenated in
    /// fixed env order. `train_metrics` averages the per-replica task
    /// metrics.
    pub fn train_iteration_vec(&mut self, venv: &mut VecEnv) -> IterationStats {
        self.train_iteration_envs(venv.envs_mut())
    }

    /// Run one training iteration from rollouts collected elsewhere — the
    /// learner half of the distributed actor–learner split.
    ///
    /// `rollouts` must be in env-index order and `train_metrics` the mean of
    /// the per-replica task metrics in that same order; given both, this is
    /// bit-identical to [`train_iteration_vec`](Self::train_iteration_vec),
    /// which runs the same update through the same driver. The caller is
    /// responsible for having drawn the collection's batch seed via
    /// [`next_batch_seed`](Self::next_batch_seed) so the trainer RNG stream
    /// stays aligned with the single-process path.
    pub fn train_iteration_from_rollouts(
        &mut self,
        rollouts: Vec<Rollout>,
        train_metrics: Metrics,
    ) -> IterationStats {
        self.run_iteration(Batch::Given(rollouts, train_metrics))
    }

    /// One iteration on `envs` (global env indices `0..envs.len()`): one
    /// batch-seed draw, collection, and the update on the mean task metrics.
    fn train_iteration_envs(&mut self, envs: &mut [AirGroundEnv]) -> IterationStats {
        let batch_seed = self.next_batch_seed();
        self.run_iteration(Batch::Collect(envs, batch_seed))
    }

    /// The one iteration driver: gets the rollouts and their task metrics
    /// from `batch`, then runs the update, all inside the
    /// `train_iteration` span, and publishes `train.samples_per_sec` and the
    /// iteration's GEMM FLOPs when telemetry is on.
    ///
    /// Collection only reads the actors, so a helper thread refills the
    /// NaN guard's snapshot beside it; rollouts collected elsewhere leave
    /// the snapshot to the update's first stage.
    fn run_iteration(&mut self, batch: Batch<'_>) -> IterationStats {
        let _span = tlm::span("train_iteration");
        let started = tlm::is_enabled().then(std::time::Instant::now);
        let flops0 = iteration_flops_start(&started);
        let workers = resolve_workers(self.cfg.rollout_workers, self.learn.models.agents.len());
        let (rollouts, train_metrics, snapshotted) = match batch {
            Batch::Collect(envs, batch_seed) => {
                let shape = self.fleet_shape();
                let Self { learn, snapshot, cfg, .. } = self;
                let learn = &*learn;
                let (_, (rollouts, metrics)) = fork(
                    workers > 1,
                    || cfg.nan_guard.then(|| refill(snapshot, learn)),
                    || {
                        let actors = actor_set(&learn.models.agents, shape);
                        let rollouts = actors.collect(envs, batch_seed, 0, cfg.rollout_workers);
                        let metrics: Vec<Metrics> =
                            envs.iter().map(AirGroundEnv::metrics).collect();
                        (rollouts, Metrics::mean(&metrics))
                    },
                );
                (rollouts, metrics, true)
            }
            Batch::Given(rollouts, metrics) => (rollouts, metrics, false),
        };
        let samples: usize = rollouts.iter().map(Rollout::len).sum::<usize>() * self.num_agents;
        let stats = self.update_from_rollouts(rollouts, train_metrics, snapshotted, workers);
        if let Some(t0) = started {
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            tlm::gauge_set("train.samples_per_sec", samples as f64 / secs);
            publish_iteration_flops(flops0, secs);
        }
        stats
    }

    /// The update half of one training iteration, [`Learnables::update`] on
    /// the given per-replica rollouts concatenated in order on `workers`
    /// threads, and the NaN guard's one exit: an update stopped by a
    /// non-finite value is rolled back to the learnables as they were
    /// before it (the snapshot, which the update refills unless it is
    /// already `snapshotted`). Episode boundaries are respected everywhere
    /// advantages are estimated ([`gae_segmented`]).
    fn update_from_rollouts(
        &mut self,
        rollouts: Vec<Rollout>,
        train_metrics: Metrics,
        snapshotted: bool,
        workers: usize,
    ) -> IterationStats {
        let rollout = Rollout::concat(rollouts);
        let mut stats = IterationStats {
            mean_ext_reward: rollout.rewards_ext.iter().flat_map(|r| r.iter()).sum::<f32>()
                / (self.num_agents * rollout.len().max(1)) as f32,
            collection_share: rollout.collection_shares(),
            train_metrics,
            ..IterationStats::default()
        };
        let run = Run { cfg: &self.cfg, rollout: &rollout, w: self.intrinsic_weight(), workers };
        let snapshot = (self.cfg.nan_guard && !snapshotted).then_some(&mut self.snapshot);
        if self.learn.update(&run, snapshot, &mut stats).is_err() {
            stats.update_skipped = true;
            stats.nan_events = 1;
            if let Some(snapshot) = self.snapshot.as_mut() {
                std::mem::swap(&mut self.learn, snapshot);
            }
        }
        self.iterations_done += 1;
        stats.lcf_degrees = self.learn.models.lcfs.iter().map(Lcf::degrees).collect();
        self.emit_iteration_telemetry(&stats);
        stats
    }

    /// Publish one iteration's diagnostics to the telemetry layer. A no-op
    /// when telemetry is disabled — training output is bit-identical either
    /// way because nothing here feeds back into learnable state.
    fn emit_iteration_telemetry(&self, stats: &IterationStats) {
        if !tlm::is_enabled() {
            return;
        }
        let iter = self.iterations_done as u64;
        tlm::counter_add("train_iterations", 1);
        if stats.nan_events > 0 {
            tlm::counter_add("nan_events", stats.nan_events as u64);
        }
        if stats.update_skipped {
            tlm::counter_add("nan_rollbacks", 1);
            tlm::warn("nan_rollback", |e| {
                e.u64("iter", iter).u64("nan_events", stats.nan_events as u64).msg(
                    "non-finite quantities detected; learnable state rolled back to \
                     pre-iteration snapshot",
                )
            });
        }
        let ((uav_phi, uav_chi), (ugv_phi, ugv_chi)) = self.mean_lcf_by_kind();
        tlm::emit_with(tlm::Level::Info, "iteration", |e| {
            let e = stats.scalars().into_iter().fold(e.u64("iter", iter), |e, (k, v)| e.f64(k, v));
            let e = e
                .f64("uav_phi_deg", uav_phi as f64)
                .f64("uav_chi_deg", uav_chi as f64)
                .f64("ugv_phi_deg", ugv_phi as f64)
                .f64("ugv_chi_deg", ugv_chi as f64);
            stats
                .per_agent_json()
                .into_iter()
                .fold(e, |e, (k, json)| e.raw_json(k, json))
                .u64("nan_events", stats.nan_events as u64)
                .bool("update_skipped", stats.update_skipped)
        });
        tlm::gauge_set("lambda", stats.train_metrics.efficiency);
        // Per-iteration training gauges: the live observability plane
        // (`/metrics`, the `Stats` frame) reads the same registry, so a
        // scrape during training shows the newest iteration's vitals.
        tlm::gauge_set("train.iteration", iter as f64);
        tlm::gauge_set("train.value_loss", stats.value_loss as f64);
        tlm::gauge_set("train.approx_kl", stats.ppo.approx_kl as f64);
        tlm::gauge_set("train.entropy", stats.ppo.entropy as f64);
        tlm::gauge_set("train.explained_variance", stats.explained_variance as f64);
        tlm::gauge_set("train.mean_ext_reward", stats.mean_ext_reward as f64);
        tlm::histogram_record("approx_kl", stats.ppo.approx_kl as f64);
        tlm::histogram_record("entropy", stats.ppo.entropy as f64);
        tlm::histogram_record("policy_grad_norm", stats.ppo.grad_norm as f64);
        tlm::histogram_record("critic_grad_norm", stats.critic_grad_norm as f64);
        tlm::histogram_record("value_loss", stats.value_loss as f64);
    }

    /// Train for `iterations` full iterations; returns the per-iteration stats.
    ///
    /// When telemetry is enabled this also drives the learning-diagnostics
    /// layer: per-iteration rows into `training_curves.csv`/`.jsonl` (when
    /// `AGSC_TELEMETRY_DIR` is set), streaming anomaly detection (surfaced in
    /// each [`IterationStats::anomalies`]), and a periodic terminal health
    /// report. All of it is observation-only — the trained parameters are
    /// bit-identical with diagnostics on or off.
    /// With `cfg.num_envs > 1` the iterations run on a [`VecEnv`] cloned
    /// from `env` (parallel rollout collection); `env` itself is then only
    /// the prototype and is left untouched.
    pub fn train(&mut self, env: &mut AirGroundEnv, iterations: usize) -> Vec<IterationStats> {
        if self.cfg.num_envs > 1 {
            let mut venv = VecEnv::new(env, self.cfg.num_envs);
            return self.train_vec(&mut venv, iterations);
        }
        self.train_envs(std::slice::from_mut(env), iterations)
    }

    /// [`train`](Self::train) on a vectorized environment: every iteration
    /// collects one episode per replica in parallel and updates on the
    /// concatenated batch. Drives the same diagnostics layer.
    pub fn train_vec(&mut self, venv: &mut VecEnv, iterations: usize) -> Vec<IterationStats> {
        self.train_envs(venv.envs_mut(), iterations)
    }

    /// The training loop behind [`train`](Self::train) and
    /// [`train_vec`](Self::train_vec), diagnostics included.
    fn train_envs(&mut self, envs: &mut [AirGroundEnv], iterations: usize) -> Vec<IterationStats> {
        let mut diag = crate::diagnostics::Diagnostics::from_env(self.num_agents, self.num_uavs);
        let mut out = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let mut stats = self.train_iteration_envs(envs);
            if let Some(d) = diag.as_mut() {
                d.observe(self.iterations_done, &mut stats);
            }
            out.push(stats);
        }
        if let Some(d) = diag.as_mut() {
            d.finish();
        }
        out
    }

    /// Observation dimensionality the trainer was built for.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Snapshot every learnable component into a [`crate::checkpoint::Checkpoint`].
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        let models = &self.learn.models;
        crate::checkpoint::Checkpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            config: self.cfg.clone(),
            agents: models.agents.clone(),
            classifier: self.learn.classifier.clone(),
            v_all: models.v_all.clone(),
            lcfs: models.lcfs.clone(),
            stat_own: models.stat_own.clone(),
            stat_all: models.stat_all.clone(),
            iterations_done: self.iterations_done,
            num_agents: self.num_agents,
            num_uavs: self.num_uavs,
            obs_dim: self.obs_dim,
            neighbor_range_m: self.neighbor_range,
        }
    }

    /// Rebuild a trainer from a checkpoint with a fresh RNG seed.
    ///
    /// Returns a typed [`TrainError`] on version mismatch, internal
    /// inconsistency, or a config that fails validation.
    pub fn restore(ckpt: &crate::checkpoint::Checkpoint, seed: u64) -> Result<Self, TrainError> {
        ckpt.validate()?;
        ckpt.config.validate().map_err(TrainError::InvalidConfig)?;
        let learn = Learnables {
            classifier: ckpt.classifier.clone(),
            models: Models {
                agents: ckpt.agents.clone(),
                v_all: ckpt.v_all.clone(),
                v_all_opt: Adam::new(ckpt.config.critic_lr),
                lcfs: ckpt.lcfs.clone(),
                stat_own: ckpt.stat_own.clone(),
                stat_all: ckpt.stat_all.clone(),
            },
        };
        Ok(Self {
            cfg: ckpt.config.clone(),
            num_agents: ckpt.num_agents,
            num_uavs: ckpt.num_uavs,
            obs_dim: ckpt.obs_dim,
            snapshot: None,
            learn,
            rng: ChaCha8Rng::seed_from_u64(seed),
            iterations_done: ckpt.iterations_done,
            planned_iterations: ckpt.iterations_done.max(1),
            neighbor_range: ckpt.neighbor_range_m,
        })
    }

    /// Rebuild a trainer from a checkpoint *file*, cleaning up any stale
    /// `<path>.tmp` sibling an interrupted save left behind.
    ///
    /// This is the crash-safe startup path: the stale temp file is dead
    /// weight from a killed process — `path` itself always holds the last
    /// complete checkpoint thanks to the atomic save — so the sibling is
    /// removed, never recovered.
    pub fn restore_from_file(path: &std::path::Path, seed: u64) -> Result<Self, TrainError> {
        let ckpt = crate::checkpoint::Checkpoint::load_json(path)?;
        crate::checkpoint::remove_stale_tmp(path);
        Self::restore(&ckpt, seed)
    }

    /// Number of controlled UVs.
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Number of UAVs (UVs `0..num_uavs` are aerial, the rest are ground).
    pub fn num_uavs(&self) -> usize {
        self.num_uavs
    }
}

impl Learnables {
    /// Algorithm 1's update (lines 12-23) on one batch of rollouts, with
    /// intrinsic-reward weight `w`, on `workers` threads (DESIGN.md §12).
    /// Refills `snapshot`, when given, with the learnables as they were
    /// before the update. Each phase records its diagnostics in `stats`; the
    /// first non-finite value the NaN guard catches stops the update
    /// part-way, for the caller to roll back.
    fn update(
        &mut self,
        run: &Run<'_>,
        snapshot: Option<&mut Option<Learnables>>,
        stats: &mut IterationStats,
    ) -> Result<(), NonFinite> {
        let (cfg, rollout) = (run.cfg, run.rollout);
        let (snap_classifier, snap_models) = match snapshot {
            Some(Some(s)) => (Some(&mut s.classifier), Some(&mut s.models)),
            Some(none) => {
                refill(none, self);
                (None, None)
            }
            None => (None, None),
        };
        let Learnables { classifier, models } = self;
        // While the caller fits the classifier (line 12), a helper runs
        // every agent's epoch-0 critic forwards: they need no rewards, and
        // with one parameter set per agent nothing moves a critic before
        // its epoch-0 step. A snapshot still to refill is split between
        // them: the helper copies the models, the caller the classifier.
        // The helper first indexes the observations' zeros, which every
        // first layer reads and the classifier's stacked batch derives its
        // index from, so the caller finds them built.
        let (pre, identity_probs) = fork(
            run.workers > 1,
            || {
                rollout.obs.iter().for_each(Matrix::index_zeros);
                if let Some(s) = snap_models {
                    s.clone_from(models);
                }
                (!cfg.shared_params).then(|| {
                    let _s = tlm::span("ppo_epochs");
                    let agents = models.agents.iter_mut().enumerate();
                    agents.map(|(k, agent)| critic_forwards(cfg, rollout, agent, k)).collect()
                })
            },
            || {
                if let Some(s) = snap_classifier {
                    s.clone_from(classifier);
                }
                eoi_update(classifier.as_mut(), &rollout.obs, stats)
            },
        );
        // Line 16: compound rewards (Eqn 19).
        let rewards = compound_rewards(rollout, identity_probs.as_ref(), run.w, stats);
        guard(cfg.nan_guard, || rewards.iter().all(|r| all_finite(r)))?;
        // Lines 13-23: the policy epochs, V_all and the LCF meta epochs.
        let inputs = AgentInputs::new(cfg, rollout, rewards);
        inputs.train_agents(models, pre, run.workers, stats)?;
        // Post-update sanity: a non-finite LCF or PPO statistic means the
        // parameters themselves went bad.
        guard(cfg.nan_guard, || {
            let lcf_ok = models.lcfs.iter().all(|l| {
                let (phi, chi) = l.degrees();
                phi.is_finite() && chi.is_finite()
            });
            let ppo = &stats.ppo;
            lcf_ok
                && ppo.mean_ratio.is_finite()
                && ppo.clip_fraction.is_finite()
                && ppo.entropy.is_finite()
        })
    }
}

/// Make `snapshot` a copy of `learn`: a clone the first time, then
/// refilled in place.
fn refill(snapshot: &mut Option<Learnables>, learn: &Learnables) {
    match snapshot {
        Some(s) => s.clone_from(learn),
        None => *snapshot = Some(learn.clone()),
    }
}

/// One update's fixed inputs.
struct Run<'a> {
    cfg: &'a TrainConfig,
    rollout: &'a Rollout,
    /// The intrinsic-reward weight ω_in.
    w: f32,
    /// Threads for the update, one parameter set or more each.
    workers: usize,
}

/// Line 12: one classifier pass over every agent's observations stacked
/// in agent order; returns the updated classifier's identity
/// probabilities on them (`None` without i-EOI).
fn eoi_update(
    classifier: Option<&mut EoiClassifier>,
    obs: &[Matrix],
    stats: &mut IterationStats,
) -> Option<Matrix> {
    let classifier = classifier?;
    let _s = tlm::span("eoi_update");
    // Uniform per-agent sampling: concatenate everything (same count per
    // agent by construction).
    let all_obs = Matrix::vstack(&obs.iter().collect::<Vec<_>>());
    let labels: Vec<usize> =
        obs.iter().enumerate().flat_map(|(k, o)| std::iter::repeat_n(k, o.rows())).collect();
    stats.classifier_loss = classifier.fit(&all_obs, &labels, CLASSIFIER_MINIBATCHES);
    // One forward of the updated classifier serves both the accuracy and
    // the intrinsic rewards: rows are independent.
    let probs = classifier.predict(&all_obs);
    stats.classifier_accuracy = EoiClassifier::accuracy(&probs, &labels);
    Some(probs)
}

/// Line 16: compound rewards (Eqn 19), extrinsic plus `w`-weighted identity
/// probability. Records in `stats` the mean intrinsic term actually paid
/// and each agent's share of the total intrinsic reward.
///
/// `identity_probs` is the classifier's prediction on every agent's
/// observations stacked in agent order (`T` rows per agent), so agent
/// `k`'s intrinsic reward at step `t` is entry `(k·T + t, k)`.
fn compound_rewards(
    rollout: &Rollout,
    identity_probs: Option<&Matrix>,
    w: f32,
    stats: &mut IterationStats,
) -> Vec<Vec<f32>> {
    let t_len = rollout.len();
    let mut per_agent = vec![0.0f32; rollout.num_agents()];
    let mut count = 0usize;
    let rewards: Vec<Vec<f32>> = (0..rollout.num_agents())
        .map(|k| {
            let ext = &rollout.rewards_ext[k];
            match (identity_probs, w > 0.0) {
                (Some(probs), true) => {
                    let p = (0..t_len).map(|t| probs[(k * t_len + t, k)]);
                    ext.iter()
                        .zip(p)
                        .map(|(&e, pk)| {
                            per_agent[k] += w * pk;
                            count += 1;
                            e + w * pk
                        })
                        .collect()
                }
                _ => ext.clone(),
            }
        })
        .collect();
    let total: f32 = per_agent.iter().sum();
    stats.mean_intrinsic = if count > 0 { total / count as f32 } else { 0.0 };
    stats.intrinsic_share = if total > 0.0 {
        per_agent.iter().map(|&s| s / total).collect()
    } else {
        vec![0.0; per_agent.len()]
    };
    rewards
}

/// Agent `k`'s individual critic input: its observations, or the global
/// state under the centralised critic.
fn critic_input<'r>(cfg: &TrainConfig, rollout: &'r Rollout, k: usize) -> &'r Matrix {
    if cfg.centralized_critic {
        &rollout.states
    } else {
        &rollout.obs[k]
    }
}

/// One agent's critic forwards for one epoch: the own critic's, and with
/// h-CoPO the two neighbourhood critics'.
struct CriticForwards<'r> {
    own: CriticForward<'r>,
    neighbors: Option<[CriticForward<'r>; 2]>,
}

/// Agent `k`'s critic forwards on the rollout (the training forwards,
/// whose cached activations its critic steps backpropagate from).
fn critic_forwards<'r>(
    cfg: &TrainConfig,
    rollout: &'r Rollout,
    agent: &mut PpoAgent,
    k: usize,
) -> CriticForwards<'r> {
    let own = agent.critic_forward(critic_input(cfg, rollout, k), CriticKind::Own);
    let neighbors = cfg.ablation.use_copo.then(|| {
        let obs = &rollout.obs[k];
        [
            agent.critic_forward(obs, CriticKind::Heterogeneous),
            agent.critic_forward(obs, CriticKind::Homogeneous),
        ]
    });
    CriticForwards { own, neighbors }
}

/// Read-only inputs of one update, shared by the per-agent jobs of
/// [`AgentInputs::train_agents`] on every worker thread.
struct AgentInputs<'a> {
    cfg: &'a TrainConfig,
    rollout: &'a Rollout,
    segments: Vec<usize>,
    /// Per agent, the compound rewards (Eqn 19).
    rewards: Vec<Vec<f32>>,
    /// Per agent `[r_HE, r_HO]` (Eqn 23); empty without h-CoPO.
    neighbor_rewards: Vec<[Vec<f32>; 2]>,
}

/// One agent's critic pass (phase A of a policy epoch).
struct CriticPass<'r> {
    /// The own critic's forward; its values are still value-normalised.
    own: CriticForward<'r>,
    /// `[A_HE, A_HO]`; zeros without h-CoPO.
    neighbor_adv: [Vec<f32>; 2],
    /// The neighbourhood critics' forwards with their targets
    /// `[R_HE, R_HO]`; `None` without h-CoPO.
    neighbors: Option<[(CriticForward<'r>, Vec<f32>); 2]>,
}

/// What phase B hands one agent's policy and critic steps (phase C).
struct PolicyStep<'r> {
    /// Normalised cooperation-aware advantage (Eqn 27).
    a_co: Vec<f32>,
    /// The own critic's forward from phase A and its targets.
    own: (CriticForward<'r>, Vec<f32>),
    neighbors: Option<[(CriticForward<'r>, Vec<f32>); 2]>,
}

/// The state phase B shares between the update's workers; it changes only
/// in turn ([`Turns`]), agent after agent, epoch after epoch.
struct PhaseB<'m> {
    /// The own critics' value normaliser.
    stat_own: &'m mut RunningStat,
    /// Final-epoch Σa, Σa², Σret, Σret², Σ(ret−v), Σ(ret−v)² over the raw
    /// cooperation-aware advantages (f64, observation-only).
    moments: [f64; 6],
    /// V_all's normalised overall advantage, once the first shard has run
    /// V_all.
    overall: Overall,
    /// LCF meta steps no worker has taken yet.
    lcf_jobs: Vec<LcfJob<'m>>,
    /// Shards that have not yet handed in their LCF meta steps.
    lcf_shards_pending: usize,
}

/// One parameter set's LCF meta steps (lines 21-23): the parameters and
/// behaviour policy they read, and per agent of the set (one, or every
/// agent under shared parameters) its id, LCF and final-epoch `[A, A_HE,
/// A_HO]`. No agent's meta step reads another's LCF, so any worker may run
/// any job once V_all's advantage is posted.
struct LcfJob<'m> {
    agent: &'m mut PpoAgent,
    old: BehaviourPolicy,
    lcfs: Vec<(usize, &'m mut Lcf, [Vec<f32>; 3])>,
}

/// Where V_all's overall advantage stands.
enum Overall {
    Pending,
    /// The NaN guard caught a non-finite advantage or return.
    Failed,
    Ready(Vec<f32>),
}

/// A shard job's exit when the board stopped: a peer's NaN-guard failure
/// or panic, or its own NaN-guard failure.
struct Stopped;

/// One worker's agents and the state only they touch.
struct Shard<'m, 'r> {
    agents: Range<usize>,
    /// Their parameter sets: one per agent, or the one shared set.
    params: &'m mut [PpoAgent],
    lcfs: &'m mut [Lcf],
    /// Their epoch-0 critic forwards, when computed ahead.
    pre: Vec<Option<CriticForwards<'r>>>,
    /// V_all, its optimiser and value normaliser: the first shard's job.
    v_all: Option<(&'m mut Mlp, &'m mut Adam, &'m mut RunningStat)>,
}

/// Per agent of a shard, in agent order, the final epoch's policy and
/// own-critic stats.
type FinalStats = Vec<(PpoStats, CriticStats)>;

impl<'a> AgentInputs<'a> {
    /// The update's inputs from the batch `rollout` and its compound
    /// `rewards`.
    fn new(cfg: &'a TrainConfig, rollout: &'a Rollout, rewards: Vec<Vec<f32>>) -> Self {
        let num_agents = rollout.num_agents();
        // Eqn 23 reads only the rollout and the compound rewards, so the
        // neighbourhood rewards are built once per iteration.
        let neighbor_rewards = if cfg.ablation.use_copo {
            (0..num_agents)
                .map(|k| neighbor_rewards(rollout, &rewards, k, cfg.ablation.heterogeneous))
                .collect()
        } else {
            Vec::new()
        };
        Self { cfg, rollout, segments: rollout.segments(), rewards, neighbor_rewards }
    }

    /// Lines 13-23 on `workers` threads: every agent's `M1` policy epochs
    /// on the cooperation-aware advantages (Eqns 27-28), the overall value
    /// network (line 20), and every agent's `M2` LCF meta epochs (Eqns
    /// 30-32). `pre` holds each agent's epoch-0 critic forwards when they
    /// were run ahead. Records the final epoch's fleet means in `stats`.
    ///
    /// Each worker takes a contiguous shard of agents through all its
    /// epochs with no barrier, then its LCF steps; the first shard's worker
    /// also runs V_all. Phase B, which advances the shared `stat_own`, runs
    /// in agent order across the workers through a [`Turns`] board. A
    /// NaN-guard failure or a panic on any worker stops the board, which
    /// releases every waiting worker; a panic is then re-raised here.
    fn train_agents(
        &self,
        models: &mut Models,
        pre: Option<Vec<CriticForwards<'a>>>,
        workers: usize,
        stats: &mut IterationStats,
    ) -> Result<(), NonFinite> {
        let num_agents = self.rollout.num_agents();
        let Models { agents, v_all, v_all_opt, lcfs, stat_own, stat_all } = models;
        let mut pre: Vec<_> = pre.into_iter().flatten().map(Some).collect();
        let mut v_all = Some((v_all, v_all_opt, stat_all));
        let (mut params, mut lcfs) = (&mut agents[..], &mut lcfs[..]);
        let mut shards = Vec::new();
        for range in balanced_ranges(num_agents, workers) {
            let own = if self.cfg.shared_params { params.len() } else { range.len() };
            let (shard_params, rest) = std::mem::take(&mut params).split_at_mut(own);
            params = rest;
            let (shard_lcfs, rest) = std::mem::take(&mut lcfs).split_at_mut(range.len());
            lcfs = rest;
            let shard_pre = pre.drain(..range.len().min(pre.len())).collect();
            shards.push(Shard {
                agents: range,
                params: shard_params,
                lcfs: shard_lcfs,
                pre: shard_pre,
                v_all: v_all.take(),
            });
        }
        let meta = self.cfg.ablation.use_copo && self.cfg.lcf_epochs > 0;
        let board = Turns::new(PhaseB {
            stat_own,
            moments: [0.0; 6],
            overall: Overall::Pending,
            lcf_jobs: Vec::new(),
            lcf_shards_pending: if meta { shards.len() } else { 0 },
        });
        let run = |shard| {
            let _stop = board.stop_on_panic();
            self.run_shard(shard, &board)
        };
        let ctx = tlm::span_context();
        let outcomes = std::thread::scope(|scope| {
            let mut shards = shards.into_iter();
            let first = shards.next().expect("at least one shard");
            let handles: Vec<_> =
                shards.map(|s| scope.spawn(|| worker_job(&ctx, || run(s)))).collect();
            let mut outcomes = vec![catch_unwind(AssertUnwindSafe(|| run(first)))];
            outcomes.extend(handles.into_iter().map(|h| h.join()));
            outcomes
        });
        let mut finals = Vec::with_capacity(num_agents);
        for outcome in outcomes {
            match outcome {
                Ok(Ok(shard_finals)) => finals.extend(shard_finals),
                Ok(Err(Stopped)) => {}
                Err(payload) => resume_unwind(payload),
            }
        }
        let (PhaseB { moments, overall, .. }, stopped) = board.into_inner();
        if stopped {
            return Err(NonFinite);
        }

        // Reduce the final-epoch aggregates to fleet means, in agent order:
        // the PPO ratio, clip fraction, entropy, KL and grad norm and the
        // own critic's loss and grad norm.
        let mut step_sums = [0.0f64; 7];
        for (p, own) in finals {
            let xs = [p.mean_ratio, p.clip_fraction, p.entropy, p.approx_kl];
            let xs = xs.into_iter().chain([p.grad_norm, own.loss, own.grad_norm]);
            for (sum, x) in step_sums.iter_mut().zip(xs) {
                *sum += x as f64;
            }
        }
        let [mean_ratio, clip_fraction, entropy, approx_kl, grad_norm, value_loss, critic_grad] =
            step_sums.map(|sum| (sum / num_agents as f64) as f32);
        stats.ppo = PpoStats { mean_ratio, clip_fraction, entropy, approx_kl, grad_norm };
        stats.value_loss = value_loss;
        stats.critic_grad_norm = critic_grad;
        let n = (num_agents * self.rollout.states.rows()) as f64;
        if n > 0.0 {
            let [sa, sa2, sr, sr2, se, se2] = moments;
            let var = |s: f64, sq: f64| (sq / n - (s / n) * (s / n)).max(0.0);
            stats.advantage_mean = (sa / n) as f32;
            stats.advantage_std = var(sa, sa2).sqrt() as f32;
            let var_ret = var(sr, sr2);
            stats.explained_variance =
                if var_ret > 1e-12 { (1.0 - var(se, se2) / var_ret) as f32 } else { 0.0 };
        }
        match overall {
            Overall::Failed => Err(NonFinite),
            _ => Ok(()),
        }
    }

    /// One worker's job: its shard's policy epochs, V_all when it holds
    /// it, then LCF meta epochs from the queue all workers share once
    /// V_all's advantage is ready.
    fn run_shard<'m>(
        &self,
        shard: Shard<'m, 'a>,
        board: &Turns<PhaseB<'m>>,
    ) -> Result<FinalStats, Stopped> {
        let cfg = self.cfg;
        let num_agents = self.rollout.num_agents();
        let Shard { agents, params, lcfs, mut pre, v_all } = shard;
        let at = |k: usize| k - agents.start;
        let param = |k: usize| if cfg.shared_params { 0 } else { at(k) };
        // Line 13: the behaviour policies, frozen for the meta step.
        let meta = cfg.ablation.use_copo && cfg.lcf_epochs > 0;
        let old_policies: Vec<BehaviourPolicy> =
            if meta { params.iter().map(PpoAgent::behaviour_policy).collect() } else { Vec::new() };
        // Agents with their own parameters run each phase for the whole
        // shard at once. A shared parameter set must see each agent's step
        // before the next agent's forward, so then every agent is a group
        // of its own: exactly the one-agent-at-a-time loop.
        let groups: Vec<Range<usize>> = if cfg.shared_params {
            agents.clone().map(|k| k..k + 1).collect()
        } else {
            vec![agents.clone()]
        };
        let mut finals = Vec::with_capacity(agents.len());
        let mut last_adv: Vec<[Vec<f32>; 3]> = vec![Default::default(); agents.len()];
        let span = tlm::span("ppo_epochs");
        // Lines 14-20: M1 policy epochs.
        for epoch in 0..cfg.policy_epochs {
            let is_final = epoch + 1 == cfg.policy_epochs;
            for group in &groups {
                // Phase A: critic values, neighbourhood GAE.
                let passes: Vec<_> = group
                    .clone()
                    .map(|k| {
                        let ahead = pre.get_mut(at(k)).and_then(Option::take);
                        self.critic_pass(&mut params[param(k)], k, ahead)
                    })
                    .collect();
                // Phase B, in agent order across all workers: everything
                // that reads or advances the shared value-norm statistics.
                let mut steps = Vec::with_capacity(group.len());
                for (k, pass) in group.clone().zip(passes) {
                    let lcf = &lcfs[at(k)];
                    let ticket = epoch * num_agents + k;
                    match board.take(ticket, |b| self.phase_b(b, lcf, k, pass, is_final)) {
                        None => return Err(Stopped),
                        Some(Err(NonFinite)) => {
                            board.stop();
                            return Err(Stopped);
                        }
                        Some(Ok((step, adv))) => {
                            last_adv[at(k)] = adv;
                            steps.push(step);
                        }
                    }
                }
                // Phase C: policy and critic steps.
                for (k, step) in group.clone().zip(&steps) {
                    let out = self.policy_step(&mut params[param(k)], k, step);
                    if is_final {
                        finals.push(out);
                    }
                }
            }
        }
        drop(span);
        // Hand in this shard's meta steps, one job per parameter set.
        if meta {
            let mut jobs: Vec<LcfJob<'m>> = params
                .iter_mut()
                .zip(old_policies)
                .map(|(agent, old)| LcfJob { agent, old, lcfs: Vec::new() })
                .collect();
            for ((k, lcf), adv) in agents.clone().zip(lcfs.iter_mut()).zip(last_adv) {
                jobs[param(k)].lcfs.push((k, lcf, adv));
            }
            board.update(|b| {
                b.lcf_jobs.extend(jobs);
                b.lcf_shards_pending -= 1;
            });
        }
        // Line 20: the overall value network, which no agent's epochs read.
        if let Some((net, opt, stat)) = v_all {
            let overall = match self.v_all_update(net, opt, stat) {
                Ok(mut adv_all) => {
                    normalize_advantages(&mut adv_all);
                    Overall::Ready(adv_all)
                }
                Err(NonFinite) => Overall::Failed,
            };
            board.update(|b| b.overall = overall);
        }
        // Lines 21-23: M2 LCF meta epochs (Eqns 30-32). No agent's meta
        // step reads another agent's LCF, so each agent runs all its meta
        // epochs in one go, on whichever worker takes its job: a worker
        // whose shard ran fast takes the slower shard's agents.
        if meta {
            let adv_all = board
                .wait_for(|b| match &b.overall {
                    Overall::Pending => None,
                    Overall::Failed => Some(None),
                    Overall::Ready(adv_all) => Some(Some(adv_all.clone())),
                })
                .ok_or(Stopped)?;
            if let Some(adv_all) = adv_all {
                let _s = tlm::span("lcf_meta_gradient");
                let next = |b: &mut PhaseB<'m>| match b.lcf_jobs.pop() {
                    Some(job) => Some(Some(job)),
                    None if b.lcf_shards_pending == 0 => Some(None),
                    None => None,
                };
                while let Some(LcfJob { agent, mut old, lcfs }) =
                    board.wait_for(next).ok_or(Stopped)?
                {
                    for (k, lcf, adv) in lcfs {
                        self.lcf_meta_step(agent, &mut old, lcf, k, &adv_all, &adv);
                    }
                }
            }
        }
        Ok(finals)
    }

    fn gae(&self, rewards: &[f32], values: &[f32]) -> (Vec<f32>, Vec<f32>) {
        gae_segmented(rewards, values, &self.segments, 0.0, self.cfg.gamma, self.cfg.gae_lambda)
    }

    /// GAE on a value-normalised critic's `values`: `(advantages, returns,
    /// values)`, with the values denormalised by `stat` first.
    fn value_gae(
        &self,
        stat: &RunningStat,
        rewards: &[f32],
        values: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let v: Vec<f32> = if self.cfg.value_norm {
            values.iter().map(|&x| stat.denormalize(x)).collect()
        } else {
            values.to_vec()
        };
        let (adv, ret) = self.gae(rewards, &v);
        (adv, ret, v)
    }

    /// The critic's regression targets from the GAE returns `ret`: folded
    /// into `stat` and normalised by it first under value normalisation.
    fn value_targets(&self, stat: &mut RunningStat, ret: Vec<f32>) -> Vec<f32> {
        if !self.cfg.value_norm {
            return ret;
        }
        stat.push_slice(&ret);
        ret.iter().map(|&r| stat.normalize(r)).collect()
    }

    /// Phase A for agent `k`: the critics' forwards (`ahead` when they ran
    /// before the epochs), whose values give the neighbourhood advantages
    /// and returns here and whose cached activations phase C steps from
    /// (nothing touches a critic between the two phases).
    fn critic_pass(
        &self,
        agent: &mut PpoAgent,
        k: usize,
        ahead: Option<CriticForwards<'a>>,
    ) -> CriticPass<'a> {
        let fwds = ahead.unwrap_or_else(|| critic_forwards(self.cfg, self.rollout, agent, k));
        match (fwds.neighbors, self.neighbor_rewards.get(k)) {
            (Some([he, ho]), Some([r_he, r_ho])) => {
                let (a_he, ret_he) = self.gae(r_he, he.values());
                let (a_ho, ret_ho) = self.gae(r_ho, ho.values());
                CriticPass {
                    own: fwds.own,
                    neighbor_adv: [a_he, a_ho],
                    neighbors: Some([(he, ret_he), (ho, ret_ho)]),
                }
            }
            _ => {
                let zeros = vec![0.0; fwds.own.values().len()];
                CriticPass { own: fwds.own, neighbor_adv: [zeros.clone(), zeros], neighbors: None }
            }
        }
    }

    /// Phase B for agent `k`, in its turn: the individual advantage (Eqn 24
    /// generalised by GAE) and the cooperation-aware one (Eqn 27) under
    /// its LCF, their NaN check, the final epoch's moments, and the own
    /// critic's targets (Eqn 26), which advance `stat_own`. Returns the
    /// step for phase C and `[A, A_HE, A_HO]`.
    fn phase_b(
        &self,
        shared: &mut PhaseB<'_>,
        lcf: &Lcf,
        k: usize,
        pass: CriticPass<'a>,
        is_final: bool,
    ) -> Result<(PolicyStep<'a>, [Vec<f32>; 3]), NonFinite> {
        let (adv, ret, v) = self.value_gae(shared.stat_own, &self.rewards[k], pass.own.values());
        let [adv_he, adv_ho] = pass.neighbor_adv;
        let mut a_co: Vec<f32> = if self.cfg.ablation.use_copo {
            (0..adv.len()).map(|t| lcf.coop_advantage(adv[t], adv_he[t], adv_ho[t])).collect()
        } else {
            adv.clone()
        };
        guard(self.cfg.nan_guard, || {
            all_finite(&adv) && all_finite(&adv_he) && all_finite(&adv_ho) && all_finite(&a_co)
        })?;
        if is_final {
            for t in 0..adv.len() {
                let (a, r, e) = (a_co[t] as f64, ret[t] as f64, (ret[t] - v[t]) as f64);
                for (m, x) in shared.moments.iter_mut().zip([a, a * a, r, r * r, e, e * e]) {
                    *m += x;
                }
            }
        }
        normalize_advantages(&mut a_co);
        let own_targets = self.value_targets(shared.stat_own, ret);
        let step = PolicyStep { a_co, own: (pass.own, own_targets), neighbors: pass.neighbors };
        Ok((step, [adv, adv_he, adv_ho]))
    }

    /// Phase C for agent `k`: the policy step (Eqn 28) and the critic
    /// regressions (Eqn 26) from phase A's forwards; returns the policy and
    /// own-critic stats.
    fn policy_step(
        &self,
        agent: &mut PpoAgent,
        k: usize,
        step: &PolicyStep,
    ) -> (PpoStats, CriticStats) {
        let (cfg, r) = (self.cfg, self.rollout);
        let ppo = agent.ppo_update(&r.obs[k], &r.actions[k], &r.log_probs[k], &step.a_co, cfg);
        let (own_fwd, own_targets) = &step.own;
        let own = match &step.neighbors {
            Some([(he, he_targets), (ho, ho_targets)]) => {
                let steps = [(own_fwd, &own_targets[..]), (he, he_targets), (ho, ho_targets)];
                agent.critic_steps(steps, cfg.max_grad_norm)[0]
            }
            None => agent.critic_step(own_fwd, own_targets, cfg.max_grad_norm),
        };
        (ppo, own)
    }

    /// Line 20: one regression step of the overall value network on the
    /// fleet reward `r_all`; returns the overall advantage.
    fn v_all_update(
        &self,
        v_all: &mut Mlp,
        opt: &mut Adam,
        stat_all: &mut RunningStat,
    ) -> Result<Vec<f32>, NonFinite> {
        let _s = tlm::span("v_all_update");
        let state = &self.rollout.states;
        let r_all: Vec<f32> =
            (0..state.rows()).map(|t| self.rewards.iter().map(|r| r[t]).sum()).collect();
        // The training forward gives the values GAE needs and the
        // activations the regression step below backpropagates.
        let pred = v_all.forward(state);
        let (adv_all, ret_all, _) = self.value_gae(stat_all, &r_all, pred.as_slice());
        guard(self.cfg.nan_guard, || all_finite(&adv_all) && all_finite(&ret_all))?;
        let targets = self.value_targets(stat_all, ret_all);
        v_all.zero_grad();
        let target = Matrix::from_vec(targets.len(), 1, targets);
        let (_, grad) = agsc_nn::loss::mse(&pred, &target);
        v_all.backward_params(state, &grad);
        v_all.clip_grad_norm(self.cfg.max_grad_norm);
        opt.step(&mut v_all.params_mut());
        Ok(adv_all)
    }

    /// Lines 21-23 for agent `k`: every meta epoch's ascent of its LCF
    /// (Eqns 30-32), from the normalised overall advantage and the agent's
    /// final-epoch `[A, A_HE, A_HO]`. `old` is the agent's behaviour policy.
    fn lcf_meta_step(
        &self,
        agent: &mut PpoAgent,
        old: &mut BehaviourPolicy,
        lcf: &mut Lcf,
        k: usize,
        adv_all: &[f32],
        [adv, adv_he, adv_ho]: &[Vec<f32>; 3],
    ) {
        let cfg = self.cfg;
        let (obs, actions) = (&self.rollout.obs[k], &self.rollout.actions[k]);
        // Term 1 (Eqn 31): ∇_{θ_new} J_all via the clipped surrogate with the
        // overall advantage. The policy does not move during the meta step,
        // so one evaluation serves every meta epoch.
        let term1 = agent.ppo_objective_grad(
            obs,
            actions,
            &self.rollout.log_probs[k],
            adv_all,
            cfg.clip_eps,
        );
        let dot = |b: &[f32]| -> f32 { term1.iter().zip(b).map(|(x, y)| x * y).sum() };
        let scale = cfg.meta_alpha / adv_all.len().max(1) as f32;
        // Term 2's behaviour policy is frozen too: one forward serves every
        // coefficient vector of every meta epoch.
        let mut old_grads = old.log_prob_grads(obs, actions);
        for _ in 0..cfg.lcf_epochs {
            // Term 2 (Eqn 32): α·E[∇_{θ_old} log π · ∂A_CO/∂LCF].
            let coeff = |d: fn(&Lcf, f32, f32, f32) -> f32| -> Vec<f32> {
                (0..adv.len()).map(|t| scale * d(lcf, adv[t], adv_he[t], adv_ho[t])).collect()
            };
            let g_phi = dot(&old_grads.grad(&coeff(Lcf::d_phi)));
            // χ only matters under the heterogeneous split.
            let g_chi = if cfg.ablation.heterogeneous {
                dot(&old_grads.grad(&coeff(Lcf::d_chi)))
            } else {
                0.0
            };
            lcf.ascend(g_phi, g_chi, cfg.lcf_lr);
        }
    }
}

/// Agent `k`'s neighbourhood rewards `[r_HE, r_HO]` (Eqn 23). Without the
/// heterogeneous split (the CoPO baseline) both are the mean over one
/// undifferentiated neighbour set.
fn neighbor_rewards(
    rollout: &Rollout,
    rewards: &[Vec<f32>],
    k: usize,
    heterogeneous: bool,
) -> [Vec<f32>; 2] {
    let he = rollout.neighbor_reward(rewards, k, NeighborKind::Heterogeneous);
    let ho = rollout.neighbor_reward(rewards, k, NeighborKind::Homogeneous);
    if heterogeneous {
        return [he, ho];
    }
    let merged: Vec<f32> = he
        .iter()
        .zip(&ho)
        .enumerate()
        .map(|(t, (&a, &b))| {
            let n_he = rollout.het_neighbors[t][k].len();
            let n_ho = rollout.hom_neighbors[t][k].len();
            let n = n_he + n_ho;
            if n == 0 {
                0.0
            } else {
                (a * n_he as f32 + b * n_ho as f32) / n as f32
            }
        })
        .collect();
    [merged.clone(), merged]
}

/// Baselines `(FLOPs, GEMM ns)` for the iteration's GEMM deltas: folds the
/// caller's stale thread tallies into the process-wide totals first, so the
/// deltas measured by [`publish_iteration_flops`] cover exactly this
/// iteration. Returns zeros untouched when telemetry is off.
fn iteration_flops_start(started: &Option<std::time::Instant>) -> (u64, u64) {
    if started.is_none() {
        return (0, 0);
    }
    agsc_nn::flops::flush_thread();
    (agsc_nn::flops::total(), agsc_nn::flops::total_ns())
}

/// Publish the iteration's GEMM work as the cumulative `nn.flops` counter
/// (whose windowed mirror is a rolling FLOP/s rate), the per-iteration
/// `nn.gflops` throughput gauge and the `nn.gemm_ms` gauge: time spent
/// inside GEMM dispatch, summed over the iteration's threads.
fn publish_iteration_flops((flops0, ns0): (u64, u64), secs: f64) {
    agsc_nn::flops::flush_thread();
    let flops = agsc_nn::flops::total().saturating_sub(flops0);
    if flops > 0 {
        tlm::counter_add("nn.flops", flops);
        tlm::gauge_set("nn.gflops", flops as f64 / secs / 1e9);
        let ns = agsc_nn::flops::total_ns().saturating_sub(ns0);
        tlm::gauge_set("nn.gemm_ms", ns as f64 / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use agsc_datasets::presets;
    use agsc_env::EnvConfig;

    fn small_env() -> AirGroundEnv {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig {
            horizon: 20, // keep tests fast
            stochastic_fading: false,
            ..EnvConfig::default()
        };
        AirGroundEnv::new(cfg, &dataset, 5)
    }

    fn small_train_cfg() -> TrainConfig {
        TrainConfig { hidden: vec![32], policy_epochs: 2, lcf_epochs: 1, ..TrainConfig::default() }
    }

    #[test]
    fn rollout_has_full_horizon() {
        let mut env = small_env();
        let mut t = HiMadrlTrainer::new(&env, small_train_cfg(), 10, 3).unwrap();
        let r = t.collect_rollout(&mut env);
        assert_eq!(r.len(), 20);
        assert_eq!(r.num_agents(), 4);
        assert_eq!(r.obs[0].cols(), env.obs_dim());
    }

    #[test]
    fn train_iteration_runs_and_reports() {
        let mut env = small_env();
        let mut t = HiMadrlTrainer::new(&env, small_train_cfg(), 10, 3).unwrap();
        let stats = t.train_iteration(&mut env);
        assert!(stats.mean_ext_reward.is_finite());
        assert!(stats.classifier_loss.is_finite());
        assert!(stats.mean_intrinsic >= 0.0);
        assert_eq!(stats.lcf_degrees.len(), 4);
        assert_eq!(t.iterations_done(), 1);
        // Learning-health signals: present, finite, correctly shaped.
        assert!(stats.ppo.approx_kl.is_finite());
        assert!(stats.ppo.grad_norm >= 0.0);
        assert!(stats.value_loss >= 0.0);
        assert!(stats.critic_grad_norm >= 0.0);
        assert!(stats.explained_variance.is_finite());
        assert!(stats.advantage_std >= 0.0);
        assert_eq!(stats.intrinsic_share.len(), 4);
        assert_eq!(stats.collection_share.len(), 4);
        let ishare: f32 = stats.intrinsic_share.iter().sum();
        assert!(ishare == 0.0 || (ishare - 1.0).abs() < 1e-4, "shares must sum to 1: {ishare}");
        let cshare: f32 = stats.collection_share.iter().sum();
        assert!(cshare == 0.0 || (cshare - 1.0).abs() < 1e-4, "shares must sum to 1: {cshare}");
        assert!(stats.anomalies.is_empty(), "train_iteration itself never fills anomalies");
        // LCFs stay in the quadrant.
        for &(phi, chi) in &stats.lcf_degrees {
            assert!((0.0..=90.0).contains(&phi));
            assert!((0.0..=90.0).contains(&chi));
        }
    }

    #[test]
    fn ablations_all_run() {
        for ablation in [
            Ablation::full(),
            Ablation::copo_baseline(),
            Ablation::without_eoi(),
            Ablation::without_copo(),
            Ablation::base_only(),
        ] {
            let mut env = small_env();
            let mut cfg = small_train_cfg();
            cfg.ablation = ablation;
            let mut t = HiMadrlTrainer::new(&env, cfg, 5, 3).unwrap();
            let stats = t.train_iteration(&mut env);
            assert!(stats.mean_ext_reward.is_finite(), "{ablation:?} produced NaN");
        }
    }

    #[test]
    fn no_eoi_means_no_intrinsic_reward() {
        let mut env = small_env();
        let mut cfg = small_train_cfg();
        cfg.ablation = Ablation::without_eoi();
        let mut t = HiMadrlTrainer::new(&env, cfg, 5, 3).unwrap();
        assert_eq!(t.intrinsic_weight(), 0.0);
        let stats = t.train_iteration(&mut env);
        assert_eq!(stats.mean_intrinsic, 0.0);
        assert_eq!(stats.classifier_loss, 0.0);
    }

    #[test]
    fn shared_params_uses_one_agent() {
        let mut env = small_env();
        let mut cfg = small_train_cfg();
        cfg.shared_params = true;
        let mut t = HiMadrlTrainer::new(&env, cfg, 5, 3).unwrap();
        let s = t.train_iteration(&mut env);
        assert!(s.mean_ext_reward.is_finite());
        // All UVs act through the same network: identical obs ⇒ identical
        // deterministic action.
        let obs = vec![0.1f32; t.obs_dim()];
        let a0 = t.policy_action(0, &obs);
        let a3 = t.policy_action(3, &obs);
        assert_eq!(a0, a3);
    }

    #[test]
    fn centralized_critic_variant_runs() {
        let mut env = small_env();
        let mut cfg = small_train_cfg();
        cfg.centralized_critic = true;
        let mut t = HiMadrlTrainer::new(&env, cfg, 5, 3).unwrap();
        let s = t.train_iteration(&mut env);
        assert!(s.mean_ext_reward.is_finite());
    }

    #[test]
    fn training_improves_reward_on_average() {
        // Smoke-level learning check: after a few dozen iterations the mean
        // extrinsic reward should beat the first iteration's.
        let mut env = small_env();
        let mut cfg = small_train_cfg();
        cfg.policy_epochs = 4;
        let mut t = HiMadrlTrainer::new(&env, cfg, 40, 11).unwrap();
        let stats = t.train(&mut env, 40);
        let early: f32 = stats[..5].iter().map(|s| s.mean_ext_reward).sum::<f32>() / 5.0;
        let late: f32 =
            stats[stats.len() - 5..].iter().map(|s| s.mean_ext_reward).sum::<f32>() / 5.0;
        // Smoke-level guard: late rewards within noise of (or above) the
        // early ones — catches sign errors and divergence, not fine tuning.
        assert!(
            late >= early * 0.5 - 1e-4,
            "reward collapsed over training: early {early}, late {late}"
        );
    }

    #[test]
    fn lcf_report_by_kind() {
        let env = small_env();
        let t = HiMadrlTrainer::new(&env, small_train_cfg(), 5, 3).unwrap();
        let ((uav_phi, uav_chi), (ugv_phi, ugv_chi)) = t.mean_lcf_by_kind();
        assert_eq!(uav_phi, 0.0);
        assert!((uav_chi - 45.0).abs() < 1e-4);
        assert_eq!(ugv_phi, 0.0);
        assert!((ugv_chi - 45.0).abs() < 1e-4);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let env = small_env();
        let mut cfg = small_train_cfg();
        cfg.gamma = 2.0;
        let err = HiMadrlTrainer::new(&env, cfg, 5, 3).unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "got {err:?}");
        assert!(err.to_string().contains("gamma"));
    }

    #[test]
    fn nan_guard_skips_poisoned_update_and_restores() {
        let mut env = small_env();
        let mut t = HiMadrlTrainer::new(&env, small_train_cfg(), 10, 3).unwrap();
        // Poison the overall value network so `adv_all` goes non-finite
        // mid-iteration, after the policy networks have already stepped.
        for p in t.learn.models.v_all.params_mut() {
            p.value.as_mut_slice().fill(f32::NAN);
        }
        let obs = vec![0.1f32; t.obs_dim()];
        let before = t.policy_action(0, &obs);
        let stats = t.train_iteration(&mut env);
        assert!(stats.update_skipped, "guard must flag the poisoned update");
        assert!(stats.nan_events >= 1);
        // The rollback must undo the policy epochs that ran before the
        // poison was detected.
        let after = t.policy_action(0, &obs);
        assert_eq!(before, after, "learnables must be restored on skip");
        // The iteration still counts and later iterations keep running.
        assert_eq!(t.iterations_done(), 1);
        let stats2 = t.train_iteration(&mut env);
        assert!(stats2.update_skipped);
        assert_eq!(t.iterations_done(), 2);
    }

    /// The checkpoint JSON with the iteration count zeroed: every learnable
    /// the NaN guard must restore, and nothing else that an iteration moves.
    fn learnables(t: &HiMadrlTrainer) -> String {
        let mut c = t.checkpoint();
        c.iterations_done = 0;
        serde_json::to_string(&c).unwrap()
    }

    #[test]
    fn invalid_config_in_a_checkpoint_is_a_typed_error() {
        let env = small_env();
        let mut ckpt = HiMadrlTrainer::new(&env, small_train_cfg(), 5, 3).unwrap().checkpoint();
        ckpt.config.policy_epochs = 0;
        let err = HiMadrlTrainer::restore(&ckpt, 3).unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "got {err:?}");
    }

    #[test]
    fn nan_guard_skips_an_update_from_a_poisoned_classifier() {
        let mut env = small_env();
        let mut t = HiMadrlTrainer::new(&env, small_train_cfg(), 10, 3).unwrap();
        // NaN identity probabilities must reach the reward guard instead of
        // panicking in the classifier's accuracy.
        for p in t.learn.classifier.as_mut().unwrap().net_mut().params_mut() {
            p.value.as_mut_slice().fill(f32::NAN);
        }
        let before = learnables(&t);
        let stats = t.train_iteration(&mut env);
        assert!(stats.update_skipped, "guard must flag the poisoned update");
        assert!(stats.nan_events >= 1);
        assert_eq!(stats.classifier_accuracy, 0.0, "NaN rows count as misses");
        assert_eq!(learnables(&t), before, "learnables must be restored on skip");
        assert_eq!(t.iterations_done(), 1);
    }

    #[test]
    fn nan_guard_skips_an_update_from_a_poisoned_lcf() {
        let mut env = small_env();
        let mut t = HiMadrlTrainer::new(&env, small_train_cfg(), 10, 3).unwrap();
        // A NaN LCF poisons the cooperation-aware advantage (Eqn 27) that
        // phase B of the first policy epoch checks.
        t.learn.models.lcfs[0] = Lcf { phi: f32::NAN, chi: f32::NAN };
        let before = learnables(&t);
        let stats = t.train_iteration(&mut env);
        assert!(stats.update_skipped, "guard must flag the poisoned update");
        assert_eq!(stats.nan_events, 1);
        assert_eq!(learnables(&t), before, "learnables must be restored on skip");
    }

    #[test]
    fn vec_iteration_with_one_replica_matches_serial_bitwise() {
        let mut env = small_env();
        let mut serial = HiMadrlTrainer::new(&env, small_train_cfg(), 10, 3).unwrap();
        let mut vectored = HiMadrlTrainer::new(&env, small_train_cfg(), 10, 3).unwrap();
        let mut venv = VecEnv::new(&env, 1);
        let a = serial.train_iteration(&mut env);
        let b = vectored.train_iteration_vec(&mut venv);
        assert_eq!(a.mean_ext_reward.to_bits(), b.mean_ext_reward.to_bits());
        assert_eq!(a.value_loss.to_bits(), b.value_loss.to_bits());
        assert_eq!(a.ppo.approx_kl.to_bits(), b.ppo.approx_kl.to_bits());
        assert_eq!(a.lcf_degrees, b.lcf_degrees);
    }

    #[test]
    fn vec_training_with_multiple_replicas_runs() {
        let env = small_env();
        let mut cfg = small_train_cfg();
        cfg.num_envs = 2;
        cfg.rollout_workers = 2;
        let mut t = HiMadrlTrainer::new(&env, cfg, 5, 3).unwrap();
        let mut venv = VecEnv::new(&env, 2);
        let stats = t.train_iteration_vec(&mut venv);
        assert!(stats.mean_ext_reward.is_finite());
        assert!(stats.value_loss.is_finite());
        assert_eq!(t.iterations_done(), 1);
    }

    #[test]
    fn train_dispatches_to_vec_path_when_configured() {
        let mut env = small_env();
        let mut cfg = small_train_cfg();
        cfg.num_envs = 3;
        let mut t = HiMadrlTrainer::new(&env, cfg, 4, 9).unwrap();
        let stats = t.train(&mut env, 2);
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.mean_ext_reward.is_finite()));
        assert_eq!(t.iterations_done(), 2);
    }

    #[test]
    fn worker_count_does_not_change_collected_rollouts() {
        let env = small_env();
        let mut cfg1 = small_train_cfg();
        cfg1.rollout_workers = 1;
        let mut cfg4 = small_train_cfg();
        cfg4.rollout_workers = 4;
        let t1 = HiMadrlTrainer::new(&env, cfg1, 5, 3).unwrap();
        let t4 = HiMadrlTrainer::new(&env, cfg4, 5, 3).unwrap();
        let mut v1 = VecEnv::new(&env, 4);
        let mut v4 = VecEnv::new(&env, 4);
        let r1 = t1.collect_rollout_vec_seeded(&mut v1, 0x5EED);
        let r4 = t4.collect_rollout_vec_seeded(&mut v4, 0x5EED);
        assert_eq!(r1, r4);
    }

    #[test]
    fn nan_guard_reports_clean_iterations_as_clean() {
        let mut env = small_env();
        let mut t = HiMadrlTrainer::new(&env, small_train_cfg(), 10, 3).unwrap();
        let stats = t.train_iteration(&mut env);
        assert!(!stats.update_skipped);
        assert_eq!(stats.nan_events, 0);
    }
}
