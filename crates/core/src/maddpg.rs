//! MADDPG base module (§V: "the base module can be almost any multi-agent
//! actor-critic algorithm, e.g. MADDPG, IPPO and MAPPO").
//!
//! Deterministic per-UV actors with a centralised critic
//! `Q^k(s, a¹..a^K)` trained from a shared replay buffer (Lowe et al.,
//! NeurIPS 2017). Both plug-ins attach exactly as the paper prescribes:
//!
//! * **i-EOI** — the identity classifier trains on replayed observations
//!   ("experience replay used in MADDPG", §V-A) and its confidence is added
//!   to the stored reward (Eqn 19);
//! * **h-CoPO** — off-policy learners have no surrogate advantage, so the
//!   cooperation-aware *reward* form (Eqn 22) blends neighbour rewards with
//!   fixed LCFs. The meta-gradient (Eqns 30-32) is PPO-specific and does not
//!   transfer; LCFs here are configuration, not learned.

use crate::config::Ablation;
use crate::copo::{neighbor_range_m, Lcf};
use crate::eoi::EoiClassifier;
use crate::eval::Policy;
use agsc_env::{AirGroundEnv, UvAction};
use agsc_nn::dist::sample_standard_normal;
use agsc_nn::{Activation, Adam, Init, Matrix, Mlp, Param};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// MADDPG hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MaddpgConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Soft target-update coefficient τ.
    pub tau: f32,
    /// Replay capacity in joint transitions.
    pub capacity: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Hidden layer sizes.
    pub hidden: Vec<usize>,
    /// Exploration noise σ.
    pub exploration_noise: f32,
    /// Gradient updates per training iteration.
    pub updates_per_iteration: usize,
    /// Plug-in selection (heterogeneous flag is ignored: with fixed LCFs the
    /// χ split is part of the Lcf values themselves).
    pub ablation: Ablation,
    /// Intrinsic-reward weight ω_in (Eqn 19).
    pub omega_in: f32,
    /// Fixed cooperation LCFs applied to stored rewards (Eqn 22).
    pub lcf: Lcf,
    /// Homogeneous-neighbour range as a fraction of the area diagonal.
    pub neighbor_range_frac: f64,
}

impl Default for MaddpgConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            actor_lr: 1e-3,
            critic_lr: 3e-3,
            tau: 0.01,
            capacity: 20_000,
            batch_size: 64,
            hidden: vec![64, 64],
            exploration_noise: 0.2,
            updates_per_iteration: 16,
            ablation: Ablation::full(),
            omega_in: 0.003,
            // Mildly cooperative default: φ = 30°, χ = 45°.
            lcf: Lcf::from_degrees(30.0, 45.0),
            neighbor_range_frac: 0.25,
        }
    }
}

/// One joint transition.
#[derive(Debug, Clone)]
struct JointTransition {
    state: Vec<f32>,
    obs: Vec<Vec<f32>>,
    actions: Vec<[f32; 2]>,
    /// Cooperation-aware compound rewards (Eqns 19 + 22 applied).
    rewards: Vec<f32>,
    next_state: Vec<f32>,
    next_obs: Vec<Vec<f32>>,
    done: bool,
}

/// One UV's MADDPG networks.
#[derive(Debug, Clone)]
struct MaddpgAgent {
    actor: Mlp,
    actor_target: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
}

/// The MADDPG learner with h/i plug-ins.
#[derive(Debug)]
pub struct Maddpg {
    cfg: MaddpgConfig,
    agents: Vec<MaddpgAgent>,
    classifier: Option<EoiClassifier>,
    replay: Vec<JointTransition>,
    cursor: usize,
    rng: ChaCha8Rng,
    num_agents: usize,
    iterations_done: usize,
    neighbor_range: f64,
}

fn soft_update(dst: &mut Mlp, src: &Mlp, tau: f32) {
    let s: Vec<&Param> = src.params();
    for (d, s) in dst.params_mut().into_iter().zip(s) {
        for (dv, &sv) in d.value.as_mut_slice().iter_mut().zip(s.value.as_slice()) {
            *dv = (1.0 - tau) * *dv + tau * sv;
        }
    }
}

impl Maddpg {
    /// Build a learner for the given environment.
    pub fn new(env: &AirGroundEnv, cfg: MaddpgConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let obs_dim = env.obs_dim();
        let state_dim = obs_dim;
        let k = env.num_uvs();
        let joint_action_dim = 2 * k;
        let agents = (0..k)
            .map(|_| {
                let mut actor_sizes = vec![obs_dim];
                actor_sizes.extend_from_slice(&cfg.hidden);
                actor_sizes.push(2);
                let actor = Mlp::new(
                    &actor_sizes,
                    Activation::Tanh,
                    Activation::Tanh,
                    Init::XavierUniform,
                    Init::SmallUniform,
                    &mut rng,
                );
                let mut critic_sizes = vec![state_dim + joint_action_dim];
                critic_sizes.extend_from_slice(&cfg.hidden);
                critic_sizes.push(1);
                let critic = Mlp::tanh(&critic_sizes, &mut rng);
                MaddpgAgent {
                    actor_target: actor.clone(),
                    critic_target: critic.clone(),
                    actor,
                    critic,
                    actor_opt: Adam::new(cfg.actor_lr),
                    critic_opt: Adam::new(cfg.critic_lr),
                }
            })
            .collect();
        let classifier = cfg
            .ablation
            .use_eoi
            .then(|| EoiClassifier::new(obs_dim, &cfg.hidden, k, 1e-3, 0.1, &mut rng));
        let neighbor_range = neighbor_range_m(env.bounds().diagonal(), cfg.neighbor_range_frac);
        Self {
            agents,
            classifier,
            replay: Vec::new(),
            cursor: 0,
            rng,
            num_agents: k,
            iterations_done: 0,
            neighbor_range,
            cfg,
        }
    }

    /// Iterations completed.
    pub fn iterations_done(&self) -> usize {
        self.iterations_done
    }

    /// Stored joint transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    fn push(&mut self, t: JointTransition) {
        if self.replay.len() < self.cfg.capacity {
            self.replay.push(t);
        } else {
            self.replay[self.cursor] = t;
            self.cursor = (self.cursor + 1) % self.cfg.capacity;
        }
    }

    /// One training iteration: collect an episode with exploration noise,
    /// apply the plug-in reward transforms, then run mini-batch updates.
    /// Returns the mean per-step extrinsic reward of the episode.
    pub fn train_iteration(&mut self, env: &mut AirGroundEnv) -> f32 {
        let seed = self.rng.gen::<u64>();
        env.reset(seed);
        let k = self.num_agents;
        let mut reward_sum = 0.0f32;
        let mut steps = 0usize;
        let mut episode_obs: Vec<Matrix> = Vec::new();

        let (mut prev_state, mut prev_obs) = env.state_and_observations();
        while !env.is_done() {
            let mut actions = Vec::with_capacity(k);
            let mut actions_env = Vec::with_capacity(k);
            for (a, obs) in prev_obs.iter().enumerate().take(k) {
                let o = Matrix::row_vector(obs);
                let mean = self.agents[a].actor.forward_inference(&o);
                let noise = self.cfg.exploration_noise;
                let raw = [
                    (mean[(0, 0)] + noise * sample_standard_normal(&mut self.rng)).clamp(-1.0, 1.0),
                    (mean[(0, 1)] + noise * sample_standard_normal(&mut self.rng)).clamp(-1.0, 1.0),
                ];
                actions.push(raw);
                actions_env.push(UvAction { heading: raw[0] as f64, speed: raw[1] as f64 });
            }
            let step = env.step(&actions_env);
            let (next_state, next_obs) = env.state_and_observations();

            // Extrinsic rewards.
            let mut rewards: Vec<f32> = step.rewards.iter().map(|&r| r as f32).collect();
            reward_sum += rewards.iter().sum::<f32>();
            steps += 1;

            // Plug-in i-EOI: add intrinsic identity confidence (Eqn 19).
            if let Some(ref c) = self.classifier {
                for a in 0..k {
                    let o = Matrix::row_vector(&prev_obs[a]);
                    rewards[a] += self.cfg.omega_in * c.intrinsic(&o, a)[0];
                }
            }

            // Plug-in h-CoPO (reward form, Eqn 22): blend in neighbour means.
            if self.cfg.ablation.use_copo {
                let het = env.heterogeneous_neighbors();
                let hom = env.homogeneous_neighbors(self.neighbor_range);
                let base = rewards.clone();
                for a in 0..k {
                    let mean_of = |ns: &Vec<usize>| {
                        if ns.is_empty() {
                            0.0
                        } else {
                            ns.iter().map(|&n| base[n]).sum::<f32>() / ns.len() as f32
                        }
                    };
                    rewards[a] =
                        self.cfg.lcf.coop_advantage(base[a], mean_of(&het[a]), mean_of(&hom[a]));
                }
            }

            episode_obs.push(Matrix::from_rows(&prev_obs));
            self.push(JointTransition {
                state: prev_state.clone(),
                obs: prev_obs.clone(),
                actions: actions.clone(),
                rewards,
                next_state: next_state.clone(),
                next_obs: next_obs.clone(),
                done: step.done,
            });
            prev_obs = next_obs;
            prev_state = next_state;
        }

        // Train the identity classifier on this episode (uniform per agent).
        if let Some(ref mut c) = self.classifier {
            for batch in &episode_obs {
                let labels: Vec<usize> = (0..k).collect();
                c.train_batch(batch, &labels);
            }
        }

        if self.replay.len() >= self.cfg.batch_size {
            for _ in 0..self.cfg.updates_per_iteration {
                self.update_once();
            }
        }
        self.iterations_done += 1;
        reward_sum / (steps * k).max(1) as f32
    }

    fn update_once(&mut self) {
        let b = self.cfg.batch_size;
        let idx: Vec<usize> = (0..b).map(|_| self.rng.gen_range(0..self.replay.len())).collect();
        let k = self.num_agents;

        // Assemble batch tensors.
        let states = Matrix::from_rows(
            &idx.iter().map(|&i| self.replay[i].state.clone()).collect::<Vec<_>>(),
        );
        let next_states = Matrix::from_rows(
            &idx.iter().map(|&i| self.replay[i].next_state.clone()).collect::<Vec<_>>(),
        );
        // Target joint next actions from target actors.
        let mut next_joint = Matrix::zeros(b, 2 * k);
        for a in 0..k {
            let next_obs_a = Matrix::from_rows(
                &idx.iter().map(|&i| self.replay[i].next_obs[a].clone()).collect::<Vec<_>>(),
            );
            let na = self.agents[a].actor_target.forward_inference(&next_obs_a);
            for r in 0..b {
                next_joint[(r, 2 * a)] = na[(r, 0)];
                next_joint[(r, 2 * a + 1)] = na[(r, 1)];
            }
        }
        let mut joint_actions = Matrix::zeros(b, 2 * k);
        for (r, &i) in idx.iter().enumerate() {
            for a in 0..k {
                joint_actions[(r, 2 * a)] = self.replay[i].actions[a][0];
                joint_actions[(r, 2 * a + 1)] = self.replay[i].actions[a][1];
            }
        }

        for a in 0..k {
            // --- Critic: y = r^a + γ(1−done)·Q'^a(s', µ'(o')) ---------------
            let next_q_in = concat_cols(&next_states, &next_joint);
            let next_q = self.agents[a].critic_target.forward_inference(&next_q_in);
            let mut targets = Vec::with_capacity(b);
            for (r, &i) in idx.iter().enumerate() {
                let cont = if self.replay[i].done { 0.0 } else { self.cfg.gamma };
                targets.push(self.replay[i].rewards[a] + cont * next_q[(r, 0)]);
            }
            let q_in = concat_cols(&states, &joint_actions);
            let agent = &mut self.agents[a];
            agent.critic.zero_grad();
            let q = agent.critic.forward(&q_in);
            let t = Matrix::from_vec(b, 1, targets);
            let (_, grad) = agsc_nn::loss::mse(&q, &t);
            agent.critic.backward_params(&q_in, &grad);
            agent.critic.clip_grad_norm(1.0);
            agent.critic_opt.step(&mut agent.critic.params_mut());

            // --- Actor: ascend Q^a(s, a¹..µ^a(o^a)..a^K) ---------------------
            let obs_a = Matrix::from_rows(
                &idx.iter().map(|&i| self.replay[i].obs[a].clone()).collect::<Vec<_>>(),
            );
            agent.actor.zero_grad();
            let my_action = agent.actor.forward(&obs_a);
            let mut joint_with_mine = joint_actions.clone();
            for r in 0..b {
                joint_with_mine[(r, 2 * a)] = my_action[(r, 0)];
                joint_with_mine[(r, 2 * a + 1)] = my_action[(r, 1)];
            }
            let q_in2 = concat_cols(&states, &joint_with_mine);
            let q2 = agent.critic.forward(&q_in2);
            let ones = Matrix::full(q2.rows(), 1, -1.0 / b as f32); // ascend
            let dq_din = agent.critic.backward(&q_in2, &ones);
            agent.critic.zero_grad();
            let state_cols = states.cols();
            let mut d_act = Matrix::zeros(b, 2);
            for r in 0..b {
                d_act[(r, 0)] = dq_din[(r, state_cols + 2 * a)];
                d_act[(r, 1)] = dq_din[(r, state_cols + 2 * a + 1)];
            }
            agent.actor.backward_params(&obs_a, &d_act);
            agent.actor.clip_grad_norm(1.0);
            agent.actor_opt.step(&mut agent.actor.params_mut());

            // --- Soft target updates ----------------------------------------
            let actor_src = agent.actor.clone();
            soft_update(&mut agent.actor_target, &actor_src, self.cfg.tau);
            let critic_src = agent.critic.clone();
            soft_update(&mut agent.critic_target, &critic_src, self.cfg.tau);
        }
    }
}

fn concat_cols(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "concat row mismatch");
    let mut rows = Vec::with_capacity(a.rows());
    for r in 0..a.rows() {
        let mut row = a.row(r).to_vec();
        row.extend_from_slice(b.row(r));
        rows.push(row);
    }
    Matrix::from_rows(&rows)
}

impl Policy for Maddpg {
    fn action(&self, k: usize, obs: &[f32]) -> UvAction {
        let o = Matrix::row_vector(obs);
        let a = self.agents[k].actor.forward_inference(&o);
        UvAction { heading: a[(0, 0)] as f64, speed: a[(0, 1)] as f64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsc_datasets::presets;
    use agsc_env::EnvConfig;

    fn env() -> AirGroundEnv {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { horizon: 12, stochastic_fading: false, ..EnvConfig::default() };
        AirGroundEnv::new(cfg, &dataset, 5)
    }

    fn small_cfg() -> MaddpgConfig {
        MaddpgConfig {
            batch_size: 16,
            updates_per_iteration: 4,
            hidden: vec![16],
            capacity: 500,
            ..Default::default()
        }
    }

    #[test]
    fn trains_and_stores_joint_transitions() {
        let mut e = env();
        let mut m = Maddpg::new(&e, small_cfg(), 3);
        let r = m.train_iteration(&mut e);
        assert!(r.is_finite());
        assert_eq!(m.replay_len(), 12);
        assert_eq!(m.iterations_done(), 1);
    }

    #[test]
    fn plug_ins_toggle() {
        for ablation in [Ablation::full(), Ablation::base_only()] {
            let mut e = env();
            let cfg = MaddpgConfig { ablation, ..small_cfg() };
            let mut m = Maddpg::new(&e, cfg, 3);
            let r = m.train_iteration(&mut e);
            assert!(r.is_finite(), "{ablation:?} diverged");
        }
    }

    #[test]
    fn base_only_has_no_classifier() {
        let e = env();
        let cfg = MaddpgConfig { ablation: Ablation::base_only(), ..small_cfg() };
        let m = Maddpg::new(&e, cfg, 3);
        assert!(m.classifier.is_none());
    }

    #[test]
    fn policy_actions_bounded() {
        let e = env();
        let m = Maddpg::new(&e, small_cfg(), 3);
        let obs = vec![0.2f32; e.obs_dim()];
        let a = m.action(1, &obs);
        assert!(a.heading.abs() <= 1.0 && a.speed.abs() <= 1.0);
    }

    #[test]
    fn multiple_iterations_stay_finite() {
        let mut e = env();
        let mut m = Maddpg::new(&e, small_cfg(), 3);
        for _ in 0..3 {
            assert!(m.train_iteration(&mut e).is_finite());
        }
    }

    #[test]
    fn replay_wraps_at_capacity() {
        let mut e = env();
        let cfg = MaddpgConfig { capacity: 20, ..small_cfg() };
        let mut m = Maddpg::new(&e, cfg, 3);
        m.train_iteration(&mut e); // 12 transitions
        m.train_iteration(&mut e); // 24 > 20 → wrapped
        assert_eq!(m.replay_len(), 20);
    }
}
