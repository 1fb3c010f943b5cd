//! The e-Divert baseline (§VI-A, citing Liu et al., IEEE TMC 2019):
//! a CTDE actor-critic for spatial crowdsourcing built on *distributed
//! prioritized experience replay* and a recurrent core for sequential
//! modeling.
//!
//! Reproduction notes (see DESIGN.md): the original uses an LSTM; we use a
//! GRU (same gated-recurrence family). The deterministic-policy-gradient
//! update is DDPG-style: the critic `Q(o, a)` is regressed on one-step TD
//! targets from target networks, and the actor ascends `∇_a Q` chained
//! through the recurrent actor. Priority sampling is proportional to |TD|
//! (importance weights omitted — a simplification that leaves the ranking
//! behaviour intact).

use agsc_env::{AirGroundEnv, UvAction};
use agsc_madrl::Policy;
use agsc_nn::{Activation, Adam, GruCell, Init, Matrix, Mlp};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Hyperparameters for e-Divert.
#[derive(Debug, Clone, PartialEq)]
pub struct EDivertConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Soft target-update coefficient τ.
    pub tau: f32,
    /// Replay capacity (transitions, shared across agents).
    pub capacity: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// GRU hidden width.
    pub gru_hidden: usize,
    /// MLP hidden sizes for the critic and actor head.
    pub hidden: Vec<usize>,
    /// Gaussian exploration noise σ added to actions while collecting.
    pub exploration_noise: f32,
    /// Priority floor ε.
    pub priority_eps: f32,
    /// Gradient updates per training iteration.
    pub updates_per_iteration: usize,
}

impl Default for EDivertConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            actor_lr: 1e-3,
            critic_lr: 3e-3,
            tau: 0.01,
            capacity: 20_000,
            batch_size: 64,
            gru_hidden: 32,
            hidden: vec![64],
            exploration_noise: 0.2,
            priority_eps: 1e-3,
            updates_per_iteration: 32,
        }
    }
}

/// One stored transition (with the recurrent state at both ends).
#[derive(Debug, Clone)]
struct Transition {
    agent: usize,
    obs: Vec<f32>,
    hidden: Vec<f32>,
    action: [f32; 2],
    reward: f32,
    next_obs: Vec<f32>,
    next_hidden: Vec<f32>,
    done: bool,
}

/// Proportional prioritized replay buffer.
#[derive(Debug, Default)]
struct PrioritizedReplay {
    items: Vec<Transition>,
    priorities: Vec<f32>,
    capacity: usize,
    cursor: usize,
}

impl PrioritizedReplay {
    fn new(capacity: usize) -> Self {
        Self { items: Vec::new(), priorities: Vec::new(), capacity, cursor: 0 }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn push(&mut self, t: Transition) {
        let p = self.priorities.iter().cloned().fold(1.0f32, f32::max);
        if self.items.len() < self.capacity {
            self.items.push(t);
            self.priorities.push(p);
        } else {
            self.items[self.cursor] = t;
            self.priorities[self.cursor] = p;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    /// Sample `n` indices proportionally to priority.
    fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        let total: f32 = self.priorities.iter().sum();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut u = rng.gen::<f32>() * total;
            let mut idx = self.priorities.len() - 1;
            for (i, &p) in self.priorities.iter().enumerate() {
                if u < p {
                    idx = i;
                    break;
                }
                u -= p;
            }
            out.push(idx);
        }
        out
    }

    fn update_priority(&mut self, idx: usize, td_abs: f32, eps: f32) {
        self.priorities[idx] = td_abs + eps;
    }
}

/// Recurrent deterministic actor: GRU(obs, h) → head → tanh action.
#[derive(Debug, Clone)]
struct Actor {
    core: GruCell,
    head: Mlp,
}

impl Actor {
    fn new<R: Rng + ?Sized>(obs_dim: usize, cfg: &EDivertConfig, rng: &mut R) -> Self {
        let mut head_sizes = vec![cfg.gru_hidden];
        head_sizes.extend_from_slice(&cfg.hidden);
        head_sizes.push(2);
        Self {
            core: GruCell::new(obs_dim, cfg.gru_hidden, rng),
            head: Mlp::new(
                &head_sizes,
                Activation::Tanh,
                Activation::Tanh,
                Init::XavierUniform,
                Init::SmallUniform,
                rng,
            ),
        }
    }

    fn state_dim(&self) -> usize {
        self.core.hidden_dim()
    }

    /// Inference: `(action batch, next hidden state batch)`.
    fn forward_inference(&self, obs: &Matrix, h: &Matrix) -> (Matrix, Matrix) {
        let next = self.core.forward_inference(obs, h);
        (self.head.forward_inference(&next), next)
    }

    /// Soft-update parameters towards `source`.
    fn soft_update_from(&mut self, source: &Actor, tau: f32) {
        soft_update_params(&mut self.core.params_mut(), &source.core.params(), tau);
        soft_update_params(&mut self.head.params_mut(), &source.head.params(), tau);
    }
}

fn soft_update_params(dst: &mut [&mut agsc_nn::Param], src: &[&agsc_nn::Param], tau: f32) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        for (dv, &sv) in d.value.as_mut_slice().iter_mut().zip(s.value.as_slice()) {
            *dv = (1.0 - tau) * *dv + tau * sv;
        }
    }
}

/// One UV's e-Divert networks.
#[derive(Debug, Clone)]
struct EDivertAgent {
    actor: Actor,
    actor_target: Actor,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    /// Recurrent state carried across an episode while acting.
    hidden: Vec<f32>,
}

impl EDivertAgent {
    fn new<R: Rng + ?Sized>(obs_dim: usize, cfg: &EDivertConfig, rng: &mut R) -> Self {
        let actor = Actor::new(obs_dim, cfg, rng);
        let mut critic_sizes = vec![obs_dim + 2];
        critic_sizes.extend_from_slice(&cfg.hidden);
        critic_sizes.push(1);
        let critic = Mlp::tanh(&critic_sizes, rng);
        Self {
            actor_target: actor.clone(),
            critic_target: critic.clone(),
            hidden: vec![0.0; actor.state_dim()],
            actor,
            critic,
            actor_opt: Adam::new(cfg.actor_lr),
            critic_opt: Adam::new(cfg.critic_lr),
        }
    }
}

/// The e-Divert learner/policy.
#[derive(Debug)]
pub struct EDivert {
    cfg: EDivertConfig,
    agents: Vec<EDivertAgent>,
    replay: PrioritizedReplay,
    rng: ChaCha8Rng,
    iterations_done: usize,
}

impl EDivert {
    /// Build for the given environment.
    pub fn new(env: &AirGroundEnv, cfg: EDivertConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let obs_dim = env.obs_dim();
        let agents =
            (0..env.num_uvs()).map(|_| EDivertAgent::new(obs_dim, &cfg, &mut rng)).collect();
        Self { replay: PrioritizedReplay::new(cfg.capacity), agents, rng, iterations_done: 0, cfg }
    }

    /// Iterations completed.
    pub fn iterations_done(&self) -> usize {
        self.iterations_done
    }

    /// Stored transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    fn reset_hidden(&mut self) {
        for a in &mut self.agents {
            a.hidden.fill(0.0);
        }
    }

    /// One training iteration: collect an episode with exploration noise,
    /// then run gradient updates from prioritized replay. Returns the mean
    /// per-step reward of the episode.
    pub fn train_iteration(&mut self, env: &mut AirGroundEnv) -> f32 {
        // --- Collect -----------------------------------------------------
        let seed = self.rng.gen::<u64>();
        env.reset(seed);
        self.reset_hidden();
        let k = env.num_uvs();
        let mut reward_sum = 0.0f32;
        let mut steps = 0usize;
        let mut prev_obs = env.observations();
        while !env.is_done() {
            let mut actions_env = Vec::with_capacity(k);
            let mut raw_actions = Vec::with_capacity(k);
            let mut hiddens_before = Vec::with_capacity(k);
            for (a, obs) in prev_obs.iter().enumerate().take(k) {
                let obs_m = Matrix::row_vector(obs);
                let h_m = Matrix::row_vector(&self.agents[a].hidden);
                let (act, h_next) = self.agents[a].actor.forward_inference(&obs_m, &h_m);
                hiddens_before.push(self.agents[a].hidden.clone());
                self.agents[a].hidden = h_next.as_slice().to_vec();
                let noise = self.cfg.exploration_noise;
                let raw = [
                    (act[(0, 0)] + noise * agsc_nn::dist::sample_standard_normal(&mut self.rng))
                        .clamp(-1.0, 1.0),
                    (act[(0, 1)] + noise * agsc_nn::dist::sample_standard_normal(&mut self.rng))
                        .clamp(-1.0, 1.0),
                ];
                raw_actions.push(raw);
                actions_env.push(UvAction { heading: raw[0] as f64, speed: raw[1] as f64 });
            }
            let step = env.step(&actions_env);
            let next_obs = env.observations();
            for a in 0..k {
                let r = step.rewards[a] as f32;
                reward_sum += r;
                self.replay.push(Transition {
                    agent: a,
                    obs: prev_obs[a].clone(),
                    hidden: hiddens_before[a].clone(),
                    action: raw_actions[a],
                    reward: r,
                    next_obs: next_obs[a].clone(),
                    next_hidden: self.agents[a].hidden.clone(),
                    done: step.done,
                });
            }
            steps += 1;
            prev_obs = next_obs;
        }

        // --- Learn ---------------------------------------------------------
        if self.replay.len() >= self.cfg.batch_size {
            for _ in 0..self.cfg.updates_per_iteration {
                self.update_once();
            }
        }
        self.iterations_done += 1;
        reward_sum / (steps * k).max(1) as f32
    }

    /// One mini-batch DDPG update for a single sampled agent group.
    fn update_once(&mut self) {
        let idx = self.replay.sample(self.cfg.batch_size, &mut self.rng);
        // Group sampled transitions by agent so each agent trains on its own
        // data (decentralised actors, shared replay — the "distributed"
        // replay of e-Divert).
        let mut by_agent: Vec<Vec<usize>> = vec![Vec::new(); self.agents.len()];
        for &i in &idx {
            by_agent[self.replay.items[i].agent].push(i);
        }
        for (a, rows) in by_agent.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            self.update_agent(a, &rows);
        }
    }

    fn update_agent(&mut self, a: usize, rows: &[usize]) {
        let b = rows.len();
        let obs = Matrix::from_rows(
            &rows.iter().map(|&i| self.replay.items[i].obs.clone()).collect::<Vec<_>>(),
        );
        let hidden = Matrix::from_rows(
            &rows.iter().map(|&i| self.replay.items[i].hidden.clone()).collect::<Vec<_>>(),
        );
        let next_obs = Matrix::from_rows(
            &rows.iter().map(|&i| self.replay.items[i].next_obs.clone()).collect::<Vec<_>>(),
        );
        let next_hidden = Matrix::from_rows(
            &rows.iter().map(|&i| self.replay.items[i].next_hidden.clone()).collect::<Vec<_>>(),
        );
        let actions: Vec<[f32; 2]> = rows.iter().map(|&i| self.replay.items[i].action).collect();
        let rewards: Vec<f32> = rows.iter().map(|&i| self.replay.items[i].reward).collect();
        let dones: Vec<bool> = rows.iter().map(|&i| self.replay.items[i].done).collect();

        let agent = &mut self.agents[a];

        // --- Critic: y = r + γ(1−done)·Q_target(o′, π_target(o′)) ----------
        let (next_act, _) = agent.actor_target.forward_inference(&next_obs, &next_hidden);
        let next_q_in = concat_cols(&next_obs, &next_act);
        let next_q = agent.critic_target.forward_inference(&next_q_in);
        let mut targets = Vec::with_capacity(b);
        for i in 0..b {
            let cont = if dones[i] { 0.0 } else { self.cfg.gamma };
            targets.push(rewards[i] + cont * next_q[(i, 0)]);
        }
        let act_m = Matrix::from_rows(&actions.iter().map(|a| a.to_vec()).collect::<Vec<_>>());
        let q_in = concat_cols(&obs, &act_m);
        agent.critic.zero_grad();
        let q = agent.critic.forward(&q_in);
        let target_m = Matrix::from_vec(b, 1, targets.clone());
        let (_, grad) = agsc_nn::loss::mse(&q, &target_m);
        agent.critic.backward_params(&q_in, &grad);
        agent.critic.clip_grad_norm(1.0);
        agent.critic_opt.step(&mut agent.critic.params_mut());

        // Refresh priorities with |TD|.
        for (local, &global) in rows.iter().enumerate() {
            let td = (q[(local, 0)] - targets[local]).abs();
            self.replay.update_priority(global, td, self.cfg.priority_eps);
        }

        // --- Actor: ascend Q(o, π(o)) ---------------------------------------
        // Forward through GRU (cached) + head (cached) + critic; pull the
        // action-gradient back through head and GRU.
        agent.actor.core.zero_grad();
        agent.actor.core.reset_cache();
        agent.actor.head.zero_grad();
        let h = agent.actor.core.forward(&obs, &hidden);
        let act_now = agent.actor.head.forward(&h);
        let q_in2 = concat_cols(&obs, &act_now);
        let q2 = agent.critic.forward(&q_in2);
        // dQ/dinput via backward with ones (don't step the critic optimiser:
        // its grads are discarded by zeroing below).
        let ones = Matrix::full(q2.rows(), 1, -1.0 / b as f32); // ascend ⇒ negate
        let dq_din = agent.critic.backward(&q_in2, &ones);
        agent.critic.zero_grad();
        // Slice the action columns.
        let obs_cols = obs.cols();
        let mut d_act = Matrix::zeros(b, 2);
        for r in 0..b {
            d_act[(r, 0)] = dq_din[(r, obs_cols)];
            d_act[(r, 1)] = dq_din[(r, obs_cols + 1)];
        }
        let d_h = agent.actor.head.backward(&h, &d_act);
        agent.actor.core.backward_sequence(&[d_h]);
        agent.actor.head.clip_grad_norm(1.0);
        let mut params = agent.actor.head.params_mut();
        params.extend(agent.actor.core.params_mut());
        agent.actor_opt.step(&mut params);

        // --- Soft target updates --------------------------------------------
        let tau = self.cfg.tau;
        let actor_clone = agent.actor.clone();
        agent.actor_target.soft_update_from(&actor_clone, tau);
        let critic_clone = agent.critic.clone();
        soft_update_params(&mut agent.critic_target.params_mut(), &critic_clone.params(), tau);
    }
}

/// Column-wise concatenation `[a | b]`.
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

impl Policy for EDivert {
    fn action(&self, k: usize, obs: &[f32]) -> UvAction {
        // Evaluation uses a zero recurrent state per decision — greedy and
        // stateless, which keeps the Policy trait's `&self` contract.
        let o = Matrix::row_vector(obs);
        let h = Matrix::zeros(1, self.agents[k].actor.state_dim());
        let (a, _) = self.agents[k].actor.forward_inference(&o, &h);
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

    fn small_cfg() -> EDivertConfig {
        EDivertConfig {
            batch_size: 16,
            updates_per_iteration: 4,
            gru_hidden: 8,
            hidden: vec![16],
            capacity: 500,
            ..Default::default()
        }
    }

    #[test]
    fn replay_push_evicts_at_capacity() {
        let mut r = PrioritizedReplay::new(3);
        for i in 0..5 {
            r.push(Transition {
                agent: 0,
                obs: vec![i as f32],
                hidden: vec![],
                action: [0.0, 0.0],
                reward: 0.0,
                next_obs: vec![],
                next_hidden: vec![],
                done: false,
            });
        }
        assert_eq!(r.len(), 3);
        // Oldest (0, 1) evicted; contents are {2, 3, 4} in ring order.
        let vals: Vec<f32> = r.items.iter().map(|t| t.obs[0]).collect();
        assert!(vals.contains(&2.0) && vals.contains(&3.0) && vals.contains(&4.0));
    }

    #[test]
    fn replay_sampling_prefers_high_priority() {
        let mut r = PrioritizedReplay::new(10);
        for i in 0..10 {
            r.push(Transition {
                agent: 0,
                obs: vec![i as f32],
                hidden: vec![],
                action: [0.0, 0.0],
                reward: 0.0,
                next_obs: vec![],
                next_hidden: vec![],
                done: false,
            });
        }
        for i in 0..10 {
            r.update_priority(i, if i == 7 { 100.0 } else { 0.01 }, 0.0);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let samples = r.sample(200, &mut rng);
        let hits = samples.iter().filter(|&&i| i == 7).count();
        assert!(hits > 150, "high-priority item should dominate ({hits}/200)");
    }

    #[test]
    fn train_iteration_fills_replay_and_runs() {
        let mut e = env();
        let mut learner = EDivert::new(&e, small_cfg(), 3);
        let r = learner.train_iteration(&mut e);
        assert!(r.is_finite());
        assert_eq!(learner.replay_len(), 12 * 4);
        assert_eq!(learner.iterations_done(), 1);
    }

    #[test]
    fn multiple_iterations_remain_finite() {
        let mut e = env();
        let mut learner = EDivert::new(&e, small_cfg(), 3);
        for _ in 0..3 {
            let r = learner.train_iteration(&mut e);
            assert!(r.is_finite(), "training must not diverge to NaN");
        }
    }

    #[test]
    fn policy_interface_produces_bounded_actions() {
        let e = env();
        let learner = EDivert::new(&e, small_cfg(), 3);
        let obs = vec![0.1f32; e.obs_dim()];
        let a = learner.action(0, &obs);
        assert!(a.heading.abs() <= 1.0);
        assert!(a.speed.abs() <= 1.0);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![9.0, 8.0]);
        let c = concat_cols(&a, &b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 8.0]);
    }

    #[test]
    fn soft_update_interpolates() {
        let mut e = env();
        let mut learner = EDivert::new(&e, small_cfg(), 3);
        // After a training iteration targets should have moved towards the
        // online nets but not be equal (τ = 0.01).
        learner.train_iteration(&mut e);
        let online = learner.agents[0].critic.flat_values();
        let target = learner.agents[0].critic_target.flat_values();
        assert_ne!(online, target);
    }
}
