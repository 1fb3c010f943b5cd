//! Rollout storage for one training iteration (Algorithm 1, lines 5-11).
//!
//! One episode of `T` steps for `K` agents: observations, global states,
//! actions, log-probs, extrinsic rewards, and the per-step neighbour sets
//! needed by h-CoPO. Observations, states and actions are kept as the
//! `T`-row matrices the update reads and the segment codec writes.

use crate::actors::ACTION_DIM;
use agsc_nn::Matrix;

/// Everything sampled during one episode (or a concatenation of episodes
/// from parallel replicas), laid out per agent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollout {
    /// `obs[k]` — agent `k`'s local observations, `T × obs_dim`, row `t`
    /// at slot `t`.
    pub obs: Vec<Matrix>,
    /// Global states (for centralised critics), `T × state_dim`.
    pub states: Matrix,
    /// `actions[k]` — the 2-D continuous actions taken, `T × 2`.
    pub actions: Vec<Matrix>,
    /// `log_probs[k][t]` — behaviour-policy log-probability.
    pub log_probs: Vec<Vec<f32>>,
    /// `rewards_ext[k][t]` — extrinsic reward (Eqn 17).
    pub rewards_ext: Vec<Vec<f32>>,
    /// `het_neighbors[t][k]` — heterogeneous relay neighbours of `k` at `t`.
    pub het_neighbors: Vec<Vec<Vec<usize>>>,
    /// `hom_neighbors[t][k]` — homogeneous nearby neighbours of `k` at `t`.
    pub hom_neighbors: Vec<Vec<Vec<usize>>>,
    /// `collected_per_uv[k]` — bits collected by UV `k` over the episode
    /// (accumulated via [`add_collected`](Self::add_collected)); feeds the
    /// dead-agent diagnostic's per-UV collection shares.
    pub collected_per_uv: Vec<f64>,
    /// Episode boundaries when this rollout concatenates several episodes
    /// (one length per concatenated part, in env-index order). Empty for a
    /// single collected episode — [`segments`](Self::segments) normalises
    /// both cases.
    pub episode_lens: Vec<usize>,
}

impl Rollout {
    /// Empty rollout for `k` agents.
    pub fn new(num_agents: usize) -> Self {
        Self::with_capacity(num_agents, 0, 0)
    }

    /// Empty rollout for `k` agents with room for `steps` steps of
    /// `obs_dim`-wide observations and states (they share the layout,
    /// §IV-B1), so recording an episode of known length never regrows it.
    pub fn with_capacity(num_agents: usize, steps: usize, obs_dim: usize) -> Self {
        let rows = |cols| Matrix::from_vec(0, cols, Vec::with_capacity(steps * cols));
        let per_agent = |cols| (0..num_agents).map(|_| rows(cols)).collect();
        let series = || (0..num_agents).map(|_| Vec::with_capacity(steps)).collect();
        Self {
            obs: per_agent(obs_dim),
            states: rows(obs_dim),
            actions: per_agent(ACTION_DIM),
            log_probs: series(),
            rewards_ext: series(),
            het_neighbors: Vec::with_capacity(steps),
            hom_neighbors: Vec::with_capacity(steps),
            collected_per_uv: vec![0.0; num_agents],
            episode_lens: Vec::new(),
        }
    }

    /// Episode segment lengths for segmented advantage estimation: the
    /// recorded [`episode_lens`](Self::episode_lens), or `[len()]` for a
    /// single-episode rollout.
    pub fn segments(&self) -> Vec<usize> {
        if self.episode_lens.is_empty() {
            vec![self.len()]
        } else {
            self.episode_lens.clone()
        }
    }

    /// Concatenate per-replica rollouts in the given (fixed env-index)
    /// order into one batch, recording each part's length in
    /// [`episode_lens`](Self::episode_lens). The first part becomes the
    /// result and every later part's rows are appended to it; a single
    /// part comes back as is, with `episode_lens == [len]`.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the agent counts disagree.
    pub fn concat(parts: Vec<Rollout>) -> Rollout {
        let mut parts = parts.into_iter();
        let mut out = parts.next().expect("cannot concat zero rollouts");
        out.episode_lens = vec![out.len()];
        let k = out.num_agents();
        for mut part in parts {
            assert_eq!(part.num_agents(), k, "agent count mismatch between rollouts");
            let t = part.len();
            out.episode_lens.push(t);
            for a in 0..k {
                out.obs[a].push_rows(t, part.obs[a].as_slice());
                out.actions[a].push_rows(t, part.actions[a].as_slice());
                out.log_probs[a].append(&mut part.log_probs[a]);
                out.rewards_ext[a].append(&mut part.rewards_ext[a]);
                out.collected_per_uv[a] += part.collected_per_uv[a];
            }
            out.states.push_rows(t, part.states.as_slice());
            out.het_neighbors.append(&mut part.het_neighbors);
            out.hom_neighbors.append(&mut part.hom_neighbors);
        }
        out
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.obs.len()
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.states.rows()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record one step for all agents.
    ///
    /// # Panics
    /// Panics if any per-agent slice has the wrong length.
    #[allow(clippy::too_many_arguments)]
    pub fn push_step(
        &mut self,
        obs: &[Vec<f32>],
        state: Vec<f32>,
        actions: &[[f32; 2]],
        log_probs: &[f32],
        rewards_ext: &[f32],
        het_neighbors: Vec<Vec<usize>>,
        hom_neighbors: Vec<Vec<usize>>,
    ) {
        let k = self.num_agents();
        assert_eq!(obs.len(), k, "obs count mismatch");
        assert_eq!(actions.len(), k, "action count mismatch");
        assert_eq!(log_probs.len(), k, "log_prob count mismatch");
        assert_eq!(rewards_ext.len(), k, "reward count mismatch");
        assert_eq!(het_neighbors.len(), k, "het neighbour count mismatch");
        assert_eq!(hom_neighbors.len(), k, "hom neighbour count mismatch");
        for a in 0..k {
            self.obs[a].push_rows(1, &obs[a]);
            self.actions[a].push_rows(1, &actions[a]);
            self.log_probs[a].push(log_probs[a]);
            self.rewards_ext[a].push(rewards_ext[a]);
        }
        self.states.push_rows(1, &state);
        self.het_neighbors.push(het_neighbors);
        self.hom_neighbors.push(hom_neighbors);
    }

    /// Check that this rollout fits a fleet of `num_agents` agents with
    /// `obs_dim`-wide observations and `state_dim`-wide states, and that
    /// every neighbour id names one of its agents — what the update needs
    /// to run without panicking on a rollout it did not collect itself.
    pub fn check_shape(
        &self,
        num_agents: usize,
        obs_dim: usize,
        state_dim: usize,
    ) -> Result<(), String> {
        if self.num_agents() != num_agents {
            return Err(format!("{} agents, expected {num_agents}", self.num_agents()));
        }
        if let Some(o) = self.obs.iter().find(|o| o.cols() != obs_dim) {
            return Err(format!("observation width {}, expected {obs_dim}", o.cols()));
        }
        if self.states.cols() != state_dim {
            return Err(format!("state width {}, expected {state_dim}", self.states.cols()));
        }
        let ids = self.het_neighbors.iter().chain(&self.hom_neighbors).flatten().flatten();
        match ids.max() {
            Some(&n) if n >= num_agents => Err(format!("neighbour id {n} of {num_agents} agents")),
            _ => Ok(()),
        }
    }

    /// Accumulate one slot's per-UV collected data volumes.
    ///
    /// # Panics
    /// Panics if `per_uv` does not have one entry per agent.
    pub fn add_collected(&mut self, per_uv: &[f64]) {
        assert_eq!(per_uv.len(), self.num_agents(), "collected count mismatch");
        for (acc, &c) in self.collected_per_uv.iter_mut().zip(per_uv) {
            *acc += c;
        }
    }

    /// Each UV's fraction of the episode's total collected data (all zeros
    /// when nothing was collected).
    pub fn collection_shares(&self) -> Vec<f32> {
        let total: f64 = self.collected_per_uv.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.num_agents()];
        }
        self.collected_per_uv.iter().map(|&c| (c / total) as f32).collect()
    }

    /// Average reward of agent `k`'s neighbours per step (Eqn 23); `0.0`
    /// where the neighbour set is empty.
    ///
    /// `rewards[k][t]` must be the compound per-agent rewards; `which`
    /// selects the neighbour family.
    pub fn neighbor_reward(&self, rewards: &[Vec<f32>], k: usize, which: NeighborKind) -> Vec<f32> {
        let sets = match which {
            NeighborKind::Heterogeneous => &self.het_neighbors,
            NeighborKind::Homogeneous => &self.hom_neighbors,
        };
        (0..self.len())
            .map(|t| {
                let ns = &sets[t][k];
                if ns.is_empty() {
                    0.0
                } else {
                    ns.iter().map(|&n| rewards[n][t]).sum::<f32>() / ns.len() as f32
                }
            })
            .collect()
    }
}

/// Which neighbour family to aggregate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborKind {
    /// Relay partners in the same subchannel (`N_HE`).
    Heterogeneous,
    /// Physically nearby same-kind UVs (`N_HO`).
    Homogeneous,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rollout() -> Rollout {
        let mut r = Rollout::new(2);
        for t in 0..3 {
            let obs = vec![vec![t as f32, 0.0], vec![t as f32, 1.0]];
            let state = vec![t as f32; 4];
            let actions = [[0.1, 0.2], [0.3, 0.4]];
            let log_probs = [-1.0, -2.0];
            let rewards = [1.0, 2.0];
            // Agent 0's HE neighbour is agent 1 at every step; HO empty.
            let het = vec![vec![1], vec![0]];
            let hom = vec![vec![], vec![]];
            r.push_step(&obs, state, &actions, &log_probs, &rewards, het, hom);
        }
        r
    }

    #[test]
    fn push_and_shapes() {
        let r = sample_rollout();
        assert_eq!(r.len(), 3);
        assert_eq!(r.num_agents(), 2);
        assert_eq!(r.obs[0].shape(), (3, 2));
        assert_eq!(r.states.shape(), (3, 4));
        assert_eq!(r.actions[1].shape(), (3, 2));
        assert_eq!(r.actions[1].row(0), &[0.3, 0.4]);
    }

    #[test]
    fn collection_shares_normalise_and_handle_empty() {
        let mut r = sample_rollout();
        assert_eq!(r.collection_shares(), vec![0.0, 0.0], "no data ⇒ all-zero shares");
        r.add_collected(&[3.0, 1.0]);
        r.add_collected(&[3.0, 1.0]);
        let shares = r.collection_shares();
        assert!((shares[0] - 0.75).abs() < 1e-6);
        assert!((shares[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn neighbor_reward_averages() {
        let r = sample_rollout();
        let rewards = vec![vec![1.0, 1.0, 1.0], vec![2.0, 2.0, 2.0]];
        let he0 = r.neighbor_reward(&rewards, 0, NeighborKind::Heterogeneous);
        assert_eq!(he0, vec![2.0, 2.0, 2.0], "agent 0's HE neighbour is agent 1");
        let ho0 = r.neighbor_reward(&rewards, 0, NeighborKind::Homogeneous);
        assert_eq!(ho0, vec![0.0, 0.0, 0.0], "empty set contributes zero");
    }

    #[test]
    fn segments_default_to_single_episode() {
        let r = sample_rollout();
        assert!(r.episode_lens.is_empty());
        assert_eq!(r.segments(), vec![3]);
    }

    #[test]
    fn concat_stacks_parts_in_order() {
        let a = sample_rollout();
        let mut b = sample_rollout();
        b.add_collected(&[1.0, 3.0]);
        let joined = Rollout::concat(vec![a.clone(), b.clone()]);
        assert_eq!(joined.len(), 6);
        assert_eq!(joined.num_agents(), 2);
        assert_eq!(joined.episode_lens, vec![3, 3]);
        assert_eq!(joined.segments(), vec![3, 3]);
        // Part A occupies rows 0..3, part B rows 3..6, per agent.
        assert_eq!(joined.obs[0], Matrix::vstack(&[&a.obs[0], &b.obs[0]]));
        assert_eq!(joined.actions[1], Matrix::vstack(&[&a.actions[1], &b.actions[1]]));
        assert_eq!(joined.states, Matrix::vstack(&[&a.states, &b.states]));
        assert_eq!(&joined.log_probs[1][3..], &b.log_probs[1][..]);
        assert_eq!(&joined.het_neighbors[3..], &b.het_neighbors[..]);
        // Collected volumes sum across parts.
        assert!((joined.collected_per_uv[0] - 1.0).abs() < 1e-12);
        assert!((joined.collected_per_uv[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn concat_of_one_matches_part_except_episode_lens() {
        let a = sample_rollout();
        let mut joined = Rollout::concat(vec![a.clone()]);
        assert_eq!(joined.episode_lens, vec![3]);
        // Modulo the recorded boundary, a singleton concat is the identity.
        joined.episode_lens.clear();
        assert_eq!(joined, a);
    }

    #[test]
    fn check_shape_names_the_first_misfit() {
        let r = sample_rollout();
        assert_eq!(r.check_shape(2, 2, 4), Ok(()));
        assert!(r.check_shape(3, 2, 4).unwrap_err().contains("2 agents"));
        assert!(r.check_shape(2, 5, 4).unwrap_err().contains("observation width 2"));
        assert!(r.check_shape(2, 2, 3).unwrap_err().contains("state width 4"));
        let mut bad = r.clone();
        bad.hom_neighbors[1][0] = vec![2];
        assert!(bad.check_shape(2, 2, 4).unwrap_err().contains("neighbour id 2"));
    }

    #[test]
    #[should_panic(expected = "agent count mismatch")]
    fn concat_rejects_mixed_agent_counts() {
        let _ = Rollout::concat(vec![Rollout::new(2), Rollout::new(3)]);
    }

    #[test]
    #[should_panic(expected = "action count mismatch")]
    fn push_step_validates_lengths() {
        let mut r = Rollout::new(2);
        let obs = vec![vec![0.0], vec![0.0]];
        r.push_step(
            &obs,
            vec![0.0],
            &[[0.0, 0.0]],
            &[0.0, 0.0],
            &[0.0, 0.0],
            vec![vec![], vec![]],
            vec![vec![], vec![]],
        );
    }
}
