//! Bit goldens for the learners' updates.
//!
//! Each h/i-MADRL test trains two iterations of one ablation-matrix config
//! and pins an FNV-1a digest of the checkpoint JSON: every parameter,
//! gradient, Adam moment, LCF and value-norm statistic, printed with
//! round-trip floats. MADDPG and e-Divert are pinned through their losses
//! and greedy actions, since both read `∂Q/∂a` off `Mlp::backward`. A
//! refactor of the update may change how much work it does, never a bit
//! of what it computes, so these digests must not move.
//!
//! The unit tests below pin the two shortcuts the update takes against the
//! work they skip: `Mlp::backward_params` against `Mlp::backward`, and one
//! behaviour-policy forward per LCF meta step against a fresh forward for
//! every gradient.

use agsc::baselines::{EDivert, EDivertConfig};
use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig};
use agsc::madrl::{
    Ablation, HiMadrlTrainer, Lcf, Maddpg, MaddpgConfig, Policy, PpoAgent, TrainConfig,
};
use agsc::nn::{gemm, DiagGaussian, GemmKernel, Matrix, Mlp};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn env() -> AirGroundEnv {
    let dataset = presets::purdue(3);
    let cfg = EnvConfig { horizon: 20, stochastic_fading: false, ..EnvConfig::default() };
    AirGroundEnv::new(cfg, &dataset, 7)
}

/// The checkpoint digest after two iterations of `cfg` on `env()`.
fn checkpoint_digest(cfg: TrainConfig) -> u64 {
    let mut env = env();
    let mut t = HiMadrlTrainer::new(&env, cfg, 4, 7).unwrap();
    for _ in 0..2 {
        t.train_iteration(&mut env);
    }
    fnv1a(serde_json::to_string(&t.checkpoint()).unwrap().as_bytes())
}

/// `TrainConfig::default()` with two hidden layers of 32, so the first
/// layer (whose input gradient nobody reads) and a chained layer are both
/// covered, and two LCF epochs, so the meta step reuses its forward.
fn base() -> TrainConfig {
    TrainConfig { hidden: vec![32, 32], policy_epochs: 2, lcf_epochs: 2, ..TrainConfig::default() }
}

#[test]
fn default_config_keeps_its_bits() {
    assert_eq!(checkpoint_digest(base()), 0xe14b_9377_f9ce_6e86);
}

#[test]
fn shared_params_keeps_its_bits() {
    assert_eq!(
        checkpoint_digest(TrainConfig { shared_params: true, ..base() }),
        0xb8e6_8a3f_3b7b_8020
    );
}

#[test]
fn centralized_critic_keeps_its_bits() {
    assert_eq!(
        checkpoint_digest(TrainConfig { centralized_critic: true, ..base() }),
        0x8fb8_6d0d_2bd4_a71a
    );
}

#[test]
fn copo_baseline_keeps_its_bits() {
    let ablation = Ablation { heterogeneous: false, ..Ablation::full() };
    assert_eq!(checkpoint_digest(TrainConfig { ablation, ..base() }), 0x11af_f044_45ef_2105);
}

#[test]
fn without_copo_keeps_its_bits() {
    let ablation = Ablation { use_copo: false, ..Ablation::full() };
    assert_eq!(checkpoint_digest(TrainConfig { ablation, ..base() }), 0xebcb_65bb_b9f7_3b3e);
}

#[test]
fn without_eoi_keeps_its_bits() {
    let ablation = Ablation { use_eoi: false, ..Ablation::full() };
    assert_eq!(checkpoint_digest(TrainConfig { ablation, ..base() }), 0xc433_8386_8107_af1f);
}

#[test]
fn without_value_norm_keeps_its_bits() {
    assert_eq!(
        checkpoint_digest(TrainConfig { value_norm: false, ..base() }),
        0xa7a4_f8ec_aaf8_ac2f
    );
}

/// Digest of three iterations' returned rewards and then every agent's
/// greedy action on a fixed observation: the updates decide both.
fn learner_digest<L: Policy>(
    mut learner: L,
    train: impl Fn(&mut L, &mut AirGroundEnv) -> f32,
) -> u64 {
    let mut env = env();
    let mut bytes = Vec::new();
    for _ in 0..3 {
        bytes.extend_from_slice(&train(&mut learner, &mut env).to_le_bytes());
    }
    let obs: Vec<f32> = (0..env.obs_dim()).map(|i| (i as f32 * 0.37).sin()).collect();
    for k in 0..env.num_uvs() {
        let a = learner.action(k, &obs);
        bytes.extend_from_slice(&a.heading.to_le_bytes());
        bytes.extend_from_slice(&a.speed.to_le_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn maddpg_keeps_its_bits() {
    let cfg = MaddpgConfig {
        hidden: vec![32, 32],
        batch_size: 16,
        updates_per_iteration: 4,
        ..MaddpgConfig::default()
    };
    let digest = learner_digest(Maddpg::new(&env(), cfg, 7), Maddpg::train_iteration);
    assert_eq!(digest, 0x7c01_8127_3dd9_bc82);
}

#[test]
fn e_divert_keeps_its_bits() {
    let cfg = EDivertConfig {
        hidden: vec![32, 32],
        batch_size: 16,
        updates_per_iteration: 4,
        ..EDivertConfig::default()
    };
    let digest = learner_digest(EDivert::new(&env(), cfg, 7), EDivert::train_iteration);
    assert_eq!(digest, 0xf641_ec11_9040_54ed);
}

fn random_matrix(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn backward_params_accumulates_the_gradients_of_backward_under_both_kernels() {
    // Shapes past the fast kernel's 6×16 register tile, with remainders.
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let net = Mlp::tanh(&[29, 40, 33, 2], &mut rng);
    let x = random_matrix(&mut rng, 37, 29);
    let grad_out = random_matrix(&mut rng, 37, 2);
    for kernel in [GemmKernel::Reference, GemmKernel::Fast] {
        // Process-wide, but safe: the kernels are bit-identical, so
        // concurrent tests cannot observe the toggle.
        gemm::set_kernel_override(Some(kernel));
        let (mut full, mut params_only) = (net.clone(), net.clone());
        full.forward(&x);
        params_only.forward(&x);
        // Twice, so accumulation onto non-zero gradients is covered too.
        for _ in 0..2 {
            full.backward(&x, &grad_out);
            params_only.backward_params(&x, &grad_out);
        }
        gemm::set_kernel_override(None);
        assert_eq!(bits(&full.flat_grads()), bits(&params_only.flat_grads()), "{kernel:?}");
    }
}

#[test]
fn one_behaviour_forward_per_meta_step_leaves_the_lcfs_bit_equal() {
    let (t_len, obs_dim) = (23, 11);
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let cfg = TrainConfig { hidden: vec![24, 24], ..TrainConfig::default() };
    let agent = PpoAgent::new(obs_dim, obs_dim, 2, &cfg, &mut rng);
    let obs = random_matrix(&mut rng, t_len, obs_dim);
    let actions = random_matrix(&mut rng, t_len, 2);
    let term1: Vec<f32> = (0..agent.actor().param_count() + 2).map(|_| rng.gen()).collect();
    let advs: [Vec<f32>; 3] =
        std::array::from_fn(|_| (0..t_len).map(|_| rng.gen_range(-2.0..2.0)).collect());

    // The oracle: a fresh forward of the behaviour actor for every
    // gradient, from public `Mlp` calls only.
    let oracle = |coeff: &[f32]| {
        let mut actor = agent.actor().clone();
        actor.zero_grad();
        let mean = actor.forward(&obs);
        let (d_mean, d_log_std) =
            DiagGaussian::new(&mean, agent.log_std()).log_prob_grad(&actions, coeff);
        actor.backward(&obs, &d_mean);
        let mut flat = actor.flat_grads();
        flat.extend_from_slice(&d_log_std);
        flat
    };
    let mut old = agent.behaviour_policy();
    let mut once = old.log_prob_grads(&obs, &actions);

    // The trainer's meta epochs (Eqn 32), with a step size that moves the
    // LCF visibly.
    let (mut lcf_once, mut lcf_oracle) = (Lcf::default(), Lcf::default());
    let dot = |g: &[f32]| -> f32 { term1.iter().zip(g).map(|(a, b)| a * b).sum() };
    let coeff = |lcf: &Lcf, d: fn(&Lcf, f32, f32, f32) -> f32| -> Vec<f32> {
        (0..t_len).map(|t| 0.1 * d(lcf, advs[0][t], advs[1][t], advs[2][t])).collect()
    };
    for epoch in 0..4 {
        let (phi, chi) = (coeff(&lcf_once, Lcf::d_phi), coeff(&lcf_once, Lcf::d_chi));
        let (g_phi, g_chi) = (once.grad(&phi), once.grad(&chi));
        let (phi, chi) = (coeff(&lcf_oracle, Lcf::d_phi), coeff(&lcf_oracle, Lcf::d_chi));
        assert_eq!(bits(&g_phi), bits(&oracle(&phi)), "epoch {epoch}: φ gradient");
        assert_eq!(bits(&g_chi), bits(&oracle(&chi)), "epoch {epoch}: χ gradient");
        lcf_once.ascend(dot(&g_phi), dot(&g_chi), 1.0);
        lcf_oracle.ascend(dot(&oracle(&phi)), dot(&oracle(&chi)), 1.0);
        let (a, b) = (lcf_once.degrees(), lcf_oracle.degrees());
        assert_eq!((a.0.to_bits(), a.1.to_bits()), (b.0.to_bits(), b.1.to_bits()), "epoch {epoch}");
    }
    assert_ne!(lcf_once.degrees(), Lcf::default().degrees(), "the meta steps must move the LCF");
}
