//! Property tests over the core data structures and invariants: channel
//! physics, metric bounds, road-network walks, GAE identities,
//! spatial-grid correctness, and matrix algebra. Each property runs on a
//! fixed set of seeded cases (see `common::check`).

mod common;

use agsc::channel::{
    air_ground_gain, capacity_bps, db_to_linear, linear_to_db, los_probability, ChannelParams,
};
use agsc::datasets::{presets, traces_from_csv, traces_to_csv, Trace};
use agsc::env::{
    derive_env_seed, derive_sampler_seed, AirGroundEnv, EnvConfig, MetricInputs, UvAction, VecEnv,
};
use agsc::geo::{Aabb, Point, RoadNetwork, SpatialGrid};
use agsc::madrl::{gae, HiMadrlTrainer, TrainConfig};
use agsc::nn::gemm::{KC, MR, NR};
use agsc::nn::{Adam, GemmKernel, Matrix, Param};
use agsc::telemetry::{
    quantile_sorted, Histogram, WindowConfig, WindowedCounter, WindowedHistogram,
};
use common::{check, vec_of, ChaCha8Rng, Rng};
use std::collections::HashSet;

/// Cases per property unless a section says otherwise.
const CASES: u64 = 256;

/// Six values in `[-2, 2)`: the entries of a 2×3 or 3×2 matrix.
fn six_entries(rng: &mut ChaCha8Rng) -> Vec<f32> {
    (0..6).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// The 4×4 lattice road network with `spacing` between neighbours.
fn lattice(spacing: f64) -> RoadNetwork {
    let mut net = RoadNetwork::new();
    for y in 0..4 {
        for x in 0..4 {
            net.add_node(Point::new(x as f64 * spacing, y as f64 * spacing));
        }
    }
    for y in 0..4 {
        for x in 0..4 {
            let id = y * 4 + x;
            if x + 1 < 4 {
                net.add_edge(id, id + 1);
            }
            if y + 1 < 4 {
                net.add_edge(id, id + 4);
            }
        }
    }
    net
}

// --- channel physics ----------------------------------------------------

#[test]
fn los_probability_is_a_probability() {
    check(CASES, |rng| {
        let elev = rng.gen_range(0.0f64..90.0);
        let v = los_probability(&ChannelParams::default(), elev);
        assert!((0.0..=1.0).contains(&v));
    });
}

#[test]
fn air_ground_gain_monotone_decreasing_in_distance() {
    check(CASES, |rng| {
        let d1 = rng.gen_range(1.0f64..5_000.0);
        let delta = rng.gen_range(1.0f64..5_000.0);
        let elev = rng.gen_range(0.0f64..90.0);
        let p = ChannelParams::default();
        let near = air_ground_gain(&p, d1, elev);
        let far = air_ground_gain(&p, d1 + delta, elev);
        assert!(far <= near, "gain must decay with distance");
        assert!(near.is_finite() && far > 0.0);
    });
}

#[test]
fn capacity_monotone_in_sinr() {
    check(CASES, |rng| {
        let s1 = rng.gen_range(0.0f64..1e6);
        let s2 = rng.gen_range(0.0f64..1e6);
        let p = ChannelParams::default();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        assert!(capacity_bps(&p, lo) <= capacity_bps(&p, hi));
    });
}

#[test]
fn db_conversion_round_trips() {
    check(CASES, |rng| {
        let db = rng.gen_range(-100.0f64..100.0);
        let back = linear_to_db(db_to_linear(db));
        assert!((back - db).abs() < 1e-9);
    });
}

// --- metrics -------------------------------------------------------------

#[test]
fn metrics_always_bounded() {
    check(CASES, |rng| {
        let remaining = vec_of(rng, 1..50, |r| r.gen_range(0.0f64..=100.0));
        let losses = rng.gen_range(0usize..500);
        let uav_fracs = vec_of(rng, 0..5, |r| r.gen_range(0.0f64..=1.0));
        let ugv_fracs = vec_of(rng, 1..5, |r| r.gen_range(0.0f64..=1.0));
        let inputs = MetricInputs {
            poi_initial: vec![100.0; remaining.len()],
            poi_remaining: remaining,
            loss_events: losses,
            subchannels: 3,
            horizon: 100,
            num_uvs: uav_fracs.len() + ugv_fracs.len(),
            uav_energy_fracs: uav_fracs,
            ugv_energy_fracs: ugv_fracs,
        };
        let m = inputs.compute();
        assert!((0.0..=1.0).contains(&m.data_collection_ratio));
        assert!((0.0..=1.0).contains(&m.data_loss_ratio));
        assert!((0.0..=1.0).contains(&m.fairness));
        assert!((0.0..=2.0).contains(&m.energy_ratio));
        assert!(m.efficiency.is_finite() && m.efficiency >= 0.0);
    });
}

#[test]
fn jain_fairness_maximised_by_equal_fractions() {
    check(CASES, |rng| {
        let frac = rng.gen_range(0.01f64..=1.0);
        let n = rng.gen_range(2usize..20);
        let inputs = MetricInputs {
            poi_initial: vec![100.0; n],
            poi_remaining: vec![100.0 * (1.0 - frac); n],
            loss_events: 0,
            subchannels: 3,
            horizon: 100,
            num_uvs: 4,
            uav_energy_fracs: vec![0.1, 0.1],
            ugv_energy_fracs: vec![0.1, 0.1],
        };
        let m = inputs.compute();
        assert!((m.fairness - 1.0).abs() < 1e-9, "equal fractions ⇒ κ = 1, got {}", m.fairness);
    });
}

// --- actions --------------------------------------------------------------

#[test]
fn action_decode_bounds() {
    check(CASES, |rng| {
        let h = rng.gen_range(-10.0f64..10.0);
        let s = rng.gen_range(-10.0f64..10.0);
        let vmax = rng.gen_range(0.1f64..30.0);
        let (theta, v) = UvAction { heading: h, speed: s }.decode(vmax);
        assert!((-std::f64::consts::PI..=std::f64::consts::PI).contains(&theta));
        assert!((0.0..=vmax).contains(&v));
    });
}

// --- GAE ------------------------------------------------------------------

#[test]
fn gae_returns_identity() {
    check(CASES, |rng| {
        let rewards = vec_of(rng, 1..30, |r| r.gen_range(-1.0f32..1.0));
        let gamma = rng.gen_range(0.5f32..1.0);
        let lambda = rng.gen_range(0.0f32..1.0);
        let values = vec![0.3f32; rewards.len()];
        let (adv, rets) = gae(&rewards, &values, 0.1, gamma, lambda);
        for t in 0..rewards.len() {
            assert!((rets[t] - (adv[t] + values[t])).abs() < 1e-5);
            assert!(adv[t].is_finite());
        }
    });
}

#[test]
fn gae_zero_rewards_perfect_values_zero_advantage() {
    check(CASES, |rng| {
        let len = rng.gen_range(1usize..20);
        let gamma = rng.gen_range(0.5f32..0.999);
        // With r = 0 and V ≡ 0, every TD error is zero regardless of λ.
        let rewards = vec![0.0f32; len];
        let values = vec![0.0f32; len];
        let (adv, _) = gae(&rewards, &values, 0.0, gamma, 0.95);
        assert!(adv.iter().all(|a| a.abs() < 1e-7));
    });
}

// --- road network -----------------------------------------------------------

#[test]
fn walk_never_exceeds_budget() {
    let net = lattice(33.0);
    check(CASES, |rng| {
        let (sx, sy) = (rng.gen_range(0.0f64..100.0), rng.gen_range(0.0f64..100.0));
        let (tx, ty) = (rng.gen_range(0.0f64..100.0), rng.gen_range(0.0f64..100.0));
        let budget = rng.gen_range(0.0f64..500.0);
        let walk = net.walk_towards(&Point::new(sx, sy), &Point::new(tx, ty), budget);
        assert!(walk.travelled <= budget + 1e-9);
        assert!(walk.position.is_finite());
        assert!(walk.nearest_node < net.node_count());
    });
}

#[test]
fn dijkstra_satisfies_triangle_inequality() {
    let net = lattice(10.0);
    check(CASES, |rng| {
        let (a, b, c) =
            (rng.gen_range(0usize..16), rng.gen_range(0usize..16), rng.gen_range(0usize..16));
        let ab = net.path_length(a, b);
        let bc = net.path_length(b, c);
        let ac = net.path_length(a, c);
        assert!(ac <= ab + bc + 1e-9, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    });
}

// --- spatial grid -------------------------------------------------------------

#[test]
fn grid_query_matches_brute_force() {
    check(CASES, |rng| {
        let points = vec_of(rng, 0..40, |r| {
            Point::new(r.gen_range(0.0f64..200.0), r.gen_range(0.0f64..200.0))
        });
        let center = Point::new(rng.gen_range(-50.0f64..250.0), rng.gen_range(-50.0f64..250.0));
        let radius = rng.gen_range(0.0f64..150.0);
        let grid = SpatialGrid::build(Aabb::from_extent(200.0, 200.0), 25.0, &points);
        let fast = grid.query_radius(&center, radius);
        let mut brute: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(&center) <= radius)
            .map(|(i, _)| i)
            .collect();
        brute.sort_unstable();
        assert_eq!(fast, brute);
    });
}

// --- matrix algebra -------------------------------------------------------------

#[test]
fn matmul_distributes_over_addition() {
    check(CASES, |rng| {
        let ma = Matrix::from_vec(2, 3, six_entries(rng));
        let mb = Matrix::from_vec(3, 2, six_entries(rng));
        let mc = Matrix::from_vec(3, 2, six_entries(rng));
        let left = ma.matmul(&(&mb + &mc));
        let right = &ma.matmul(&mb) + &ma.matmul(&mc);
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((l - r).abs() < 1e-4);
        }
    });
}

// --- optimisers -----------------------------------------------------------

#[test]
fn adam_minimises_arbitrary_quadratics() {
    check(CASES, |rng| {
        let target = rng.gen_range(-5.0f32..5.0);
        let scale = rng.gen_range(0.5f32..4.0);
        let start = rng.gen_range(-5.0f32..5.0);
        // f(x) = scale·(x − target)², f' = 2·scale·(x − target).
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![start]));
        let mut opt = Adam::new(0.1);
        for _ in 0..600 {
            let x = p.value.as_slice()[0];
            p.grad.as_mut_slice()[0] = 2.0 * scale * (x - target);
            opt.step(&mut [&mut p]);
        }
        let x = p.value.as_slice()[0];
        assert!((x - target).abs() < 0.05, "x={x} target={target}");
    });
}

// --- trace CSV ---------------------------------------------------------------

#[test]
fn trace_csv_round_trips() {
    check(CASES, |rng| {
        let traces = vec_of(rng, 1..5, |r| Trace {
            positions: vec_of(r, 1..20, |r| {
                Point::new(r.gen_range(0.0f64..1000.0), r.gen_range(0.0f64..1000.0))
            }),
        });
        let csv = traces_to_csv(&traces);
        let back = traces_from_csv(&csv).unwrap();
        assert_eq!(back.len(), traces.len());
        for (a, b) in back.iter().zip(traces.iter()) {
            assert_eq!(a.positions.len(), b.positions.len());
            for (p, q) in a.positions.iter().zip(b.positions.iter()) {
                // CSV stores 3 decimals.
                assert!((p.x - q.x).abs() < 1e-3 && (p.y - q.y).abs() < 1e-3);
            }
        }
    });
}

// --- parallel-rollout seed derivation -------------------------------------

#[test]
fn derived_seeds_are_injective_in_the_replica_index() {
    check(CASES, |rng| {
        let batch_seed: u64 = rng.gen();
        let n = rng.gen_range(1usize..256);
        // No two replicas of one batch may ever share an episode or a
        // sampler stream.
        let mut env_seeds = HashSet::new();
        let mut smp_seeds = HashSet::new();
        for i in 0..n {
            assert!(env_seeds.insert(derive_env_seed(batch_seed, i)), "env seed collision at {i}");
            assert!(
                smp_seeds.insert(derive_sampler_seed(batch_seed, i)),
                "sampler seed collision at {i}"
            );
        }
    });
}

#[test]
fn derived_seed_streams_never_coincide() {
    check(CASES, |rng| {
        let (batch_seed, i): (u64, usize) = (rng.gen(), rng.gen_range(0..1024));
        assert_ne!(derive_env_seed(batch_seed, i), derive_sampler_seed(batch_seed, i));
    });
}

#[test]
fn derived_seeds_are_stable_pure_functions() {
    check(CASES, |rng| {
        let (batch_seed, i): (u64, usize) = (rng.gen(), rng.gen_range(0..1024));
        // Re-deriving must always reproduce the same value (no hidden state);
        // cross-run stability is pinned by golden constants in the unit tests.
        assert_eq!(derive_env_seed(batch_seed, i), derive_env_seed(batch_seed, i));
        assert_eq!(derive_sampler_seed(batch_seed, i), derive_sampler_seed(batch_seed, i));
    });
}

#[test]
fn transpose_of_product_is_reversed_product() {
    check(CASES, |rng| {
        let ma = Matrix::from_vec(2, 3, six_entries(rng));
        let mb = Matrix::from_vec(3, 2, six_entries(rng));
        let left = ma.matmul(&mb).transpose();
        let right = mb.transpose().matmul(&ma.transpose());
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((l - r).abs() < 1e-4);
        }
    });
}

// --- dual-path GEMM kernels --------------------------------------------------

/// A dimension biased toward the tiled GEMM's edge cases: empty and unit
/// dims, exact `MR`/`NR` register-tile multiples, off-by-one remainders
/// around them, and (rarely) a depth that spills past one `KC` packing
/// stripe. Weights out of 16: 2 each for the six fixed sizes, 1 for
/// `KC + 1`, 5 for the uniform `2..48`.
fn gemm_dim(rng: &mut ChaCha8Rng) -> usize {
    match rng.gen_range(0u32..16) {
        0..=1 => 0,
        2..=3 => 1,
        4..=5 => MR,
        6..=7 => MR + 1,
        8..=9 => NR,
        10..=11 => NR + 1,
        12 => KC + 1,
        _ => rng.gen_range(2usize..48),
    }
}

#[test]
fn gemm_products_match_the_transpose_oracle_on_both_kernels() {
    check(48, |rng| {
        let (m, n, k) = (gemm_dim(rng), gemm_dim(rng), gemm_dim(rng));
        let seed: u64 = rng.gen();
        // Finite data with exact zeros sprinkled in (the lanes the seed's
        // old sparsity shortcut used to skip).
        let fill = |rows: usize, cols: usize, salt: u64| {
            let mut state = seed ^ salt;
            let data = (0..rows * cols).map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if i % 7 == 0 {
                    0.0
                } else {
                    ((state >> 33) as i32) as f32 / 2.0f32.powi(31)
                }
            });
            Matrix::from_vec(rows, cols, data.collect())
        };
        let a = fill(m, k, 0x5EED);
        let b = fill(k, n, 0xB00);
        let bits = |mx: &Matrix| mx.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // One oracle for all six paths: the reference matmul of the
        // untransposed operands. `t_matmul` and `matmul_t` accumulate in
        // the same ascending-k order as `matmul`, so on finite data every
        // product on every kernel must land on these exact bits.
        let oracle = bits(&a.matmul_with(&b, GemmKernel::Reference));
        let (at, bt) = (a.transpose(), b.transpose());
        for kernel in [GemmKernel::Reference, GemmKernel::Fast] {
            assert_eq!(bits(&a.matmul_with(&b, kernel)), oracle, "matmul {kernel:?}");
            assert_eq!(bits(&at.t_matmul_with(&b, kernel)), oracle, "t_matmul {kernel:?}");
            assert_eq!(bits(&a.matmul_t_with(&bt, kernel)), oracle, "matmul_t {kernel:?}");
        }
    });
}

// --- parallel rollout engine (environment-backed, so few but real cases) ----

const PROP_HORIZON: usize = 8;
const ROLLOUT_CASES: u64 = 4;

fn prop_env() -> AirGroundEnv {
    let dataset = presets::purdue(2);
    let cfg = EnvConfig { horizon: PROP_HORIZON, stochastic_fading: false, ..EnvConfig::default() };
    AirGroundEnv::new(cfg, &dataset, 11)
}

fn prop_trainer(rollout_workers: usize) -> HiMadrlTrainer {
    let cfg = TrainConfig {
        hidden: vec![8],
        policy_epochs: 1,
        lcf_epochs: 1,
        rollout_workers,
        ..TrainConfig::default()
    };
    HiMadrlTrainer::new(&prop_env(), cfg, 2, 13).unwrap()
}

#[test]
fn concatenated_rollout_length_is_num_envs_times_horizon() {
    check(ROLLOUT_CASES, |rng| {
        let batch_seed: u64 = rng.gen();
        let num_envs = rng.gen_range(1usize..5);
        let t = prop_trainer(0);
        let mut venv = VecEnv::new(&prop_env(), num_envs);
        let parts = t.collect_rollout_vec_seeded(&mut venv, batch_seed);
        assert_eq!(parts.len(), num_envs);
        for p in &parts {
            assert_eq!(p.len(), PROP_HORIZON);
        }
        let joined = agsc::madrl::Rollout::concat(parts);
        assert_eq!(joined.len(), num_envs * PROP_HORIZON);
        assert_eq!(joined.segments(), vec![PROP_HORIZON; num_envs]);
    });
}

#[test]
fn each_replica_matches_a_standalone_run_with_its_derived_seed() {
    check(ROLLOUT_CASES, |rng| {
        let batch_seed: u64 = rng.gen();
        // Replica i of a vectorized collection must be indistinguishable
        // from a standalone serial collection of replica i — rollout AND
        // task metrics (ψ σ ξ κ λ).
        let num_envs = 3usize;
        let t = prop_trainer(2);
        let mut venv = VecEnv::new(&prop_env(), num_envs);
        let parts = t.collect_rollout_vec_seeded(&mut venv, batch_seed);
        let batch_metrics = venv.metrics();
        for i in 0..num_envs {
            let mut solo_env = prop_env();
            let solo = t.collect_rollout_indexed(&mut solo_env, batch_seed, i);
            assert_eq!(&parts[i], &solo, "rollout of replica {i} diverged");
            let sm = solo_env.metrics();
            let bm = &batch_metrics[i];
            assert_eq!(sm.data_collection_ratio.to_bits(), bm.data_collection_ratio.to_bits());
            assert_eq!(sm.data_loss_ratio.to_bits(), bm.data_loss_ratio.to_bits());
            assert_eq!(sm.energy_ratio.to_bits(), bm.energy_ratio.to_bits());
            assert_eq!(sm.fairness.to_bits(), bm.fairness.to_bits());
            assert_eq!(sm.efficiency.to_bits(), bm.efficiency.to_bits());
        }
    });
}

// --- telemetry histograms ---------------------------------------------------

/// A histogram holding `values`, at a capacity large enough that nothing
/// has been evicted (the regime where merge is exactly record-equivalence).
fn hist_of(values: &[f64], cap: usize) -> Histogram {
    let mut h = Histogram::with_capacity(cap);
    for &v in values {
        h.record(v);
    }
    h
}

/// Summary equivalence for merge laws: everything bit-exact except the
/// mean, whose running sum accumulates in a different order on each side
/// of the law and so may differ by float rounding.
fn assert_summaries_equivalent(
    a: agsc::telemetry::HistogramSummary,
    b: agsc::telemetry::HistogramSummary,
) {
    assert_eq!(a.count, b.count);
    assert_eq!(a.non_finite, b.non_finite);
    assert_eq!(a.min, b.min);
    assert_eq!(a.max, b.max);
    assert_eq!(a.p50, b.p50);
    assert_eq!(a.p90, b.p90);
    assert_eq!(a.p95, b.p95);
    assert_eq!(a.p99, b.p99);
    let slack = 1e-9 * a.mean.abs().max(b.mean.abs()).max(1.0);
    assert!((a.mean - b.mean).abs() <= slack, "means diverged: {} vs {}", a.mean, b.mean);
}

/// `min_len..max_len` values drawn from `[-bound, bound)`.
fn samples(rng: &mut ChaCha8Rng, min_len: usize, max_len: usize, bound: f64) -> Vec<f64> {
    vec_of(rng, min_len..max_len, |r| r.gen_range(-bound..bound))
}

#[test]
fn histogram_percentiles_are_monotone_and_bounded() {
    check(CASES, |rng| {
        let values = samples(rng, 1, 300, 1e9);
        let cap = rng.gen_range(1usize..400);
        let s = hist_of(&values, cap).summary();
        assert!(s.p50 <= s.p90, "p50 {} > p90 {}", s.p50, s.p90);
        assert!(s.p90 <= s.p95, "p90 {} > p95 {}", s.p90, s.p95);
        assert!(s.p95 <= s.p99, "p95 {} > p99 {}", s.p95, s.p99);
        // Lifetime min/max bound every windowed percentile, whatever was
        // evicted from the ring.
        for q in [s.p50, s.p90, s.p95, s.p99] {
            assert!((s.min..=s.max).contains(&q), "{q} outside [{}, {}]", s.min, s.max);
        }
        // The running sum rounds, so the mean gets an fp-sized allowance.
        let slack = 1e-9 * s.min.abs().max(s.max.abs()).max(1.0);
        assert!(s.mean >= s.min - slack && s.mean <= s.max + slack);
        assert_eq!(s.count, values.len() as u64);
    });
}

#[test]
fn histogram_merge_is_associative_at_equal_capacity() {
    check(CASES, |rng| {
        let (a, b, c) =
            (samples(rng, 0, 80, 1e6), samples(rng, 0, 80, 1e6), samples(rng, 0, 80, 1e6));
        // Capacity ≥ total samples: merge degenerates to record-equivalence,
        // where associativity must hold exactly.
        let cap = a.len() + b.len() + c.len() + 1;
        let (ha, hb, hc) = (hist_of(&a, cap), hist_of(&b, cap), hist_of(&c, cap));

        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);

        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);

        assert_summaries_equivalent(left.summary(), right.summary());
    });
}

#[test]
fn histogram_merge_equals_recording_the_concatenation() {
    check(CASES, |rng| {
        let (a, b) = (samples(rng, 0, 120, 1e6), samples(rng, 0, 120, 1e6));
        let cap = a.len() + b.len() + 1;
        let mut merged = hist_of(&a, cap);
        merged.merge(&hist_of(&b, cap));
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        assert_summaries_equivalent(merged.summary(), hist_of(&concat, cap).summary());
    });
}

#[test]
fn histogram_merge_count_is_additive_even_with_eviction() {
    check(CASES, |rng| {
        let (a, b) = (samples(rng, 0, 200, 1e3), samples(rng, 0, 200, 1e3));
        let cap = rng.gen_range(1usize..32);
        // Tiny ring: samples are evicted, but lifetime count/min/max must
        // still aggregate exactly.
        let mut merged = hist_of(&a, cap);
        merged.merge(&hist_of(&b, cap));
        assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        let s = merged.summary();
        if !a.is_empty() || !b.is_empty() {
            let true_min = a.iter().chain(&b).cloned().fold(f64::INFINITY, f64::min);
            let true_max = a.iter().chain(&b).cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(s.min, true_min);
            assert_eq!(s.max, true_max);
        }
    });
}

// --- serve wire protocol: decoding hostile byte streams ---------------------
//
// The serving protocol sits on the open network side of the stack; these
// properties pin the malformed-frame contract: random, truncated, and
// over-cap byte streams must come back as typed `ProtocolError`s (or a
// bounded `io` error at the frame layer) — never a panic, never an
// unbounded allocation. Named `serve_wire` so CI can run exactly this
// module via `cargo test --test properties serve_wire`.

mod serve_wire {
    use super::*;

    fn bytes(rng: &mut ChaCha8Rng, max_len: usize) -> Vec<u8> {
        vec_of(rng, 0..max_len, |r| r.gen())
    }

    #[test]
    fn arbitrary_payloads_never_panic_the_decoders() {
        check(CASES, |rng| {
            let bytes = bytes(rng, 512);
            // Ok or typed Err are both acceptable; reaching this line is the
            // assertion (no panic, no hang, no giant allocation).
            let _ = agsc_serve::Request::decode(&bytes);
            let _ = agsc_serve::Response::decode(&bytes);
        });
    }

    #[test]
    fn truncated_requests_yield_typed_errors() {
        check(CASES, |rng| {
            let agent = rng.gen_range(0u32..16);
            let obs = vec_of(rng, 0..64, |r| r.gen_range(-1e3f32..1e3));
            let cut_frac = rng.gen_range(0.0f64..1.0);
            let req = agsc_serve::Request::Action { agent, obs };
            let mut buf = Vec::new();
            req.encode(&mut buf);
            let cut = ((buf.len() - 1) as f64 * cut_frac) as usize; // strict prefix
            assert!(
                agsc_serve::Request::decode(&buf[..cut]).is_err(),
                "a strict prefix of a valid Action must not decode"
            );
        });
    }

    #[test]
    fn over_cap_declared_lengths_are_rejected_without_allocating() {
        check(CASES, |rng| {
            let declared =
                rng.gen_range((agsc_serve::protocol::MAX_FRAME_BYTES as u32 / 4 + 1)..u32::MAX);
            // An Action whose obs count advertises more than the frame cap in
            // bytes: the decoder must refuse before reserving anything.
            let mut buf = vec![0x01];
            buf.extend_from_slice(&3u32.to_le_bytes());
            buf.extend_from_slice(&declared.to_le_bytes());
            assert_eq!(agsc_serve::Request::decode(&buf), Err(agsc_serve::ProtocolError::Oversize));
        });
    }

    #[test]
    fn random_byte_streams_never_panic_the_frame_reader() {
        check(CASES, |rng| {
            let wire = bytes(rng, 2048);
            // Drain the stream through read_frame until EOF or error; every
            // outcome must be a clean Ok(None)/Ok(frame)/typed io error.
            let mut r = &wire[..];
            for _ in 0..64 {
                match agsc_serve::protocol::read_frame(&mut r) {
                    Ok(Some(payload)) => {
                        assert!(payload.len() <= agsc_serve::protocol::MAX_FRAME_BYTES);
                    }
                    Ok(None) | Err(_) => break,
                }
            }
        });
    }

    #[test]
    fn valid_frames_survive_a_noisy_tail() {
        check(CASES, |rng| {
            let obs = vec_of(rng, 0..32, |r| r.gen_range(-1.0f32..1.0));
            let tail = bytes(rng, 64);
            // A well-formed frame followed by garbage: the first frame must
            // decode; the garbage must fail typed, not corrupt the good frame.
            let req = agsc_serve::Request::Action { agent: 1, obs };
            let mut wire = Vec::new();
            agsc_serve::protocol::write_request(&mut wire, &req).unwrap();
            wire.extend_from_slice(&tail);
            let mut r = &wire[..];
            let payload = agsc_serve::protocol::read_frame(&mut r).unwrap().expect("first frame");
            assert_eq!(agsc_serve::Request::decode(&payload), Ok(req));
        });
    }
}

// --- dist wire protocol: decoding hostile byte streams ----------------------
//
// Any peer that reaches the learner's port can send it bytes, so the dist
// decoders hold the same contract as the serving ones: random bytes,
// hostile segment shape headers and torn frames come back as typed
// `DistError`s, never a panic, an abort or an allocation the bytes do not
// pay for. Named `dist_wire` so CI can run exactly this module via
// `cargo test --test properties dist_wire`.

mod dist_wire {
    use super::*;
    use agsc::env::Metrics;
    use agsc::madrl::{Actor, FleetShape, InferencePolicy, Rollout, ACTION_DIM};
    use agsc::nn::{Activation, Linear, Mlp};
    use agsc_dist::actor_frame::ACTOR_FRAME_VERSION;
    use agsc_dist::codec::CODEC_VERSION;
    use agsc_dist::proto::{
        read_learner_msg, read_worker_msg, write_learner_msg, write_worker_msg,
    };
    use agsc_dist::{
        decode_segment, encode_segment, Compression, DistError, LearnerMsg, WorkerMsg,
    };

    const CAP: usize = 1 << 20;

    fn bytes(rng: &mut ChaCha8Rng, max_len: usize) -> Vec<u8> {
        vec_of(rng, 0..max_len, |r| r.gen())
    }

    /// One of 0, 1, a small count, or `u32::MAX`.
    fn dim(rng: &mut ChaCha8Rng) -> u32 {
        [0, 1, rng.gen_range(2u32..8), u32::MAX][rng.gen_range(0usize..4)]
    }

    fn rollout(rng: &mut ChaCha8Rng) -> Rollout {
        let k = rng.gen_range(1usize..4);
        let (obs_dim, state_dim) = (rng.gen_range(0usize..5), rng.gen_range(1usize..5));
        let mut r = Rollout::new(k);
        for _ in 0..rng.gen_range(0usize..4) {
            let obs: Vec<Vec<f32>> = (0..k)
                .map(|_| (0..obs_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            let state = (0..state_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let actions: Vec<[f32; 2]> = (0..k).map(|_| [rng.gen(), rng.gen()]).collect();
            let floats: Vec<f32> = (0..k).map(|_| rng.gen()).collect();
            let sets = |rng: &mut ChaCha8Rng| {
                (0..k).map(|_| vec_of(rng, 0..3, |r| r.gen_range(0..k))).collect()
            };
            let (het, hom) = (sets(rng), sets(rng));
            r.push_step(&obs, state, &actions, &floats, &floats, het, hom);
        }
        r
    }

    /// A random consistent actor-only policy: shared or per-agent actors
    /// with up to two hidden layers of random widths.
    fn policy(rng: &mut ChaCha8Rng) -> InferencePolicy {
        let (shared, num_agents, obs_dim) =
            (rng.gen_range(0u8..2) == 1, rng.gen_range(1usize..4), rng.gen_range(1usize..6));
        let actor = |rng: &mut ChaCha8Rng| {
            let mut sizes = vec![obs_dim];
            sizes.extend(vec_of(rng, 0..3, |r| r.gen_range(1usize..5)));
            sizes.push(ACTION_DIM);
            let layers = sizes
                .windows(2)
                .map(|io| {
                    let w = (0..io[0] * io[1]).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let b = (0..io[1]).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    Linear::from_values(
                        Matrix::from_vec(io[0], io[1], w),
                        Matrix::from_vec(1, io[1], b),
                    )
                })
                .collect();
            let log_std = (0..ACTION_DIM).map(|_| rng.gen_range(-2.0f32..0.0)).collect();
            Actor { net: Mlp::from_layers(layers, Activation::Tanh, Activation::Tanh), log_std }
        };
        let actors = (0..if shared { 1 } else { num_agents }).map(|_| actor(rng)).collect();
        let shape = FleetShape { shared, obs_dim, num_agents, neighbor_range_m: rng.gen() };
        InferencePolicy::new(actors, shape, rng.gen_range(0usize..1000)).unwrap()
    }

    /// The payload of one learner frame read back, or its typed error.
    fn read_payload(payload: &[u8]) -> Result<Option<LearnerMsg>, DistError> {
        let mut wire = Vec::new();
        agsc_serve::wire::write_frame_capped(&mut wire, payload, CAP).unwrap();
        read_learner_msg(&mut &wire[..], CAP)
    }

    /// Every message of both directions, framed: (is_worker_msg, frame).
    fn frames(rng: &mut ChaCha8Rng) -> Vec<(bool, Vec<u8>)> {
        let metrics = Metrics {
            data_collection_ratio: rng.gen(),
            data_loss_ratio: rng.gen(),
            energy_ratio: rng.gen(),
            fairness: rng.gen(),
            efficiency: rng.gen(),
        };
        let worker = [
            WorkerMsg::Hello { version: rng.gen(), worker_id: rng.gen() },
            WorkerMsg::SubmitSegment {
                generation: rng.gen(),
                env_index: rng.gen(),
                metrics,
                segment: bytes(rng, 64),
            },
        ];
        let learner = [
            LearnerMsg::HelloOk { version: rng.gen() },
            LearnerMsg::Params { generation: rng.gen(), policy: policy(rng) },
            LearnerMsg::Work {
                generation: rng.gen(),
                batch_seed: rng.gen(),
                indices: vec_of(rng, 0..8, |r| r.gen()),
            },
            LearnerMsg::Ack { generation: rng.gen(), env_index: rng.gen() },
            LearnerMsg::Shutdown,
            LearnerMsg::Error { msg: "refused".into() },
        ];
        let mut out = Vec::new();
        for m in &worker {
            let mut wire = Vec::new();
            write_worker_msg(&mut wire, m, CAP).unwrap();
            out.push((true, wire));
        }
        for m in &learner {
            let mut wire = Vec::new();
            write_learner_msg(&mut wire, m, CAP).unwrap();
            out.push((false, wire));
        }
        out
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders() {
        check(CASES, |rng| {
            let raw = bytes(rng, 512);
            // As a byte stream, as the payload of a well-formed frame (so
            // the opcode parsers see it), and as a segment.
            let mut framed = Vec::new();
            agsc_serve::wire::write_frame_capped(&mut framed, &raw, CAP).unwrap();
            for stream in [&raw, &framed] {
                let _ = read_worker_msg(&mut &stream[..], CAP);
                let _ = read_learner_msg(&mut &stream[..], CAP);
            }
            let _ = decode_segment(&raw);
        });
    }

    #[test]
    fn hostile_segment_shapes_fail_typed_without_allocating() {
        check(CASES, |rng| {
            // Mode byte "none", the codec version, a drawn shape header and
            // a short random body.
            let mut seg = vec![0u8, CODEC_VERSION];
            for _ in 0..4 {
                seg.extend_from_slice(&dim(rng).to_le_bytes());
            }
            seg.extend(bytes(rng, 64));
            if let Err(e) = decode_segment(&seg) {
                assert!(matches!(e, DistError::Codec(_)), "{e}");
            }
        });
    }

    #[test]
    fn strict_prefixes_of_valid_frames_fail_typed() {
        check(CASES, |rng| {
            for (is_worker, wire) in frames(rng) {
                let cut = rng.gen_range(1..wire.len());
                let err = if is_worker {
                    read_worker_msg(&mut &wire[..cut], CAP).map(drop).unwrap_err()
                } else {
                    read_learner_msg(&mut &wire[..cut], CAP).map(drop).unwrap_err()
                };
                assert!(
                    matches!(&err, DistError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                    "a frame cut at {cut} of {} must be a torn read, got {err}",
                    wire.len()
                );
            }
        });
    }

    #[test]
    fn arbitrary_params_payloads_fail_typed() {
        check(CASES, |rng| {
            // The Params opcode, a generation, then anything: a random
            // body, or the actor-frame version byte followed by one.
            let mut payload = vec![0xB2];
            payload.extend(bytes(rng, 9));
            if rng.gen_range(0u8..2) == 1 {
                payload.push(ACTOR_FRAME_VERSION);
            }
            payload.extend(bytes(rng, 256));
            if let Err(e) = read_payload(&payload) {
                assert!(matches!(e, DistError::Protocol(_) | DistError::Params(_)), "{e}");
            }
        });
    }

    #[test]
    fn hostile_actor_frame_shapes_fail_typed_without_allocating() {
        check(CASES, |rng| {
            // A well-formed Params header and fleet shape whose actor
            // count, layer count and layer widths are drawn from
            // {0, 1, small, u32::MAX}, then a short random body.
            let mut payload = vec![0xB2];
            payload.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
            payload.extend_from_slice(&[ACTOR_FRAME_VERSION, rng.gen_range(0u8..2)]);
            for v in [dim(rng), dim(rng)] {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            payload.extend_from_slice(&250.0f64.to_le_bytes());
            payload.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
            payload.extend_from_slice(&dim(rng).to_le_bytes());
            for _ in 0..rng.gen_range(0usize..3) {
                payload.extend_from_slice(&[0, 0]);
                let layers = dim(rng);
                payload.extend_from_slice(&layers.to_le_bytes());
                for _ in 0..layers.min(4) {
                    payload.extend_from_slice(&dim(rng).to_le_bytes());
                }
                payload.extend(bytes(rng, 48));
            }
            let err = read_payload(&payload).map(drop).unwrap_err();
            assert!(matches!(err, DistError::Protocol(_) | DistError::Params(_)), "{err}");
        });
    }

    #[test]
    fn strict_prefixes_of_valid_actor_frames_fail_typed() {
        check(CASES, |rng| {
            let msg = LearnerMsg::Params { generation: rng.gen(), policy: policy(rng) };
            let mut wire = Vec::new();
            write_learner_msg(&mut wire, &msg, CAP).unwrap();
            assert_eq!(read_learner_msg(&mut &wire[..], CAP).unwrap().as_ref(), Some(&msg));
            // Re-frame a strict prefix of the payload (past the opcode), so
            // the actor-frame reader itself sees the cut.
            let payload = &wire[4..];
            let cut = rng.gen_range(1..payload.len());
            let err = read_payload(&payload[..cut]).map(drop).unwrap_err();
            assert!(matches!(err, DistError::Protocol(_)), "cut {cut}: {err}");
        });
    }

    #[test]
    fn strict_prefixes_of_valid_segments_fail_typed() {
        check(CASES, |rng| {
            let r = rollout(rng);
            for mode in [Compression::None, Compression::Rle] {
                let seg = encode_segment(&r, mode);
                assert_eq!(decode_segment(&seg).unwrap(), r);
                let cut = rng.gen_range(0..seg.len());
                let err = decode_segment(&seg[..cut]).unwrap_err();
                assert!(matches!(err, DistError::Codec(_)), "cut {cut}: {err}");
            }
        });
    }
}

// --- windowed metrics --------------------------------------------------------

#[test]
fn window_percentiles_stay_inside_the_cumulative_envelope() {
    check(CASES, |rng| {
        let values = samples(rng, 1, 200, 1e9);
        let times = vec_of(rng, 1..32, |r| r.gen_range(0u64..240));
        let now = rng.gen_range(0u64..400);
        // Whatever slice of time the window exposes, its quantiles can only
        // be drawn from recorded samples — so the cumulative histogram's
        // lifetime min/max bound every rolling percentile, and the window
        // can never claim more samples than were ever recorded.
        let cfg = WindowConfig { bucket_secs: 5, buckets: 12 };
        let mut rolling = WindowedHistogram::new(cfg);
        let mut cumulative = Histogram::with_capacity(values.len() + 1);
        for (i, &v) in values.iter().enumerate() {
            rolling.record(times[i % times.len()], v);
            cumulative.record(v);
        }
        let full = cumulative.summary();
        let s = rolling.summary(now);
        assert!(s.count <= full.count, "window {} > lifetime {}", s.count, full.count);
        if s.count > 0 {
            assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
            for q in [s.p50, s.p95, s.p99] {
                assert!(
                    (full.min..=full.max).contains(&q),
                    "rolling {q} outside the cumulative [{}, {}]",
                    full.min,
                    full.max
                );
            }
        }
    });
}

#[test]
fn window_counter_totals_are_additive_over_buckets() {
    check(CASES, |rng| {
        let mut events = vec_of(rng, 0..200, |r| (r.gen_range(0u64..300), r.gen_range(0u64..1000)));
        let now_offset = rng.gen_range(0u64..100);
        // Adds in time order; the window total must equal both the sum of
        // the per-bucket totals and an independent model summing exactly
        // the deltas whose bucket is still inside the window.
        let cfg = WindowConfig { bucket_secs: 3, buckets: 7 };
        events.sort_by_key(|&(t, _)| t);
        let mut c = WindowedCounter::new(cfg);
        for &(t, d) in &events {
            c.add(t, d);
        }
        let now = events.last().map_or(0, |&(t, _)| t) + now_offset;
        let oldest = (now / cfg.bucket_secs).saturating_sub(cfg.buckets as u64 - 1);
        let model: u64 =
            events.iter().filter(|&&(t, _)| t / cfg.bucket_secs >= oldest).map(|&(_, d)| d).sum();
        let buckets = c.bucket_totals(now);
        assert_eq!(buckets.len(), cfg.buckets);
        assert_eq!(buckets.iter().sum::<u64>(), c.total(now), "sum(buckets) == total");
        assert_eq!(c.total(now), model, "window total must match the flat model");
        let rate = c.rate_per_sec(now);
        assert!(rate >= 0.0 && rate.is_finite());
        let expect = c.total(now) as f64 / cfg.window_secs() as f64;
        assert!((rate - expect).abs() <= 1e-12 * expect.max(1.0));
    });
}

#[test]
fn cumulative_and_windowed_percentiles_share_one_quantile_definition() {
    check(CASES, |rng| {
        let values = samples(rng, 1, 200, 1e6);
        // The dedup contract: `Histogram`, `WindowedHistogram`, and any
        // caller sorting its own samples must all agree with
        // `quantile_sorted`, the single workspace percentile definition.
        // 200 < WINDOW_SAMPLES_PER_BUCKET, so nothing is evicted anywhere.
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let mut cumulative = Histogram::with_capacity(values.len() + 1);
        let mut rolling = WindowedHistogram::new(WindowConfig { bucket_secs: 1, buckets: 1 });
        for &v in &values {
            cumulative.record(v);
            rolling.record(0, v);
        }
        let hs = cumulative.summary();
        let ws = rolling.summary(0);
        for (q, cum, win) in
            [(0.50, hs.p50, ws.p50), (0.95, hs.p95, ws.p95), (0.99, hs.p99, ws.p99)]
        {
            let expect = quantile_sorted(&sorted, q);
            assert_eq!(cum, expect, "cumulative p{q} diverged from quantile_sorted");
            assert_eq!(win, expect, "windowed p{q} diverged from quantile_sorted");
        }
    });
}

// --- retry backoff (serve clients, dist worker reconnects) --------------

#[test]
fn backoff_delays_stay_within_policy_bounds() {
    check(CASES, |rng| {
        let base_ms = rng.gen_range(0u64..2_000);
        let cap_ms = rng.gen_range(0u64..3_000);
        let attempts = rng.gen_range(2u32..16);
        let seed: u64 = rng.gen();
        let draws = rng.gen_range(1usize..64);
        // Every delay the decorrelated-jitter schedule ever produces lies in
        // [base, max(base, cap)] — the floor is the floor even when the
        // configured cap is below it.
        let policy = agsc_serve::RetryPolicy {
            max_attempts: attempts,
            base: std::time::Duration::from_millis(base_ms),
            cap: std::time::Duration::from_millis(cap_ms),
            budget: None,
            seed,
        };
        let lo = policy.base;
        let hi = policy.cap.max(policy.base);
        let mut b = agsc_serve::Backoff::new(&policy);
        for i in 0..draws {
            let d = b.next_delay();
            assert!(d >= lo, "draw {i}: {d:?} under base {lo:?}");
            assert!(d <= hi, "draw {i}: {d:?} over cap {hi:?}");
        }
    });
}

#[test]
fn backoff_schedule_is_a_pure_function_of_the_policy() {
    check(CASES, |rng| {
        let base_ms = rng.gen_range(1u64..500);
        let cap_ms = rng.gen_range(1u64..2_000);
        let seed: u64 = rng.gen();
        // Replayable jitter: two Backoffs from one policy walk the same
        // sequence — what makes reconnect storms diagnosable from a seed.
        let policy = agsc_serve::RetryPolicy {
            base: std::time::Duration::from_millis(base_ms),
            cap: std::time::Duration::from_millis(cap_ms),
            seed,
            ..agsc_serve::RetryPolicy::default()
        };
        let mut a = agsc_serve::Backoff::new(&policy);
        let mut b = agsc_serve::Backoff::new(&policy);
        for _ in 0..32 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    });
}

#[test]
fn budget_gate_never_lets_cumulative_sleep_exceed_the_budget() {
    check(CASES, |rng| {
        let base_ms = rng.gen_range(1u64..200);
        let cap_ms = rng.gen_range(1u64..1_000);
        let budget_ms = rng.gen_range(1u64..5_000);
        let seed: u64 = rng.gen();
        // Walk the retry loop's exact gate: sleep only when
        // `delay_fits(elapsed, delay, budget)` — the cumulative sleep stays
        // strictly inside the budget for every jitter stream.
        let policy = agsc_serve::RetryPolicy {
            base: std::time::Duration::from_millis(base_ms),
            cap: std::time::Duration::from_millis(cap_ms),
            seed,
            ..agsc_serve::RetryPolicy::default()
        };
        let budget = std::time::Duration::from_millis(budget_ms);
        let mut b = agsc_serve::Backoff::new(&policy);
        let mut elapsed = std::time::Duration::ZERO;
        let mut slept = 0usize;
        loop {
            let d = b.next_delay();
            if !agsc_serve::delay_fits(elapsed, d, Some(budget)) {
                break;
            }
            elapsed += d;
            slept += 1;
            assert!(elapsed < budget, "after sleep {slept}: {elapsed:?} >= {budget:?}");
            assert!(
                slept <= 1 + budget_ms as usize / base_ms.max(1) as usize,
                "gate must terminate: {slept} sleeps"
            );
        }
        assert!(elapsed < budget);
    });
}
