//! One function per table/figure of the paper's evaluation (§VI).
//!
//! Each prints the same rows/series the paper reports. Budgets come from
//! [`HarnessConfig`]; see `EXPERIMENTS.md` for paper-vs-measured values.
//!
//! Output is routed through [`ExperimentWriter`], so every table reaches
//! stdout and — when telemetry is enabled with `AGSC_TELEMETRY_DIR` — is
//! also teed into `<run_dir>/tables/<experiment>.txt`. Every evaluated
//! point is additionally merged into `BENCH_results.json` (see
//! [`BenchResults`]) with its five metrics and wall-clock cost.

use crate::harness::{parallel_map, run_method_robust, HarnessConfig, Method};
use crate::output::ExperimentWriter;
use crate::results::BenchResults;
use crate::table::{banner, metrics_header, metrics_row, rule, series_header, series_row};
use agsc_baselines::ippo;
use agsc_datasets::{presets, CampusDataset};
use agsc_env::{render_ascii, AirGroundEnv, EnvConfig, Metrics, UvAction, UvKind};
use agsc_madrl::{play_episode, Ablation, HiMadrlTrainer, IntrinsicSchedule, Policy, TrainConfig};
use std::time::Instant;

/// The two campus datasets, generated from the harness seed.
pub fn both_campuses(seed: u64) -> Vec<CampusDataset> {
    vec![presets::purdue(seed), presets::ncsu(seed)]
}

/// Default simulation settings (Table II).
pub fn base_env() -> EnvConfig {
    EnvConfig::default()
}

// ---------------------------------------------------------------------------
// Table III — hyperparameter tuning: ω_in × {SP, CC}
// ---------------------------------------------------------------------------

/// Regenerate Table III: `ω_in ∈ {0.001, 0.003, 0.01}` crossed with
/// parameter sharing (SP) and centralised critics (CC), both campuses.
pub fn table3_hyperparams(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("table3_hyperparams");
    let mut res = BenchResults::new("table3_hyperparams");
    w.line(banner("Table III: hyperparameter tuning (win x SP x CC)"));
    let grid = [(false, false), (true, false), (false, true), (true, true)];
    for dataset in both_campuses(h.seed) {
        w.line(format!("\n[{}]", dataset.name));
        w.line(metrics_header("config"));
        w.line(rule());
        for &win in &[0.001f32, 0.003, 0.01] {
            let jobs: Vec<(bool, bool)> = grid.to_vec();
            let results = parallel_map(jobs.clone(), |&(sp, cc)| {
                let cfg = TrainConfig {
                    intrinsic: IntrinsicSchedule::Constant(win),
                    shared_params: sp,
                    centralized_critic: cc,
                    ..TrainConfig::default()
                };
                run_method_robust(Method::HiMadrl, &base_env(), &dataset, h, Some(cfg))
            });
            for ((sp, cc), (m, secs)) in jobs.iter().zip(results.iter()) {
                let label = format!(
                    "win={win} {} {}",
                    if *sp { "w/SP" } else { "w/oSP" },
                    if *cc { "w/CC" } else { "w/oCC" }
                );
                w.line(metrics_row(&label, m));
                res.record(&dataset.name, &label, h, m, *secs);
            }
        }
    }
    res.finish();
    w.finish();
}

// ---------------------------------------------------------------------------
// Table IV — linearly decreased ω_in
// ---------------------------------------------------------------------------

/// Regenerate Table IV: linear ω_in decay vs the constant winner.
pub fn table4_win_decay(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("table4_win_decay");
    let mut res = BenchResults::new("table4_win_decay");
    w.line(banner("Table IV: impact of linearly decreased win"));
    let schedules: Vec<(&str, IntrinsicSchedule)> = vec![
        ("win 0.01 -> 0.001", IntrinsicSchedule::LinearDecay { from: 0.01, to: 0.001 }),
        ("win 0.003 -> 0", IntrinsicSchedule::LinearDecay { from: 0.003, to: 0.0 }),
        ("win = 0.003 (const)", IntrinsicSchedule::Constant(0.003)),
    ];
    for dataset in both_campuses(h.seed) {
        w.line(format!("\n[{}]", dataset.name));
        w.line(metrics_header("schedule"));
        w.line(rule());
        let results = parallel_map(schedules.clone(), |(_, sched)| {
            let cfg = TrainConfig { intrinsic: *sched, ..TrainConfig::default() };
            run_method_robust(Method::HiMadrl, &base_env(), &dataset, h, Some(cfg))
        });
        for ((label, _), (m, secs)) in schedules.iter().zip(results.iter()) {
            w.line(metrics_row(label, m));
            res.record(&dataset.name, label, h, m, *secs);
        }
    }
    res.finish();
    w.finish();
}

// ---------------------------------------------------------------------------
// Table V — homogeneous-neighbour range
// ---------------------------------------------------------------------------

/// Regenerate Table V: neighbour range ∈ {10, 25, 33, 50, 66} % of the task
/// area, efficiency only (as the paper reports).
pub fn table5_neighbor_range(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("table5_neighbor_range");
    let mut res = BenchResults::new("table5_neighbor_range");
    w.line(banner("Table V: impact of neighbor range (% of task area)"));
    let fracs = [0.10f64, 0.25, 0.33, 0.50, 0.66];
    let ticks: Vec<String> = fracs.iter().map(|f| format!("{:.0}%", f * 100.0)).collect();
    for dataset in both_campuses(h.seed) {
        let results = parallel_map(fracs.to_vec(), |&frac| {
            let cfg = TrainConfig { neighbor_range_frac: frac, ..TrainConfig::default() };
            run_method_robust(Method::HiMadrl, &base_env(), &dataset, h, Some(cfg))
        });
        w.line(format!("\n[{}]", dataset.name));
        w.line(series_header("range", &ticks));
        w.line(series_row(
            "lambda",
            &results.iter().map(|(m, _)| m.efficiency).collect::<Vec<_>>(),
        ));
        for (tick, (m, secs)) in ticks.iter().zip(results.iter()) {
            res.record(&dataset.name, &format!("range={tick}"), h, m, *secs);
        }
    }
    res.finish();
    w.finish();
}

// ---------------------------------------------------------------------------
// Table VI — ablation study
// ---------------------------------------------------------------------------

/// Regenerate Table VI: full / −i-EOI / −h-CoPO / −both.
pub fn table6_ablation(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("table6_ablation");
    let mut res = BenchResults::new("table6_ablation");
    w.line(banner("Table VI: ablation study"));
    let variants: Vec<(&str, Ablation)> = vec![
        ("h/i-MADRL", Ablation::full()),
        ("h/i-MADRL w/o i-EOI", Ablation::without_eoi()),
        ("h/i-MADRL w/o h-CoPO", Ablation::without_copo()),
        ("w/o i-EOI, h-CoPO", Ablation::base_only()),
    ];
    for dataset in both_campuses(h.seed) {
        w.line(format!("\n[{}]", dataset.name));
        w.line(metrics_header("variant"));
        w.line(rule());
        let results = parallel_map(variants.clone(), |(_, ab)| {
            let cfg = TrainConfig { ablation: *ab, ..TrainConfig::default() };
            run_method_robust(Method::HiMadrl, &base_env(), &dataset, h, Some(cfg))
        });
        for ((label, _), (m, secs)) in variants.iter().zip(results.iter()) {
            w.line(metrics_row(label, m));
            res.record(&dataset.name, label, h, m, *secs);
        }
    }
    res.finish();
    w.finish();
}

// ---------------------------------------------------------------------------
// Table VII — computational complexity
// ---------------------------------------------------------------------------

/// Regenerate Table VII: per-timeslot action-selection time and parameter
/// memory per method.
///
/// "Mem. Usage" approximates the paper's GPU-memory column with the resident
/// parameter + optimiser footprint (4 bytes × 4 copies per scalar under
/// Adam) — the quantity that matters for the paper's on-board-deployment
/// argument in §VI-F.
pub fn table7_complexity(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("table7_complexity");
    w.line(banner("Table VII: computational complexity"));
    let dataset = presets::purdue(h.seed);
    let env_cfg = base_env();
    let mut env = AirGroundEnv::new(env_cfg.clone(), &dataset, h.seed);
    let obs = env.observations();

    w.line(format!("{:<20} {:>16} {:>18}", "method", "time cost (us)", "param mem (KB)"));
    w.line("-".repeat(56));
    // Trainer-based methods share the same inference path (the plug-ins are
    // training-time only — the paper's point in §VI-F).
    for method in [Method::HiMadrl, Method::HiMadrlCopo, Method::Mappo] {
        let t = HiMadrlTrainer::new(&env, method.train_config().unwrap(), 1, h.seed)
            .expect("preset training config must be valid");
        let reps = 200usize;
        let start = Instant::now();
        for _ in 0..reps {
            for (k, o) in obs.iter().enumerate().take(env.num_uvs()) {
                std::hint::black_box(t.policy_action(k, o));
            }
        }
        let per_slot = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        // Actor+log_std per agent ≈ the deployed footprint.
        let hidden = &t.config().hidden;
        let obs_dim = env.obs_dim();
        let mut per_agent = 0usize;
        let mut prev = obs_dim;
        for &width in hidden {
            per_agent += prev * width + width;
            prev = width;
        }
        per_agent += prev * 2 + 2 + 2;
        let agents = if t.config().shared_params { 1 } else { env.num_uvs() };
        let mem_kb = (per_agent * agents * 4 * 4) as f64 / 1024.0;
        w.line(format!("{:<20} {:>16.1} {:>18.1}", method.name(), per_slot, mem_kb));
    }
    {
        let learner =
            agsc_baselines::EDivert::new(&env, agsc_baselines::EDivertConfig::default(), h.seed);
        let reps = 200usize;
        let start = Instant::now();
        for _ in 0..reps {
            for (k, o) in obs.iter().enumerate().take(env.num_uvs()) {
                std::hint::black_box(learner.action(k, o));
            }
        }
        let per_slot = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let cfg = agsc_baselines::EDivertConfig::default();
        let obs_dim = env.obs_dim();
        let gru = 3 * (obs_dim * cfg.gru_hidden + cfg.gru_hidden * cfg.gru_hidden + cfg.gru_hidden);
        let mut head = 0usize;
        let mut prev = cfg.gru_hidden;
        for &width in &cfg.hidden {
            head += prev * width + width;
            prev = width;
        }
        head += prev * 2 + 2;
        let mem_kb = ((gru + head) * env.num_uvs() * 4 * 4) as f64 / 1024.0;
        w.line(format!("{:<20} {:>16.1} {:>18.1}", "e-Divert", per_slot, mem_kb));
    }
    let _ = env.step(&vec![UvAction::stay(); env.num_uvs()]);
    w.finish();
}

// ---------------------------------------------------------------------------
// Figure sweeps (Figs 3-10)
// ---------------------------------------------------------------------------

/// A parameter sweep: tick labels plus one `EnvConfig` per point.
pub struct Sweep {
    /// Machine-friendly experiment name (file stems, result rows).
    pub slug: String,
    /// Figure title.
    pub title: String,
    /// X-axis name.
    pub x_label: String,
    /// Tick labels.
    pub ticks: Vec<String>,
    /// One environment per tick.
    pub configs: Vec<EnvConfig>,
}

/// Run a sweep for all six methods on both campuses and print the five
/// metric series each figure reports (λ ψ σ κ ξ).
pub fn run_figure_sweep(sweep: &Sweep, h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment(&sweep.slug);
    let mut res = BenchResults::new(&sweep.slug);
    w.line(banner(&sweep.title));
    for dataset in both_campuses(h.seed) {
        w.line(format!("\n[{}]", dataset.name));
        // Jobs: method-major so expensive methods interleave across threads.
        let jobs: Vec<(Method, usize)> = Method::ALL
            .iter()
            .flat_map(|&m| (0..sweep.configs.len()).map(move |i| (m, i)))
            .collect();
        let results: Vec<(Metrics, f64)> = parallel_map(jobs.clone(), |&(m, i)| {
            run_method_robust(m, &sweep.configs[i], &dataset, h, None)
        });
        for (&(m, i), (metrics, secs)) in jobs.iter().zip(results.iter()) {
            let label = format!("{} @ {}={}", m.name(), sweep.x_label, sweep.ticks[i]);
            res.record(&dataset.name, &label, h, metrics, *secs);
        }
        let metric_of = |m: &Metrics, sel: usize| match sel {
            0 => m.efficiency,
            1 => m.data_collection_ratio,
            2 => m.data_loss_ratio,
            3 => m.fairness,
            _ => m.energy_ratio,
        };
        for (sel, name) in [
            (0, "(a) efficiency"),
            (1, "(b) data collection"),
            (2, "(c) data loss"),
            (3, "(d) fairness"),
            (4, "(e) energy"),
        ] {
            w.line(format!("\n{name}"));
            w.line(series_header(&sweep.x_label, &sweep.ticks));
            for (mi, m) in Method::ALL.iter().enumerate() {
                let row: Vec<f64> = (0..sweep.configs.len())
                    .map(|i| metric_of(&results[mi * sweep.configs.len() + i].0, sel))
                    .collect();
                w.line(series_row(m.name(), &row));
            }
        }
    }
    res.finish();
    w.finish();
}

/// Figs 3-4: impact of the number of UAVs/UGVs (equal counts).
pub fn fig3_4_num_uvs(h: &HarnessConfig) {
    let counts = [1usize, 2, 3, 4, 5, 7, 10];
    let sweep = Sweep {
        slug: "fig3_4_num_uvs".into(),
        title: "Figs 3-4: impact of no. of UAVs/UGVs".into(),
        x_label: "No. of UAVs/UGVs".into(),
        ticks: counts.iter().map(|c| c.to_string()).collect(),
        configs: counts
            .iter()
            .map(|&c| {
                let mut cfg = base_env();
                cfg.num_uavs = c;
                cfg.num_ugvs = c;
                cfg
            })
            .collect(),
    };
    run_figure_sweep(&sweep, h);
}

/// Figs 5-6: impact of the number of subchannels.
pub fn fig5_6_subchannels(h: &HarnessConfig) {
    let zs = [1usize, 2, 3, 4, 5, 7, 10];
    let sweep = Sweep {
        slug: "fig5_6_subchannels".into(),
        title: "Figs 5-6: impact of no. of subchannels".into(),
        x_label: "No. of Subchannels".into(),
        ticks: zs.iter().map(|z| z.to_string()).collect(),
        configs: zs
            .iter()
            .map(|&z| {
                let mut cfg = base_env();
                cfg.channel.subchannels = z;
                cfg
            })
            .collect(),
    };
    run_figure_sweep(&sweep, h);
}

/// Figs 7-8: impact of the UAV hovering height.
pub fn fig7_8_uav_height(h: &HarnessConfig) {
    let heights = [60.0f64, 70.0, 90.0, 120.0, 150.0];
    let sweep = Sweep {
        slug: "fig7_8_uav_height".into(),
        title: "Figs 7-8: impact of UAV hovering height".into(),
        x_label: "UAV height (m)".into(),
        ticks: heights.iter().map(|v| format!("{v:.0}")).collect(),
        configs: heights
            .iter()
            .map(|&hm| {
                let mut cfg = base_env();
                cfg.uav_height = hm;
                cfg
            })
            .collect(),
    };
    run_figure_sweep(&sweep, h);
}

/// Figs 9-10: impact of the SINR threshold.
pub fn fig9_10_sinr(h: &HarnessConfig) {
    let thresholds = [-7.0f64, -2.2, 0.0, 3.0, 7.0];
    let sweep = Sweep {
        slug: "fig9_10_sinr".into(),
        title: "Figs 9-10: impact of SINR threshold".into(),
        x_label: "SINR threshold (dB)".into(),
        ticks: thresholds.iter().map(|v| format!("{v}")).collect(),
        configs: thresholds
            .iter()
            .map(|&db| {
                let mut cfg = base_env();
                cfg.channel.sinr_threshold_db = db;
                cfg
            })
            .collect(),
    };
    run_figure_sweep(&sweep, h);
}

// ---------------------------------------------------------------------------
// Fig 2 — trajectory patterns over the ablation grid
// ---------------------------------------------------------------------------

/// Train one variant and render a greedy episode's trajectories.
fn render_variant(
    label: &str,
    cfg: TrainConfig,
    dataset: &CampusDataset,
    h: &HarnessConfig,
) -> String {
    let mut env = AirGroundEnv::new(base_env(), dataset, h.seed);
    let mut t =
        HiMadrlTrainer::new(&env, cfg, h.iters, h.seed).expect("training config must be valid");
    t.train(&mut env, h.iters);
    let m = play_episode(&t, &mut env, h.seed.wrapping_add(777));
    let trajectories = env.trajectories().to_vec();
    let num_uavs = env.uv_states().iter().filter(|u| u.kind == UvKind::Uav).count();
    let drained: Vec<bool> = env.poi_remaining().iter().map(|&d| d <= 0.0).collect();
    let art = render_ascii(
        &env.bounds(),
        env.poi_positions(),
        &drained,
        &trajectories[..num_uavs],
        &trajectories[num_uavs..],
        env.start(),
        (72, 24),
    );
    format!(
        "--- {label} ({}) | lambda {:.3} psi {:.3} ---\n{art}",
        dataset.name, m.efficiency, m.data_collection_ratio
    )
}

/// Regenerate Fig 2: ASCII trajectory patterns for the ablation grid on both
/// campuses (UAVs `A`/`B`, UGVs `a`/`b`, PoIs `.`, drained `*`, start `S`).
pub fn fig2_trajectories(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("fig2_trajectories");
    w.line(banner("Fig 2: trajectory patterns over ablation study"));
    let variants: Vec<(&str, TrainConfig)> = vec![
        ("h/i-MADRL", TrainConfig::default()),
        (
            "h/i-MADRL(CoPO)",
            TrainConfig { ablation: Ablation::copo_baseline(), ..TrainConfig::default() },
        ),
        (
            "h/i-MADRL w/o h-CoPO",
            TrainConfig { ablation: Ablation::without_copo(), ..TrainConfig::default() },
        ),
        (
            "h/i-MADRL w/o i-EOI",
            TrainConfig { ablation: Ablation::without_eoi(), ..TrainConfig::default() },
        ),
        ("IPPO", ippo()),
    ];
    for dataset in both_campuses(h.seed) {
        let arts = parallel_map(variants.clone(), |(label, cfg)| {
            render_variant(label, cfg.clone(), &dataset, h)
        });
        for art in arts {
            w.line(art);
        }
    }
    w.finish();
}

// ---------------------------------------------------------------------------
// Fig 11 — UV coordination and learned LCFs
// ---------------------------------------------------------------------------

/// Regenerate Fig 11: air-ground coordination traces (UAV↔UGV distances over
/// highlighted timeslots) and the learned mean `(φ, χ)` per UV class.
pub fn fig11_coordination(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("fig11_coordination");
    w.line(banner("Fig 11: UV coordination and LCF values"));
    for dataset in both_campuses(h.seed) {
        let mut env = AirGroundEnv::new(base_env(), &dataset, h.seed);
        let mut t = HiMadrlTrainer::new(&env, TrainConfig::default(), h.iters, h.seed)
            .expect("default training config must be valid");
        t.train(&mut env, h.iters);

        // Greedy episode, logging relay pairing and UAV-UGV separation.
        env.reset(h.seed.wrapping_add(31));
        let mut pair_count = 0usize;
        let mut sep_samples: Vec<(usize, f64)> = Vec::new();
        while !env.is_done() {
            let obs = env.observations();
            let actions: Vec<UvAction> =
                (0..env.num_uvs()).map(|k| t.policy_action(k, &obs[k])).collect();
            env.step(&actions);
            let states = env.uv_states();
            for &(u, g) in env.relay_pairs() {
                pair_count += 1;
                sep_samples.push((env.timeslot(), states[u].position.dist(&states[g].position)));
            }
        }
        w.line(format!("\n[{}]", dataset.name));
        w.line(format!(
            "relay pairs formed over the episode: {pair_count} / {} slots",
            env.config().horizon
        ));
        for probe in [5usize, 25, 50, 75, 100] {
            let near: Vec<f64> = sep_samples
                .iter()
                .filter(|(t0, _)| t0.abs_diff(probe) <= 5)
                .map(|&(_, d)| d)
                .collect();
            if near.is_empty() {
                w.line(format!("  t~{probe:>3}: no active relay pair"));
            } else {
                let mean = near.iter().sum::<f64>() / near.len() as f64;
                w.line(format!(
                    "  t~{probe:>3}: mean UAV-UGV separation {mean:>7.1} m ({} pairs)",
                    near.len()
                ));
            }
        }
        let ((uav_phi, uav_chi), (ugv_phi, ugv_chi)) = t.mean_lcf_by_kind();
        w.line("learned mean LCFs (degrees):");
        w.line(format!("  UAVs: phi {uav_phi:>5.1}  chi {uav_chi:>5.1}"));
        w.line(format!("  UGVs: phi {ugv_phi:>5.1}  chi {ugv_chi:>5.1}"));
        let m = env.metrics();
        w.line(format!("episode metrics: {}", metrics_row("h/i-MADRL", &m).trim_start()));
    }
    w.finish();
}

// ---------------------------------------------------------------------------
// Design-choice ablation: GAE-λ (DESIGN.md §7)
// ---------------------------------------------------------------------------

/// Ablate the advantage estimator: one-step TD (paper Eqn 24, λ = 0) vs
/// GAE-0.95 vs Monte-Carlo (λ = 1).
pub fn abl_gae(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("abl_gae");
    let mut res = BenchResults::new("abl_gae");
    w.line(banner("Ablation: advantage estimator (GAE lambda)"));
    let lambdas = [0.0f32, 0.95, 1.0];
    let dataset = presets::purdue(h.seed);
    w.line(metrics_header("estimator"));
    w.line(rule());
    let results = parallel_map(lambdas.to_vec(), |&l| {
        let cfg = TrainConfig { gae_lambda: l, ..TrainConfig::default() };
        run_method_robust(Method::HiMadrl, &base_env(), &dataset, h, Some(cfg))
    });
    for (l, (m, secs)) in lambdas.iter().zip(results.iter()) {
        let label = match *l {
            0.0 => "one-step TD (Eqn 24)".to_string(),
            1.0 => "Monte-Carlo (l=1)".to_string(),
            x => format!("GAE l={x}"),
        };
        w.line(metrics_row(&label, m));
        res.record(&dataset.name, &label, h, m, *secs);
    }
    res.finish();
    w.finish();
}

// ---------------------------------------------------------------------------
// Design-choice ablation: multiple-access model (paper §III-B, last para)
// ---------------------------------------------------------------------------

/// Ablate the communication discipline: the paper's NOMA vs the TDMA/OFDMA
/// alternates it names as drop-in replacements.
pub fn abl_access(h: &HarnessConfig) {
    let mut w = ExperimentWriter::for_experiment("abl_access");
    let mut res = BenchResults::new("abl_access");
    w.line(banner("Ablation: multiple-access model (NOMA vs TDMA vs OFDMA)"));
    use agsc_channel::AccessModel;
    let models = [
        ("AG-NOMA (paper)", AccessModel::Noma),
        ("TDMA", AccessModel::Tdma),
        ("OFDMA", AccessModel::Ofdma),
    ];
    let dataset = presets::purdue(h.seed);
    w.line(metrics_header("access model"));
    w.line(rule());
    let results = parallel_map(models.to_vec(), |&(_, model)| {
        let mut env_cfg = base_env();
        env_cfg.access_model = model;
        run_method_robust(Method::HiMadrl, &env_cfg, &dataset, h, None)
    });
    for ((label, _), (m, secs)) in models.iter().zip(results.iter()) {
        w.line(metrics_row(label, m));
        res.record(&dataset.name, label, h, m, *secs);
    }
    res.finish();
    w.finish();
}

// ---------------------------------------------------------------------------
// GEMM microbench — sustained GFLOP/s over the policy network's layer shapes
// ---------------------------------------------------------------------------

/// Measure sustained GEMM throughput over the (batch × out × in) shapes
/// the h/i-MADRL networks actually run — observation width into the
/// default hidden stack into the 2-d action head and the 1-d value head —
/// at batch sizes 1/2 (collection and serving) and 16/64/256 (updates),
/// for all three products a training step issues (forward `x·W`, weight
/// gradient `xᵀ·dY`, input gradient `dY·Wᵀ`) under **both** GEMM kernels.
/// The first layer runs twice: once on a dense fill and once (`obs` in the
/// label) on the observation rows of one untrained `HiMadrlTrainer`
/// rollout, whose blind entities are exact zeros the fast kernel skips
/// (the run prints their sparsity: 75.1% zeros at the default seed,
/// against 65–80% in `train-purdue`'s rollouts). The `agent-obs` series
/// run the first layer on each agent's own observation matrix, as the
/// update and collection do, and time the build of its zero index.
/// GFLOP/s comes from the
/// algorithmic count 2·m·n·k (the same formula [`agsc_nn::flops`] charges),
/// so the figure is comparable whether or not telemetry is enabled and
/// whatever the kernel skipped. Each (shape, product, kernel) cell lands in
/// `BENCH_results.json` (and the trend ledger) with its `gflops`, labelled
/// `ref` or `fast` so the speedup is directly readable from the results
/// file and `bench trend` guards each kernel path as its own series.
pub fn gemm_microbench(h: &HarnessConfig) {
    use agsc_nn::{flops::matmul_flops, GemmKernel, Matrix};

    let mut w = ExperimentWriter::for_experiment("gemm_microbench");
    let mut res = BenchResults::new("gemm_microbench");
    w.line(banner("GEMM microbench: policy-network layer shapes, ref vs fast"));
    let dataset = presets::purdue(h.seed);
    let mut env = AirGroundEnv::new(base_env(), &dataset, h.seed);
    let obs_dim = env.obs_dim();
    // The networks' dense layers: obs → hidden stack → 2-d action head
    // and 1-d value head.
    let mut layers: Vec<(usize, usize)> = Vec::new();
    let mut inp = obs_dim;
    for &hsize in &TrainConfig::default().hidden {
        layers.push((hsize, inp));
        inp = hsize;
    }
    layers.push((2, inp));
    layers.push((1, inp));

    // The `obs` operand as an update stacks it: one untrained rollout's
    // observation rows, each agent's consecutive time steps after the
    // previous agent's.
    let rollout = HiMadrlTrainer::new(&env, TrainConfig::default(), 1, h.seed)
        .expect("the default training config is valid")
        .collect_rollout(&mut env);
    let obs_rows: Vec<f32> = rollout.obs.iter().flat_map(|o| o.as_slice()).copied().collect();
    assert!(obs_rows.len() >= 256 * obs_dim, "one rollout must fill a batch of 256 rows");
    // How much the fast kernel can skip in the largest batch: the exact
    // zeros its row lists leave out.
    let rows = &obs_rows[..256 * obs_dim];
    let zero_share = rows.iter().filter(|v| **v == 0.0).count() as f64 / rows.len() as f64;
    w.line(format!("obs rows: {:.1}% exact zeros", 100.0 * zero_share));

    // Timed repetitions per shape: scale with the harness budget but keep
    // the whole sweep comfortably cheap on the default budget.
    let reps = (h.iters * 8).clamp(8, 256);

    // A dense fill: about one value in thirteen is zero, too few for the
    // fast kernel to skip any (only the `obs` rows are sparse enough).
    let fill = |rows: usize, cols: usize, salt: usize| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i + salt) % 13) as f32 * 0.03).collect(),
        )
    };

    w.line(format!(
        "{:<20} {:>6} {:>10} {:>10} {:>10} {:>9}",
        "shape BxOUTxIN", "reps", "product", "ref GF/s", "fast GF/s", "speedup"
    ));
    w.line(rule());
    for &batch in &[1usize, 2, 16, 64, 256] {
        for &(out, width) in &layers {
            // One training step's operands: activations `x`, weights `W`,
            // and the gradient `dY` flowing back into this layer.
            let wgt = fill(width, out, 7);
            let dy = fill(batch, out, 11);
            let mut inputs = vec![("", fill(batch, width, 1))];
            if width == obs_dim {
                let x = Matrix::from_vec(batch, width, obs_rows[..batch * width].to_vec());
                inputs.push((" obs", x));
            }
            for (kind, x) in &inputs {
                let fwd = |kern| x.matmul_with(&wgt, kern);
                let dw = |kern| x.t_matmul_with(&dy, kern);
                let dx = |kern| dy.matmul_t_with(&wgt, kern);
                let mut products: Vec<(&str, &dyn Fn(GemmKernel) -> Matrix)> =
                    vec![("matmul", &fwd), ("t_matmul", &dw)];
                // The input gradient never reads `x`.
                if kind.is_empty() {
                    products.push(("matmul_t", &dx));
                }
                // All three products do the same algorithmic work.
                let flops_per_call = matmul_flops(batch, out, width);
                for (product, run) in products {
                    let mut gf = [0.0f64; 2];
                    for (slot, kernel) in
                        [GemmKernel::Reference, GemmKernel::Fast].into_iter().enumerate()
                    {
                        // Warm-up pass (page in, branch-train) before timing.
                        std::hint::black_box(run(kernel));
                        let t0 = Instant::now();
                        for _ in 0..reps {
                            std::hint::black_box(run(kernel));
                        }
                        let secs = t0.elapsed().as_secs_f64().max(1e-9);
                        let gflops = (flops_per_call * reps as u64) as f64 / secs / 1e9;
                        gf[slot] = gflops;
                        let label =
                            format!("B={batch} {out}x{width}{kind} {product} {}", kernel.label());
                        let point = crate::results::ResultPoint::new(
                            "gemm_microbench",
                            "",
                            &label,
                            h,
                            &Metrics::default(),
                            secs,
                        )
                        .with_gflops(gflops);
                        res.record_point(point);
                    }
                    w.line(format!(
                        "{:<20} {:>6} {:>10} {:>10.2} {:>10.2} {:>8.2}x",
                        format!("{batch}x{out}x{width}{kind}"),
                        reps,
                        product,
                        gf[0],
                        gf[1],
                        gf[1] / gf[0].max(1e-9)
                    ));
                }
            }
        }
    }
    agent_obs_series(h, &rollout.obs, reps, &mut w, &mut res);
    res.finish();
    w.finish();
}

/// The first layer as the update and collection run it, on each agent's
/// own observation matrix of one rollout (`T` rows of one agent's view):
/// the forward `x·W` and weight gradient `xᵀ·dY` at batch `T`, whose left
/// operand keeps its zero index across calls, and the batch-1 actor
/// forward on each of those rows against one finite `W`. Labelled
/// `agent-obs`. Also times building one matrix's zero index, per build.
fn agent_obs_series(
    h: &HarnessConfig,
    obs: &[agsc_nn::Matrix],
    reps: usize,
    w: &mut ExperimentWriter,
    res: &mut BenchResults,
) {
    use agsc_nn::{flops::matmul_flops, GemmKernel, Matrix};
    let (t, width) = obs[0].shape();
    let out = TrainConfig::default().hidden[0];
    let fill = |rows: usize, cols: usize, salt: usize| {
        let data = (0..rows * cols).map(|i| ((i + salt) % 13) as f32 * 0.03 - 0.15).collect();
        Matrix::from_vec(rows, cols, data)
    };
    let (wgt, dy) = (fill(width, out, 7), fill(t, out, 11));
    let rows: Vec<Matrix> =
        obs.iter().flat_map(|o| o.iter_rows().map(Matrix::row_vector)).collect();
    let zeros = obs.iter().map(|o| o.as_slice().iter().filter(|v| **v == 0.0).count());
    let shares: Vec<String> =
        zeros.map(|z| format!("{:.1}%", 100.0 * z as f64 / (t * width) as f64)).collect();
    w.line(format!(
        "agent-obs: {} agents x {t} rows, zeros per agent {}",
        obs.len(),
        shares.join(" ")
    ));
    type Run<'a> = Box<dyn Fn(GemmKernel) + 'a>;
    let series: [(usize, &str, Run); 3] = [
        (
            t,
            "matmul",
            Box::new(|k| {
                obs.iter().for_each(|x| drop(std::hint::black_box(x.matmul_with(&wgt, k))))
            }),
        ),
        (
            t,
            "t_matmul",
            Box::new(|k| {
                obs.iter().for_each(|x| drop(std::hint::black_box(x.t_matmul_with(&dy, k))))
            }),
        ),
        (
            1,
            "matmul",
            Box::new(|k| {
                rows.iter().for_each(|x| drop(std::hint::black_box(x.matmul_with(&wgt, k))))
            }),
        ),
    ];
    for (batch, product, run) in &series {
        let calls = if *batch == 1 { rows.len() } else { obs.len() };
        let mut us = [0.0f64; 2];
        for (slot, kernel) in [GemmKernel::Reference, GemmKernel::Fast].into_iter().enumerate() {
            // The warm-up also builds each operand's zero index, as the
            // update's first product on a rollout does.
            run(kernel);
            let t0 = Instant::now();
            for _ in 0..reps {
                run(kernel);
            }
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            let total = (reps * calls) as f64;
            us[slot] = secs / total * 1e6;
            let gflops = (matmul_flops(*batch, out, width) as f64 * total) / secs / 1e9;
            let label = format!("B={batch} {out}x{width} agent-obs {product} {}", kernel.label());
            let point = crate::results::ResultPoint::new(
                "gemm_microbench",
                "",
                &label,
                h,
                &Metrics::default(),
                secs,
            );
            res.record_point(point.with_gflops(gflops));
        }
        w.line(format!(
            "{:<28} {:>10} {:>9.2} us ref {:>9.2} us fast {:>7.2}x",
            format!("{batch}x{out}x{width} agent-obs"),
            product,
            us[0],
            us[1],
            us[0] / us[1].max(1e-9)
        ));
    }
    // Index builds (the row lists), each on a fresh copy: a clone carries
    // no index.
    let mut build_us: Vec<f64> = Vec::with_capacity(reps * obs.len());
    let t0 = Instant::now();
    for _ in 0..reps {
        for x in obs {
            let copy = x.clone();
            let t1 = Instant::now();
            copy.index_zeros();
            build_us.push(t1.elapsed().as_secs_f64() * 1e6);
        }
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    build_us.sort_by(f64::total_cmp);
    let pct = |q: f64| build_us[((build_us.len() - 1) as f64 * q).round() as usize];
    let label = format!("B={t} {width} agent-obs index build");
    let point = crate::results::ResultPoint::new(
        "gemm_microbench",
        "",
        &label,
        h,
        &Metrics::default(),
        secs,
    )
    .with_samples_per_sec(build_us.len() as f64 / secs)
    .with_latency_us(pct(0.5), pct(0.95), pct(0.99));
    res.record_point(point);
    w.line(format!(
        "{t}x{width} agent-obs index build (row lists): p50 {:.2} us, p95 {:.2} us",
        pct(0.5),
        pct(0.95)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campuses_are_purdue_and_ncsu() {
        let c = both_campuses(1);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].name, "purdue");
        assert_eq!(c[1].name, "ncsu");
    }

    #[test]
    fn sweep_configs_match_ticks() {
        let counts = [1usize, 2, 3];
        let sweep = Sweep {
            slug: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            ticks: counts.iter().map(|c| c.to_string()).collect(),
            configs: counts
                .iter()
                .map(|&c| {
                    let mut cfg = base_env();
                    cfg.num_uavs = c;
                    cfg.num_ugvs = c;
                    cfg
                })
                .collect(),
        };
        assert_eq!(sweep.ticks.len(), sweep.configs.len());
        assert_eq!(sweep.configs[2].num_uavs, 3);
    }
}
