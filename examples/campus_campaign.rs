//! A full data-collection campaign on the NCSU-like campus comparing three
//! planners: learned h/i-MADRL, the GA Shortest-Path baseline, and Random —
//! the workload the paper's introduction motivates (disaster-response-style
//! sensing over a large area with a fixed energy budget).
//!
//! ```sh
//! cargo run --release --example campus_campaign
//! ```

use agsc::baselines::{GaConfig, RandomPolicy, ShortestPathPolicy};
use agsc::datasets::presets;
use agsc::env::{AirGroundEnv, EnvConfig, Metrics};
use agsc::madrl::{evaluate, HiMadrlTrainer, TrainConfig};
use agsc::telemetry as tlm;

fn print_row(name: &str, m: &Metrics) {
    println!(
        "{name:<16} psi {:.3}  sigma {:.3}  xi {:.3}  kappa {:.3}  lambda {:.3}",
        m.data_collection_ratio, m.data_loss_ratio, m.energy_ratio, m.fairness, m.efficiency
    );
}

fn main() {
    let iters: usize = tlm::knobs::parse("AGSC_ITERS", 30);
    if let Some(path) = tlm::init_run() {
        println!("telemetry JSONL: {}", path.display());
    }
    let dataset = presets::ncsu(7);
    println!(
        "NCSU-like campaign: {} PoIs x {:.1} Gbit, fleet of {}+{} UVs, {} slots\n",
        dataset.pois.len(),
        EnvConfig::default().poi_initial_bits / 1e9,
        EnvConfig::default().num_uavs,
        EnvConfig::default().num_ugvs,
        EnvConfig::default().horizon,
    );
    let env_cfg = EnvConfig::default();
    let train_cfg = TrainConfig::default();
    tlm::RunManifest::new(7, dataset.name.clone())
        .config_json("env_config", serde_json::to_string(&env_cfg).unwrap())
        .config_json("train_config", serde_json::to_string(&train_cfg).unwrap())
        .field("entry", "campus_campaign")
        .field_u64("iterations", iters as u64)
        .emit();
    let mut env = AirGroundEnv::new(env_cfg, &dataset, 7);

    // Learned planner. With telemetry on, each train iteration emits one
    // `iteration` record (λ, ψ, classifier accuracy, NaN-guard state, ...).
    let mut trainer = HiMadrlTrainer::new(&env, train_cfg, iters, 7)
        .expect("default training config must be valid");
    println!("training h/i-MADRL for {iters} iterations...");
    trainer.train(&mut env, iters);
    let learned = evaluate(&trainer, &mut env, 3, 9000);

    // GA shortest paths.
    println!("planning GA shortest paths...");
    let sp = ShortestPathPolicy::plan(&env, &GaConfig::default(), 7);
    let shortest = evaluate(&sp, &mut env, 3, 9000);

    // Random.
    let random = evaluate(&RandomPolicy::new(7), &mut env, 3, 9000);

    println!("\nresults (3-episode averages):");
    print_row("h/i-MADRL", &learned);
    print_row("Shortest Path", &shortest);
    print_row("Random", &random);

    if learned.efficiency > shortest.efficiency && learned.efficiency > random.efficiency {
        println!("\nh/i-MADRL wins on efficiency, as in Fig 4(a) of the paper.");
    } else {
        println!(
            "\nnote: with only {iters} training iterations the learned policy may \
             not dominate yet — raise AGSC_ITERS for the paper-shaped result."
        );
    }

    tlm::emit_profile();
    if let Some(table) = tlm::profile_table() {
        println!("\nspan profile:\n{table}");
    }
    tlm::flush();
}
