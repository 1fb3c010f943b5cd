//! Render UV trajectories as ASCII art plus a CSV export — the repo's stand-in
//! for the paper's matplotlib trajectory plots (Fig 2) and Unity simulator
//! snapshot (Fig 11c).
//!
//! ```sh
//! cargo run --release --example trajectory_viz            # ASCII to stdout
//! cargo run --release --example trajectory_viz -- --csv   # CSV to stdout
//! ```

use agsc::datasets::presets;
use agsc::env::{render_ascii, trajectories_csv, AirGroundEnv, EnvConfig, UvKind};
use agsc::madrl::{play_episode, HiMadrlTrainer, TrainConfig};

fn main() {
    let csv_mode = std::env::args().any(|a| a == "--csv");
    let iters: usize = agsc::telemetry::knobs::parse("AGSC_ITERS", 20);

    let dataset = presets::purdue(42);
    let mut env = AirGroundEnv::new(EnvConfig::default(), &dataset, 42);
    let mut trainer = HiMadrlTrainer::new(&env, TrainConfig::default(), iters, 42)
        .expect("default training config must be valid");
    if !csv_mode {
        eprintln!("training {iters} iterations...");
    }
    trainer.train(&mut env, iters);

    // One greedy episode, recording every slot's positions.
    let m = play_episode(&trainer, &mut env, 4242);

    let num_uavs = env.uv_states().iter().filter(|u| u.kind == UvKind::Uav).count();
    let trajectories = env.trajectories().to_vec();
    let (uav_traj, ugv_traj) = trajectories.split_at(num_uavs);

    if csv_mode {
        print!("{}", trajectories_csv(uav_traj, ugv_traj));
        return;
    }

    let drained: Vec<bool> = env.poi_remaining().iter().map(|&d| d <= 0.0).collect();
    let art = render_ascii(
        &env.bounds(),
        env.poi_positions(),
        &drained,
        uav_traj,
        ugv_traj,
        env.start(),
        (78, 26),
    );
    println!("legend: A/B = UAV tracks, a/b = UGV tracks, . = PoI, * = drained PoI, S = start\n");
    println!("{art}");
    println!(
        "episode: psi {:.3}, sigma {:.3}, xi {:.3}, kappa {:.3}, lambda {:.3}",
        m.data_collection_ratio, m.data_loss_ratio, m.energy_ratio, m.fairness, m.efficiency
    );
}
