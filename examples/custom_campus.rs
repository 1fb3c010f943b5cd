//! Build a *custom* campus from scratch — road grid, student traces, PoI
//! extraction — and drive the environment with a hand-written controller.
//! Demonstrates every substrate API a downstream adopter would touch when
//! bringing their own map instead of the Purdue/NCSU presets.
//!
//! ```sh
//! cargo run --release --example custom_campus
//! ```

use agsc::datasets::{CampusDataset, CampusSpec, TraceConfig};
use agsc::env::{AirGroundEnv, EnvConfig, UvAction, UvKind};
use agsc::geo::Point;

/// A scripted controller: UAVs sweep outward in fixed directions, UGVs chase
/// the densest unvisited PoI cluster they can see.
fn scripted_action(env: &AirGroundEnv, k: usize) -> UvAction {
    let uv = env.uv_states()[k];
    match uv.kind {
        UvKind::Uav => {
            // Radial sweep: each UAV takes a fixed bearing from the start.
            let bearing = -1.0 + 2.0 * (k as f64 + 0.5) / env.num_uvs() as f64;
            UvAction { heading: bearing, speed: 0.6 }
        }
        UvKind::Ugv => {
            // Chase the nearest PoI that still holds data.
            let mut best: Option<(Point, f64)> = None;
            for (p, &rem) in env.poi_positions().iter().zip(env.poi_remaining()) {
                if rem > 0.0 {
                    let d = uv.position.dist(p);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((*p, d));
                    }
                }
            }
            match best {
                Some((target, _)) => {
                    let heading = (target.y - uv.position.y).atan2(target.x - uv.position.x)
                        / std::f64::consts::PI;
                    UvAction { heading, speed: 1.0 }
                }
                None => UvAction::stay(),
            }
        }
    }
}

fn main() {
    // 1. Describe a small industrial park: 1 km², coarse road grid, a few
    //    hotspots (warehouses), heavy street removal for realism.
    let spec = CampusSpec {
        name: "industrial-park".into(),
        width_m: 1000.0,
        height_m: 1000.0,
        grid_cols: 7,
        grid_rows: 7,
        jitter_frac: 0.15,
        street_removal: 0.3,
        hotspots: 4,
        hotspot_bias: 0.8,
    };

    // 2. Generate the dataset: 20 simulated worker traces, 40 PoIs.
    let dataset = CampusDataset::generate(spec, TraceConfig::default(), 20, 40, 2024);
    println!(
        "generated '{}': {} road nodes / {} edges, {} PoIs, popularity fairness {:.2}",
        dataset.name,
        dataset.roads.node_count(),
        dataset.roads.edge_count(),
        dataset.pois.len(),
        dataset.poi_popularity_fairness()
    );

    // 3. A lighter fleet than the paper default: 1 UAV + 2 UGVs, 60 slots.
    let env_cfg = EnvConfig { num_uavs: 1, num_ugvs: 2, horizon: 60, ..EnvConfig::default() };
    let mut env = AirGroundEnv::new(env_cfg, &dataset, 2024);

    // 4. Run the scripted campaign.
    while !env.is_done() {
        let actions: Vec<UvAction> = (0..env.num_uvs()).map(|k| scripted_action(&env, k)).collect();
        let step = env.step(&actions);
        if env.timeslot().is_multiple_of(15) {
            let collected: f64 = step.collection.collected_per_uv.iter().sum();
            println!(
                "  t={:>3}: collected {:>6.2} Gbit this slot, {} relay pair(s) active",
                env.timeslot(),
                collected / 1e9,
                step.collection.relay_pairs.len()
            );
        }
    }

    // 5. Final metrics.
    let m = env.metrics();
    println!("\nscripted campaign results:");
    println!(
        "  psi {:.3}  sigma {:.3}  xi {:.3}  kappa {:.3}  lambda {:.3}",
        m.data_collection_ratio, m.data_loss_ratio, m.energy_ratio, m.fairness, m.efficiency
    );
    println!("\nfor a learned controller on this same campus, see examples/quickstart.rs");
}
