//! Episode recording: a serialisable per-slot log of fleet state and
//! collection events.
//!
//! Where the paper demos coordination in a Unity simulator (Fig 11c), this
//! recorder captures the same information as data — positions, energies,
//! scheduled events, PoI drain — for offline inspection, plotting, or
//! regression comparison.

use crate::collect::ScheduledEvent;
use crate::env::{AirGroundEnv, StepResult};
use serde::{Deserialize, Serialize};

/// Snapshot of one timeslot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Timeslot index (after the step).
    pub t: usize,
    /// UV planar positions, `(x, y)` metres, UAVs first.
    pub uv_positions: Vec<(f64, f64)>,
    /// Remaining energy fraction per UV.
    pub uv_energy_frac: Vec<f64>,
    /// All collection events scheduled this slot.
    pub events: Vec<ScheduledEvent>,
    /// Total data remaining across all PoIs, bits.
    pub total_remaining: f64,
}

/// A full episode log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpisodeRecorder {
    /// One record per elapsed slot.
    pub slots: Vec<SlotRecord>,
}

impl EpisodeRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capture the slot that `step` just produced.
    pub fn record(&mut self, env: &AirGroundEnv, step: &StepResult) {
        self.slots.push(SlotRecord {
            t: env.timeslot(),
            uv_positions: env.uv_states().iter().map(|u| (u.position.x, u.position.y)).collect(),
            uv_energy_frac: env.uv_states().iter().map(|u| u.energy_frac()).collect(),
            events: step.collection.events.clone(),
            total_remaining: env.poi_remaining().iter().sum(),
        });
    }

    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total bits collected per UV over the episode.
    pub fn collected_per_uv(&self, num_uvs: usize) -> Vec<f64> {
        let mut out = vec![0.0; num_uvs];
        for s in &self.slots {
            for e in &s.events {
                if e.uv < num_uvs {
                    out[e.uv] += e.bits;
                }
            }
        }
        out
    }

    /// Total data-loss events per UV over the episode.
    pub fn losses_per_uv(&self, num_uvs: usize) -> Vec<usize> {
        let mut out = vec![0usize; num_uvs];
        for s in &self.slots {
            for e in &s.events {
                if e.loss && e.uv < num_uvs {
                    out[e.uv] += 1;
                }
            }
        }
        out
    }

    /// Serialise to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("episode records are always serialisable")
    }

    /// Deserialise from JSON; returns a message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;
    use crate::types::UvAction;
    use agsc_datasets::presets;

    fn recorded_episode(slots: usize) -> (AirGroundEnv, EpisodeRecorder) {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { horizon: slots, stochastic_fading: false, ..EnvConfig::default() };
        let mut env = AirGroundEnv::new(cfg, &dataset, 7);
        let mut rec = EpisodeRecorder::new();
        let actions = vec![UvAction { heading: 0.2, speed: 0.5 }; env.num_uvs()];
        while !env.is_done() {
            let step = env.step(&actions);
            rec.record(&env, &step);
        }
        (env, rec)
    }

    #[test]
    fn records_every_slot() {
        let (env, rec) = recorded_episode(10);
        assert_eq!(rec.len(), 10);
        assert_eq!(rec.slots[0].uv_positions.len(), env.num_uvs());
        assert_eq!(rec.slots.last().unwrap().t, 10);
    }

    #[test]
    fn remaining_data_is_monotone_nonincreasing() {
        let (_, rec) = recorded_episode(12);
        for w in rec.slots.windows(2) {
            assert!(w[1].total_remaining <= w[0].total_remaining + 1e-6);
        }
    }

    #[test]
    fn energy_fractions_monotone_nonincreasing() {
        let (_, rec) = recorded_episode(12);
        for w in rec.slots.windows(2) {
            for (a, b) in w[0].uv_energy_frac.iter().zip(w[1].uv_energy_frac.iter()) {
                assert!(b <= a, "energy cannot regenerate");
            }
        }
    }

    #[test]
    fn per_uv_aggregates_match_events() {
        let (env, rec) = recorded_episode(12);
        let collected = rec.collected_per_uv(env.num_uvs());
        let total_from_events: f64 = collected.iter().sum();
        let drained =
            100.0 * env.config().poi_initial_bits - env.poi_remaining().iter().sum::<f64>();
        assert!((total_from_events - drained).abs() < 1.0);
        let losses = rec.losses_per_uv(env.num_uvs());
        assert_eq!(losses.len(), env.num_uvs());
    }

    #[test]
    fn json_round_trip() {
        let (_, rec) = recorded_episode(5);
        let json = rec.to_json();
        let back = EpisodeRecorder::from_json(&json).unwrap();
        assert_eq!(back, rec);
        assert!(EpisodeRecorder::from_json("not json").is_err());
    }
}
