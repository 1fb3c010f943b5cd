//! Environment configuration (Table II of the paper).

use crate::faults::FaultConfig;
use agsc_channel::{AccessModel, ChannelParams};
use serde::{Deserialize, Serialize};

/// Full configuration of an air-ground SC task.
///
/// Defaults reproduce Table II: `T = 100`, `τ_move = τ_coll = 10 s`,
/// `I = 100` PoIs of 3 Gbit each, 2 UAVs + 2 UGVs, 1500/2000 kJ energy
/// reserves, 18/10 m/s top speeds, 60 m hovering height, `Z = 3` subchannels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Number of timeslots `T`.
    pub horizon: usize,
    /// UV movement time per slot `τ_move`, seconds.
    pub move_secs: f64,
    /// Data collection time per slot `τ_coll`, seconds.
    pub collect_secs: f64,
    /// Number of UAVs `U`.
    pub num_uavs: usize,
    /// Number of UGVs `G`.
    pub num_ugvs: usize,
    /// Initial data per PoI `D_0^i`, bits (Table II: 3 Gbit).
    pub poi_initial_bits: f64,
    /// UAV initial energy `E_0^u`, joules (Table II: 1500 kJ).
    pub uav_energy_j: f64,
    /// UGV initial energy `E_0^g`, joules (Table II: 2000 kJ).
    pub ugv_energy_j: f64,
    /// UAV max speed `v^UAV_max`, m/s (Table II: 18, per DJI Matrice 600).
    pub uav_max_speed: f64,
    /// UGV max speed `v^UGV_max`, m/s (Table II: 10).
    pub ugv_max_speed: f64,
    /// UAV hovering height `H_u`, metres (Table II: 60).
    pub uav_height: f64,
    /// Energy cost per metre of UAV movement, J/m (Eqn 1: `η ∝ τ_move · v`).
    pub uav_energy_per_m: f64,
    /// Energy cost per metre of UGV movement, J/m.
    pub ugv_energy_per_m: f64,
    /// Max range at which a UV can access a PoI, metres.
    pub access_range: f64,
    /// Observation radius: UVs/PoIs farther than this appear as `(0,0,0)`
    /// in the local observation (§IV-B1).
    pub obs_range: f64,
    /// Data-loss penalty `ω_coll` in the reward (Eqn 17).
    pub loss_penalty: f64,
    /// Energy penalty `ω_move` in the reward (Eqn 17).
    pub move_penalty: f64,
    /// Physical-layer parameters.
    pub channel: ChannelParams,
    /// Multiple-access discipline (NOMA by default).
    pub access_model: AccessModel,
    /// Redraw Rayleigh fading each slot; `false` pins `|h|² = 1` (tests).
    pub stochastic_fading: bool,
    /// Fault-injection knobs (UV failures, subchannel outages, sensor
    /// noise). Defaults to everything off, which is bit-identical to the
    /// fault-free environment.
    #[serde(default)]
    pub faults: FaultConfig,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            horizon: 100,
            move_secs: 10.0,
            collect_secs: 10.0,
            num_uavs: 2,
            num_ugvs: 2,
            poi_initial_bits: 3e9,
            uav_energy_j: 1.5e6,
            ugv_energy_j: 2.0e6,
            uav_max_speed: 18.0,
            ugv_max_speed: 10.0,
            uav_height: 60.0,
            // Sized so a UAV flying flat-out for the full task consumes
            // ≈ 35 % of its reserve, matching the energy-ratio ranges the
            // paper reports (ξ ≈ 0.09 trained, ≈ 0.35 random; Figs 3e/4e).
            uav_energy_per_m: 29.0,
            ugv_energy_per_m: 70.0,
            // 100 m keeps collection local: a UV must actually approach a
            // PoI before its uplink is scheduled (the paper gates access by
            // nearest-PoI selection plus the SINR threshold).
            access_range: 100.0,
            obs_range: 400.0,
            loss_penalty: 0.005,
            move_penalty: 0.2,
            channel: ChannelParams::default(),
            access_model: AccessModel::Noma,
            stochastic_fading: true,
            faults: FaultConfig::default(),
        }
    }
}

impl EnvConfig {
    /// Total number of UVs `K = U + G`.
    pub fn num_uvs(&self) -> usize {
        self.num_uavs + self.num_ugvs
    }

    /// Validate parameters; returns an error string on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.horizon == 0 {
            return Err("horizon must be positive".into());
        }
        if self.num_uvs() == 0 {
            return Err("need at least one UV".into());
        }
        if self.num_uavs > 0 && self.num_ugvs == 0 {
            return Err("UAVs require at least one UGV to decode relayed data".into());
        }
        if self.poi_initial_bits <= 0.0 {
            return Err("PoI data must be positive".into());
        }
        if self.uav_energy_j <= 0.0 || self.ugv_energy_j <= 0.0 {
            return Err("energy reserves must be positive".into());
        }
        if self.uav_max_speed < 0.0 || self.ugv_max_speed < 0.0 {
            return Err("speeds must be non-negative".into());
        }
        if self.move_secs <= 0.0 || self.collect_secs <= 0.0 {
            return Err("slot durations must be positive".into());
        }
        if self.access_range <= 0.0 || self.obs_range <= 0.0 {
            return Err("ranges must be positive".into());
        }
        self.faults.validate()?;
        self.channel.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = EnvConfig::default();
        assert_eq!(c.horizon, 100);
        assert_eq!(c.move_secs, 10.0);
        assert_eq!(c.collect_secs, 10.0);
        assert_eq!(c.num_uavs, 2);
        assert_eq!(c.num_ugvs, 2);
        assert_eq!(c.poi_initial_bits, 3e9);
        assert_eq!(c.uav_energy_j, 1.5e6);
        assert_eq!(c.ugv_energy_j, 2.0e6);
        assert_eq!(c.uav_max_speed, 18.0);
        assert_eq!(c.ugv_max_speed, 10.0);
        assert_eq!(c.uav_height, 60.0);
        assert_eq!(c.channel.subchannels, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_uavs_without_decoder() {
        let c = EnvConfig { num_ugvs: 0, ..EnvConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_empty_fleet() {
        let c = EnvConfig { num_uavs: 0, num_ugvs: 0, ..EnvConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_faults_are_off() {
        assert!(EnvConfig::default().faults.is_off());
    }

    #[test]
    fn validation_rejects_bad_fault_knobs() {
        let mut c = EnvConfig::default();
        c.faults.uv_failure_rate = 2.0;
        assert!(c.validate().is_err());
        let mut c = EnvConfig::default();
        c.faults.outage_len = (0, 2);
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_without_faults_field_deserializes() {
        // Older serialized configs predate the fault layer.
        let mut legacy = serde_json::to_value(EnvConfig::default()).unwrap();
        legacy.as_object_mut().unwrap().remove("faults");
        let back: EnvConfig = serde_json::from_value(legacy).unwrap();
        assert!(back.faults.is_off());
        assert_eq!(back, EnvConfig::default());
    }

    #[test]
    fn ugv_only_fleet_is_valid() {
        let c = EnvConfig { num_uavs: 0, num_ugvs: 3, ..EnvConfig::default() };
        assert!(c.validate().is_ok());
    }
}
