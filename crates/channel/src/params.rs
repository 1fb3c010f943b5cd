//! Channel parameters (Table II of the paper) and dB helpers.

use serde::{Deserialize, Serialize};

/// Convert decibels to a linear power ratio.
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear power ratio to decibels.
pub fn linear_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Physical-layer parameters of the AG-NOMA system.
///
/// Defaults follow Table II of the paper exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Unit subchannel bandwidth `B` in Hz (Table II: 20 MHz).
    pub bandwidth_hz: f64,
    /// Noise power spectral density `N0` in W/Hz (Table II: 5×10⁻²⁰).
    pub noise_psd: f64,
    /// Number of subchannels `Z` (Table II: 3).
    pub subchannels: usize,
    /// G2A path-loss exponent `α₁` (Table II: 2).
    pub alpha_g2a: f64,
    /// G2G path-loss exponent `α₂` (Table II: 4).
    pub alpha_g2g: f64,
    /// LoS additional attenuation `η_LoS` in dB (Table II: 0 dB).
    pub eta_los_db: f64,
    /// NLoS additional attenuation `η_NLoS` in dB (Table II: −20 dB).
    pub eta_nlos_db: f64,
    /// Environment constant `ω` in the LoS-probability model (Table II: 9.6).
    pub los_omega: f64,
    /// Environment constant `β` in the LoS-probability model (Table II: 0.16).
    pub los_beta: f64,
    /// UAV relay transmission power `ρ_u` in W (Table II: 3 W).
    pub power_uav: f64,
    /// PoI transmission power `ρ_i` in W (Table II: 0.1 W).
    pub power_poi: f64,
    /// SINR decoding threshold in dB (Table II: 0 dB). Below this, the upload
    /// fails and the event counts as data loss (Definitions 1-2).
    pub sinr_threshold_db: f64,
    /// Reference path gain at 1 m in dB — the `(c / 4πf)²` free-space
    /// constant folded out of Table II's path-loss exponents. −40 dB matches
    /// a 2.4 GHz carrier and puts the marginal-SINR band at the tens-of-
    /// metres ranges the paper's loss ratios imply.
    pub ref_gain_db: f64,
}

impl Default for ChannelParams {
    fn default() -> Self {
        Self {
            bandwidth_hz: 20e6,
            noise_psd: 5e-20,
            subchannels: 3,
            alpha_g2a: 2.0,
            alpha_g2g: 4.0,
            eta_los_db: 0.0,
            eta_nlos_db: -20.0,
            los_omega: 9.6,
            los_beta: 0.16,
            power_uav: 3.0,
            power_poi: 0.1,
            sinr_threshold_db: 0.0,
            ref_gain_db: -40.0,
        }
    }
}

impl ChannelParams {
    /// Noise power over one subchannel: `N0 · B` in W.
    pub fn noise_power(&self) -> f64 {
        self.noise_psd * self.bandwidth_hz
    }

    /// Linear LoS attenuation factor.
    pub fn eta_los(&self) -> f64 {
        db_to_linear(self.eta_los_db)
    }

    /// Linear NLoS attenuation factor.
    pub fn eta_nlos(&self) -> f64 {
        db_to_linear(self.eta_nlos_db)
    }

    /// Linear SINR threshold.
    pub fn sinr_threshold(&self) -> f64 {
        db_to_linear(self.sinr_threshold_db)
    }

    /// Linear reference path gain at 1 m.
    pub fn ref_gain(&self) -> f64 {
        db_to_linear(self.ref_gain_db)
    }

    /// Validate physical plausibility; returns an error string on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.bandwidth_hz <= 0.0 {
            return Err("bandwidth must be positive".into());
        }
        if self.noise_psd <= 0.0 {
            return Err("noise PSD must be positive".into());
        }
        if self.subchannels == 0 {
            return Err("at least one subchannel required".into());
        }
        if self.alpha_g2a < 1.0 || self.alpha_g2g < 1.0 {
            return Err("path-loss exponents below 1 are unphysical".into());
        }
        if self.power_uav <= 0.0 || self.power_poi <= 0.0 {
            return Err("transmit powers must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for db in [-20.0, -3.0, 0.0, 3.0, 10.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
        assert!((db_to_linear(0.0) - 1.0).abs() < 1e-12);
        assert!((db_to_linear(10.0) - 10.0).abs() < 1e-9);
        assert!((db_to_linear(-20.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn defaults_match_table_ii() {
        let p = ChannelParams::default();
        assert_eq!(p.bandwidth_hz, 20e6);
        assert_eq!(p.noise_psd, 5e-20);
        assert_eq!(p.subchannels, 3);
        assert_eq!(p.alpha_g2a, 2.0);
        assert_eq!(p.alpha_g2g, 4.0);
        assert_eq!(p.power_uav, 3.0);
        assert_eq!(p.power_poi, 0.1);
        assert_eq!(p.sinr_threshold_db, 0.0);
        assert!(p.validate().is_ok());
        // N0·B = 1e-12 W
        assert!((p.noise_power() - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let p = ChannelParams { subchannels: 0, ..ChannelParams::default() };
        assert!(p.validate().is_err());
        let p = ChannelParams { bandwidth_hz: -1.0, ..ChannelParams::default() };
        assert!(p.validate().is_err());
        let p = ChannelParams { alpha_g2g: 0.5, ..ChannelParams::default() };
        assert!(p.validate().is_err());
    }
}
