//! Observation and global-state construction (§IV-B1 of the paper).
//!
//! The global state concatenates, for every UV, `(x, y, E)` and, for every
//! PoI, `(x, y, D)` — all normalised to `[0, 1]`. Each UV's local observation
//! has the identical layout, but entities beyond its observation range are
//! blanked to `(0, 0, 0)` ("blind").

use crate::config::EnvConfig;
use crate::types::UvState;
use agsc_geo::{Aabb, Point};

/// Size of the observation/state vector for `k` UVs and `i` PoIs.
pub fn obs_dim(num_uvs: usize, num_pois: usize) -> usize {
    3 * (num_uvs + num_pois)
}

/// Build the unmasked global state vector.
pub fn global_state(
    cfg: &EnvConfig,
    bounds: &Aabb,
    uvs: &[UvState],
    poi_pos: &[Point],
    poi_remaining: &[f64],
) -> Vec<f32> {
    let mut s = Vec::with_capacity(obs_dim(uvs.len(), poi_pos.len()));
    for uv in uvs {
        s.push((uv.position.x / bounds.width().max(1.0)) as f32);
        s.push((uv.position.y / bounds.height().max(1.0)) as f32);
        s.push(uv.energy_frac() as f32);
    }
    for (p, &rem) in poi_pos.iter().zip(poi_remaining.iter()) {
        s.push((p.x / bounds.width().max(1.0)) as f32);
        s.push((p.y / bounds.height().max(1.0)) as f32);
        s.push((rem / cfg.poi_initial_bits).clamp(0.0, 1.0) as f32);
    }
    s
}

/// UV `k`'s local observation: a copy of the unmasked global `state` (as
/// [`global_state`] builds it) with out-of-range entities zeroed. A UV
/// always observes itself.
///
/// # Panics
/// Panics if `state` is not [`obs_dim`] long for `uvs` and `poi_pos`.
pub fn local_observation(
    cfg: &EnvConfig,
    state: &[f32],
    uvs: &[UvState],
    poi_pos: &[Point],
    k: usize,
) -> Vec<f32> {
    assert_eq!(state.len(), obs_dim(uvs.len(), poi_pos.len()), "state does not fit the world");
    let mut s = state.to_vec();
    let me = &uvs[k].position;
    let far = uvs.iter().enumerate().map(|(j, uv)| j != k && me.dist(&uv.position) > cfg.obs_range);
    let far = far.chain(poi_pos.iter().map(|p| me.dist(p) > cfg.obs_range));
    for (entity, far) in s.chunks_exact_mut(3).zip(far) {
        if far {
            entity.fill(0.0);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::UvKind;

    fn setup() -> (EnvConfig, Aabb, Vec<UvState>, Vec<Point>, Vec<f64>) {
        let cfg = EnvConfig { obs_range: 100.0, ..EnvConfig::default() };
        let bounds = Aabb::from_extent(1000.0, 1000.0);
        let uvs = vec![
            UvState {
                kind: UvKind::Uav,
                position: Point::new(100.0, 100.0),
                energy: 1.5e6,
                initial_energy: 1.5e6,
            },
            UvState {
                kind: UvKind::Ugv,
                position: Point::new(900.0, 900.0),
                energy: 1.0e6,
                initial_energy: 2.0e6,
            },
        ];
        let pois = vec![Point::new(150.0, 100.0), Point::new(800.0, 900.0)];
        let rem = vec![3e9, 1.5e9];
        (cfg, bounds, uvs, pois, rem)
    }

    #[test]
    fn dimensions() {
        let (cfg, bounds, uvs, pois, rem) = setup();
        let s = global_state(&cfg, &bounds, &uvs, &pois, &rem);
        assert_eq!(s.len(), obs_dim(2, 2));
        let o = local_observation(&cfg, &s, &uvs, &pois, 0);
        assert_eq!(o.len(), s.len(), "obs has the identical size as the state (§IV-B1)");
    }

    #[test]
    fn global_state_values_normalised() {
        let (cfg, bounds, uvs, pois, rem) = setup();
        let s = global_state(&cfg, &bounds, &uvs, &pois, &rem);
        assert!((s[0] - 0.1).abs() < 1e-6);
        assert!((s[2] - 1.0).abs() < 1e-6); // full energy
        assert!((s[5] - 0.5).abs() < 1e-6); // UGV at half energy
                                            // PoI 1 has half its data left.
        assert!((s[6 + 5] - 0.5).abs() < 1e-6);
        assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn masking_blanks_far_entities() {
        let (cfg, bounds, uvs, pois, rem) = setup();
        let s = global_state(&cfg, &bounds, &uvs, &pois, &rem);
        let o0 = local_observation(&cfg, &s, &uvs, &pois, 0);
        // UV 1 (at 900,900) is far from UV 0: masked.
        assert_eq!(&o0[3..6], &[0.0, 0.0, 0.0]);
        // PoI 0 is 50 m away: visible.
        assert!(o0[6] > 0.0);
        // PoI 1 is far: masked.
        assert_eq!(&o0[9..12], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn self_always_visible() {
        let (cfg, bounds, uvs, pois, rem) = setup();
        let s = global_state(&cfg, &bounds, &uvs, &pois, &rem);
        let o1 = local_observation(&cfg, &s, &uvs, &pois, 1);
        assert!(o1[3] > 0.0 && o1[4] > 0.0, "a UV must observe itself");
    }

    #[test]
    fn different_uvs_get_different_observations() {
        let (cfg, bounds, uvs, pois, rem) = setup();
        let s = global_state(&cfg, &bounds, &uvs, &pois, &rem);
        let o0 = local_observation(&cfg, &s, &uvs, &pois, 0);
        let o1 = local_observation(&cfg, &s, &uvs, &pois, 1);
        assert_ne!(o0, o1, "partial observability must differentiate agents (i-EOI premise)");
    }
}
