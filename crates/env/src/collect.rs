//! Per-timeslot data-collection scheduling (§IV-A, Definitions 1-2).
//!
//! Each slot: every UAV targets its nearest data-bearing PoI and relays to
//! its nearest UGV; every UGV targets its nearest data-bearing PoI (avoiding
//! its relay partner's PoI so `i ≠ i′`). A relayed pair shares one subchannel
//! (AG-NOMA pairing); events are then distributed round-robin over the `Z`
//! subchannels.
//!
//! SINRs generalise the paper's Eqns 4/6/9 to any number of co-channel
//! events: interference at a receiver sums over all same-subchannel
//! transmitters outside the receiver's own tuple — which reduces exactly to
//! the paper's formulas when one tuple occupies a subchannel, and makes
//! "more UVs ⇒ denser co-channel interference ⇒ more data loss" (Figs 3c/4c)
//! an emergent property rather than a hard-coded rule.

use crate::config::EnvConfig;
use agsc_channel::{
    air_ground_gain, capacity_bps, ground_ground_gain, sinr, AccessModel, RayleighFading,
};
use agsc_geo::Point;
use agsc_telemetry as tlm;
use serde::{Deserialize, Serialize};

/// One scheduled data-collection event (diagnostic / visualisation record).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledEvent {
    /// Subchannel the event runs on.
    pub subchannel: usize,
    /// Global UV index of the collector (UAVs first, then UGVs).
    pub uv: usize,
    /// PoI being collected.
    pub poi: usize,
    /// Decoder UGV (global index) for UAV-side events; `None` for direct UGV
    /// collection.
    pub decoder: Option<usize>,
    /// Achieved end-to-end SINR (linear).
    pub sinr: f64,
    /// Bits actually collected (post data-cap).
    pub bits: f64,
    /// Whether the SINR threshold check failed.
    pub loss: bool,
}

/// Result of one slot's collection round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotCollection {
    /// Bits collected per UV (global indexing).
    pub collected_per_uv: Vec<f64>,
    /// Data-loss events per UV.
    pub losses_per_uv: Vec<usize>,
    /// Bits removed from each PoI.
    pub poi_delta: Vec<f64>,
    /// Heterogeneous relay pairs `(uav global idx, ugv global idx)` active
    /// this slot — the `N_HE` neighbour sets of h-CoPO (§V-B).
    pub relay_pairs: Vec<(usize, usize)>,
    /// All scheduled events.
    pub events: Vec<ScheduledEvent>,
}

/// Availability mask applied during one slot's collection — the fault layer's
/// view of the fleet and the spectrum. Indices follow the global UV
/// convention (`0..U` UAVs, `U..U+G` UGVs); out-of-range entries read as
/// available.
#[derive(Debug, Clone, Copy)]
pub struct CollectionMask<'a> {
    /// Which UVs can collect/relay/decode this slot.
    pub uv_alive: &'a [bool],
    /// Which subchannels are usable this slot.
    pub subchannel_up: &'a [bool],
}

/// A transmitter active on a subchannel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tx {
    /// PoI ground transmitter.
    Poi(usize),
    /// UAV relay transmitter.
    Uav(usize),
}

/// Internal request before subchannel assignment.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Collector UV, global index.
    uv: usize,
    /// Target PoI index.
    poi: usize,
    /// For UAV requests: decoder UGV global index.
    decoder: Option<usize>,
    /// Paired partner request (index into the request list), if any.
    partner: Option<usize>,
}

/// Run one slot of data collection.
///
/// `uav_pos`/`ugv_pos` are the post-movement positions; `poi_remaining` is
/// the remaining data per PoI (bits) *before* this slot. Global UV index
/// convention: `0..U` are UAVs, `U..U+G` are UGVs.
pub fn run_collection(
    cfg: &EnvConfig,
    fading: &RayleighFading,
    uav_pos: &[Point],
    ugv_pos: &[Point],
    poi_pos: &[Point],
    poi_remaining: &[f64],
) -> SlotCollection {
    run_collection_masked(cfg, fading, uav_pos, ugv_pos, poi_pos, poi_remaining, None)
}

/// [`run_collection`] with an optional fault mask: dead UVs neither request
/// nor decode, and any upload scheduled on a downed subchannel fails (a
/// data-loss event). `mask: None` is exactly the unmasked scheduler.
#[allow(clippy::too_many_arguments)]
pub fn run_collection_masked(
    cfg: &EnvConfig,
    fading: &RayleighFading,
    uav_pos: &[Point],
    ugv_pos: &[Point],
    poi_pos: &[Point],
    poi_remaining: &[f64],
    mask: Option<&CollectionMask<'_>>,
) -> SlotCollection {
    let sched_span = tlm::span("collection_scheduling");
    let num_uavs = uav_pos.len();
    let num_ugvs = ugv_pos.len();
    let k = num_uavs + num_ugvs;
    let z_count = cfg.channel.subchannels;
    let mut out = SlotCollection {
        collected_per_uv: vec![0.0; k],
        losses_per_uv: vec![0; k],
        poi_delta: vec![0.0; poi_pos.len()],
        relay_pairs: Vec::new(),
        events: Vec::new(),
    };
    if poi_pos.is_empty() || z_count == 0 {
        return out;
    }

    // Fault-mask queries; out-of-range (or no mask) means available.
    let uv_ok = |k: usize| mask.is_none_or(|m| m.uv_alive.get(k).copied().unwrap_or(true));
    let ch_ok = |z: usize| mask.is_none_or(|m| m.subchannel_up.get(z).copied().unwrap_or(true));

    // Nearest data-bearing PoI within access range, optionally excluding one.
    let nearest_poi = |from: &Point, exclude: Option<usize>| -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in poi_pos.iter().enumerate() {
            if poi_remaining[i] <= 0.0 || Some(i) == exclude {
                continue;
            }
            let d = p.dist(from);
            if d <= cfg.access_range && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    };

    // --- Build requests ----------------------------------------------------
    let mut requests: Vec<Request> = Vec::new();
    // UAV requests: nearest PoI, decoded by nearest UGV.
    let mut uav_choice: Vec<Option<(usize, usize)>> = vec![None; num_uavs]; // (poi, decoder g)
    for (u, up) in uav_pos.iter().enumerate() {
        if num_ugvs == 0 {
            break; // no decoder anywhere: UAVs cannot collect at all
        }
        if !uv_ok(u) {
            continue; // dead UAV: no request, no relay
        }
        if let Some(i) = nearest_poi(up, None) {
            // Decoder: nearest *alive* UGV; a dead UGV cannot decode.
            let mut g_best: Option<usize> = None;
            let mut g_dist = f64::INFINITY;
            for (g, gp) in ugv_pos.iter().enumerate() {
                if !uv_ok(num_uavs + g) {
                    continue;
                }
                let d = gp.dist(up);
                if d < g_dist {
                    g_dist = d;
                    g_best = Some(g);
                }
            }
            if let Some(g) = g_best {
                uav_choice[u] = Some((i, g));
            }
        }
    }
    // UGV requests: nearest PoI, avoiding the PoI of a UAV that relays to it.
    let mut ugv_choice: Vec<Option<usize>> = vec![None; num_ugvs];
    for (g, gp) in ugv_pos.iter().enumerate() {
        if !uv_ok(num_uavs + g) {
            continue; // dead UGV: no direct collection
        }
        let partner_poi = uav_choice.iter().flatten().find(|&&(_, dec)| dec == g).map(|&(i, _)| i);
        let choice = nearest_poi(gp, partner_poi).or_else(|| nearest_poi(gp, None));
        // If the only available PoI is the partner's, accept the collision
        // only when nothing else is in range and it differs (`i ≠ i′` must
        // hold inside a tuple, so a same-PoI fallback stays unpaired).
        ugv_choice[g] = choice;
    }

    // Materialise requests; pair every UAV event with a UGV direct event on
    // the same subchannel (the paper's §III-B: the co-channel interference
    // suppression method "pairs the direct links and relay links on the same
    // subchannels" — pairing is structural, not opportunistic). Preference
    // order: the decoder's own event, then any still-unpaired UGV event.
    let mut ugv_req_idx: Vec<Option<usize>> = vec![None; num_ugvs];
    for (g, choice) in ugv_choice.iter().enumerate() {
        if let Some(i) = *choice {
            ugv_req_idx[g] = Some(requests.len());
            requests.push(Request { uv: num_uavs + g, poi: i, decoder: None, partner: None });
        }
    }
    for (u, choice) in uav_choice.iter().enumerate() {
        if let Some((i, g)) = *choice {
            let idx = requests.len();
            let pairable = |ri: &usize| requests[*ri].partner.is_none() && requests[*ri].poi != i;
            let partner = ugv_req_idx[g].filter(|ri| pairable(ri)).or_else(|| {
                (0..requests.len()).find(|ri| requests[*ri].decoder.is_none() && pairable(ri))
            });
            requests.push(Request { uv: u, poi: i, decoder: Some(num_uavs + g), partner });
            if let Some(ri) = partner {
                requests[ri].partner = Some(idx);
                // The heterogeneous neighbour (§V-B) is the co-channel UGV
                // whose collection interferes with u's — the tuple partner.
                out.relay_pairs.push((u, requests[ri].uv));
            }
        }
    }

    if requests.is_empty() {
        return out;
    }

    // --- Subchannel assignment ---------------------------------------------
    // Tuples (a UAV request + its partner) go on one subchannel; everything
    // round-robin so load spreads evenly.
    let mut channel_of: Vec<usize> = vec![usize::MAX; requests.len()];
    let mut next_z = 0usize;
    for ri in 0..requests.len() {
        if channel_of[ri] != usize::MAX {
            continue;
        }
        channel_of[ri] = next_z;
        if let Some(pi) = requests[ri].partner {
            channel_of[pi] = next_z;
        }
        next_z = (next_z + 1) % z_count;
    }

    // Transmitters per subchannel.
    let mut tx_per_z: Vec<Vec<Tx>> = vec![Vec::new(); z_count];
    for (ri, req) in requests.iter().enumerate() {
        let z = channel_of[ri];
        tx_per_z[z].push(Tx::Poi(req.poi));
        if req.decoder.is_some() {
            tx_per_z[z].push(Tx::Uav(req.uv));
        }
    }

    drop(sched_span);

    // --- Evaluate every request ---------------------------------------------
    let _cap_span = tlm::span("noma_capacity");
    let noise = cfg.channel.noise_power();
    let threshold = cfg.channel.sinr_threshold();

    // Gain helpers.
    let g2a = |from: &Point, uav: &Point| {
        let d = from.slant_dist(uav, cfg.uav_height);
        let ang = from.elevation_deg(uav, cfg.uav_height);
        air_ground_gain(&cfg.channel, d, ang)
    };
    let tx_power_at =
        |tx: Tx, receiver_ground: Option<&Point>, receiver_air: Option<&Point>, z: usize| -> f64 {
            match (tx, receiver_ground, receiver_air) {
                (Tx::Poi(i), Some(rg), None) => {
                    ground_ground_gain(&cfg.channel, poi_pos[i].dist(rg), fading.gain_sq(z))
                        * cfg.channel.power_poi
                }
                (Tx::Poi(i), None, Some(ra)) => g2a(&poi_pos[i], ra) * cfg.channel.power_poi,
                (Tx::Uav(u), Some(rg), None) => g2a(rg, &uav_pos[u]) * cfg.channel.power_uav,
                (Tx::Uav(u), None, Some(ra)) => {
                    // Air-to-air: treat as LoS free-space at the horizontal
                    // separation (both hover at the same altitude).
                    let d = uav_pos[u].dist(ra).max(1.0);
                    cfg.channel.eta_los() * d.powf(-cfg.channel.alpha_g2a) * cfg.channel.power_uav
                }
                _ => 0.0,
            }
        };

    // Resource shares for the interference-free disciplines.
    let shares = |z: usize| -> (f64, f64, bool) {
        let n_events =
            requests.iter().enumerate().filter(|&(ri, _)| channel_of[ri] == z).count().max(1)
                as f64;
        match cfg.access_model {
            AccessModel::Noma => (1.0, 1.0, true),
            AccessModel::Ofdma => (1.0 / n_events, 1.0, false),
            AccessModel::Tdma => (1.0, 1.0 / n_events, false),
        }
    };

    // Own-tuple transmitter set for interference exclusion.
    let own_tuple_tx = |ri: usize| -> Vec<Tx> {
        let mut own = vec![Tx::Poi(requests[ri].poi)];
        if requests[ri].decoder.is_some() {
            own.push(Tx::Uav(requests[ri].uv));
        }
        if let Some(pi) = requests[ri].partner {
            own.push(Tx::Poi(requests[pi].poi));
            if requests[pi].decoder.is_some() {
                own.push(Tx::Uav(requests[pi].uv));
            }
        }
        own
    };

    let mut poi_left = poi_remaining.to_vec();

    for (ri, req) in requests.iter().enumerate() {
        let z = channel_of[ri];
        let (bw_share, time_share, interference_on) = shares(z);
        let own = own_tuple_tx(ri);
        // Partner's PoI i′ DOES interfere with UAV-side reception (Eqns 4, 9);
        // SIC only protects the UGV's *direct* link (Eqn 6).
        let partner_poi = req.partner.map(|pi| Tx::Poi(requests[pi].poi));

        let interference = |receiver_ground: Option<&Point>,
                            receiver_air: Option<&Point>,
                            exclude: &[Tx]|
         -> f64 {
            if !interference_on {
                return 0.0;
            }
            tx_per_z[z]
                .iter()
                .filter(|t| !exclude.contains(t))
                .map(|&t| tx_power_at(t, receiver_ground, receiver_air, z))
                .sum()
        };

        let (end_sinr, bits_possible, attempted_ok) = if let Some(dec) = req.decoder {
            // --- UAV-side event: PoI i → UAV u → UGV g (Definition 1) ------
            let u = req.uv;
            let g_pos = &ugv_pos[dec - num_uavs];
            // Hop 1: PoI i → UAV u. Exclude own tuple except the partner PoI.
            let mut excl: Vec<Tx> = own.clone();
            if let Some(pp) = partner_poi {
                excl.retain(|t| *t != pp);
            }
            let sig_iu = tx_power_at(Tx::Poi(req.poi), None, Some(&uav_pos[u]), z);
            let int_iu = interference(None, Some(&uav_pos[u]), &excl);
            let gamma_iu = sinr(sig_iu, noise, int_iu);
            // Hop 2: UAV u → UGV g, plus the direct copy of PoI i (Eqn 9).
            let sig_ug = tx_power_at(Tx::Uav(u), Some(g_pos), None, z)
                + tx_power_at(Tx::Poi(req.poi), Some(g_pos), None, z);
            let int_ug = interference(Some(g_pos), None, &excl);
            let gamma_ug = sinr(sig_ug, noise, int_ug);
            let gamma = gamma_iu.min(gamma_ug);
            let c = capacity_bps(&cfg.channel, gamma_iu).min(capacity_bps(&cfg.channel, gamma_ug))
                * bw_share;
            (gamma, cfg.collect_secs * time_share * c, gamma >= threshold)
        } else {
            // --- UGV direct event: PoI i′ → UGV g (Definition 2) -----------
            let g_pos = &ugv_pos[req.uv - num_uavs];
            let sig = tx_power_at(Tx::Poi(req.poi), Some(g_pos), None, z);
            // SIC removes the whole own tuple (incl. partner's relay).
            let int = interference(Some(g_pos), None, &own);
            let gamma = sinr(sig, noise, int);
            let c = capacity_bps(&cfg.channel, gamma) * bw_share;
            (gamma, cfg.collect_secs * time_share * c, gamma >= threshold)
        };

        // A downed subchannel fails the upload outright: the attempt still
        // happened, so it counts as a data-loss event (σ).
        let (bits, loss) = if attempted_ok && ch_ok(z) {
            let take = bits_possible.min(poi_left[req.poi]).max(0.0);
            poi_left[req.poi] -= take;
            (take, false)
        } else {
            (0.0, true)
        };

        out.collected_per_uv[req.uv] += bits;
        if loss {
            out.losses_per_uv[req.uv] += 1;
        }
        out.poi_delta[req.poi] += bits;
        out.events.push(ScheduledEvent {
            subchannel: z,
            uv: req.uv,
            poi: req.poi,
            decoder: req.decoder,
            sinr: end_sinr,
            bits,
            loss,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EnvConfig {
        EnvConfig { stochastic_fading: false, ..EnvConfig::default() }
    }

    fn unit_fading(c: &EnvConfig) -> RayleighFading {
        RayleighFading::unit(c.channel.subchannels)
    }

    #[test]
    fn basic_pair_collects_from_both_sides() {
        let c = cfg();
        let f = unit_fading(&c);
        let uavs = [Point::new(100.0, 100.0)];
        let ugvs = [Point::new(130.0, 100.0)];
        let pois = [Point::new(100.0, 100.0), Point::new(130.0, 120.0)];
        let rem = [3e9, 3e9];
        let r = run_collection(&c, &f, &uavs, &ugvs, &pois, &rem);
        assert_eq!(r.relay_pairs, vec![(0, 1)]);
        assert!(r.collected_per_uv[0] > 0.0, "UAV should collect");
        assert!(r.collected_per_uv[1] > 0.0, "UGV should collect");
        assert_eq!(r.losses_per_uv, vec![0, 0]);
        // Both events share the paired subchannel.
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].subchannel, r.events[1].subchannel);
    }

    #[test]
    fn collection_capped_by_remaining_data() {
        let c = cfg();
        let f = unit_fading(&c);
        let uavs: [Point; 0] = [];
        let ugvs = [Point::new(0.0, 0.0)];
        let pois = [Point::new(10.0, 0.0)];
        let rem = [1000.0]; // almost nothing left
        let r = run_collection(&c, &f, &uavs, &ugvs, &pois, &rem);
        assert!(r.collected_per_uv[0] <= 1000.0 + 1e-6);
        assert!((r.poi_delta[0] - r.collected_per_uv[0]).abs() < 1e-9);
    }

    #[test]
    fn empty_pois_collect_nothing() {
        let c = cfg();
        let f = unit_fading(&c);
        let uavs = [Point::new(0.0, 0.0)];
        let ugvs = [Point::new(10.0, 0.0)];
        let r = run_collection(&c, &f, &uavs, &ugvs, &[], &[]);
        assert!(r.events.is_empty());
        assert_eq!(r.collected_per_uv, vec![0.0, 0.0]);
    }

    #[test]
    fn out_of_range_pois_ignored() {
        let c = cfg();
        let f = unit_fading(&c);
        let uavs: [Point; 0] = [];
        let ugvs = [Point::new(0.0, 0.0)];
        let pois = [Point::new(5000.0, 0.0)]; // way past access_range
        let rem = [3e9];
        let r = run_collection(&c, &f, &uavs, &ugvs, &pois, &rem);
        assert!(r.events.is_empty());
    }

    #[test]
    fn drained_pois_not_targeted() {
        let c = cfg();
        let f = unit_fading(&c);
        let ugvs = [Point::new(0.0, 0.0)];
        let pois = [Point::new(10.0, 0.0), Point::new(50.0, 0.0)];
        let rem = [0.0, 3e9]; // nearest is empty
        let r = run_collection(&c, &f, &[], &ugvs, &pois, &rem);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].poi, 1);
    }

    #[test]
    fn ugv_avoids_partners_poi() {
        let c = cfg();
        let f = unit_fading(&c);
        let uavs = [Point::new(100.0, 100.0)];
        let ugvs = [Point::new(101.0, 100.0)]; // right next to the UAV's PoI
        let pois = [Point::new(100.0, 100.0), Point::new(120.0, 100.0)];
        let rem = [3e9, 3e9];
        let r = run_collection(&c, &f, &uavs, &ugvs, &pois, &rem);
        let uav_event = r.events.iter().find(|e| e.uv == 0).unwrap();
        let ugv_event = r.events.iter().find(|e| e.uv == 1).unwrap();
        assert_eq!(uav_event.poi, 0);
        assert_eq!(ugv_event.poi, 1, "i′ must differ from i inside a tuple");
    }

    #[test]
    fn more_uvs_create_more_co_channel_interference() {
        let mut c = cfg();
        c.channel.subchannels = 1; // force everyone onto one subchannel
        let f = unit_fading(&c);
        let pois: Vec<Point> = (0..8).map(|i| Point::new(100.0 + 30.0 * i as f64, 100.0)).collect();
        let rem = vec![3e9; pois.len()];

        // One UGV alone.
        let solo = run_collection(&c, &f, &[], &[Point::new(100.0, 90.0)], &pois, &rem);
        let solo_sinr = solo.events[0].sinr;

        // Four UGVs crowding the same subchannel.
        let ugvs = [
            Point::new(100.0, 90.0),
            Point::new(130.0, 90.0),
            Point::new(160.0, 90.0),
            Point::new(190.0, 90.0),
        ];
        let crowd = run_collection(&c, &f, &[], &ugvs, &pois, &rem);
        let crowd_sinr = crowd.events.iter().find(|e| e.uv == 0).unwrap().sinr;
        assert!(
            crowd_sinr < solo_sinr,
            "co-channel neighbours must depress SINR ({crowd_sinr:.1} !< {solo_sinr:.1})"
        );
    }

    #[test]
    fn subchannels_relieve_interference() {
        let f1 = {
            let mut c = cfg();
            c.channel.subchannels = 1;
            let f = unit_fading(&c);
            let pois: Vec<Point> =
                (0..4).map(|i| Point::new(100.0 + 40.0 * i as f64, 100.0)).collect();
            let rem = vec![3e9; 4];
            let ugvs = [Point::new(100.0, 90.0), Point::new(140.0, 90.0)];
            run_collection(&c, &f, &[], &ugvs, &pois, &rem)
        };
        let f4 = {
            let mut c = cfg();
            c.channel.subchannels = 4;
            let f = unit_fading(&c);
            let pois: Vec<Point> =
                (0..4).map(|i| Point::new(100.0 + 40.0 * i as f64, 100.0)).collect();
            let rem = vec![3e9; 4];
            let ugvs = [Point::new(100.0, 90.0), Point::new(140.0, 90.0)];
            run_collection(&c, &f, &[], &ugvs, &pois, &rem)
        };
        let total1: f64 = f1.collected_per_uv.iter().sum();
        let total4: f64 = f4.collected_per_uv.iter().sum();
        assert!(total4 >= total1, "more subchannels must not hurt throughput");
    }

    #[test]
    fn high_threshold_causes_losses() {
        let mut c = cfg();
        c.channel.sinr_threshold_db = 90.0; // absurd QoS bar
        let f = unit_fading(&c);
        let ugvs = [Point::new(0.0, 0.0)];
        let pois = [Point::new(80.0, 0.0)]; // in range, but SINR ≪ 90 dB
        let rem = [3e9];
        let r = run_collection(&c, &f, &[], &ugvs, &pois, &rem);
        assert_eq!(r.losses_per_uv[0], 1);
        assert_eq!(r.collected_per_uv[0], 0.0);
        assert!(r.events[0].loss);
    }

    #[test]
    fn matches_reference_event_evaluator_for_single_pair() {
        // The generalized scheduler must agree with the reference
        // `agsc_channel::evaluate_event` when exactly one tuple runs.
        use agsc_channel::{evaluate_event, EventGeometry};
        let c = cfg();
        let f = unit_fading(&c);
        let uav = Point::new(100.0, 100.0);
        let ugv = Point::new(130.0, 100.0);
        let poi_i = Point::new(100.0, 100.0);
        let poi_j = Point::new(130.0, 120.0);
        // Huge reserves so the comparison is capacity-bound, not data-bound
        // (the scheduler additionally caps by remaining data).
        let r = run_collection(&c, &f, &[uav], &[ugv], &[poi_i, poi_j], &[3e12, 3e12]);

        let geom = EventGeometry {
            uav: Some(uav),
            uav_height: c.uav_height,
            ugv,
            poi_uav: Some(poi_i),
            poi_ugv: Some(poi_j),
        };
        let z = r.events[0].subchannel;
        let reference = evaluate_event(&c.channel, c.access_model, &geom, &f, z, c.collect_secs);

        let uav_event = r.events.iter().find(|e| e.uv == 0).unwrap();
        let ugv_event = r.events.iter().find(|e| e.uv == 1).unwrap();
        assert!(
            (uav_event.sinr - reference.uav.sinr).abs() / reference.uav.sinr < 1e-9,
            "UAV SINR {} vs reference {}",
            uav_event.sinr,
            reference.uav.sinr
        );
        assert!(
            (ugv_event.sinr - reference.ugv.sinr).abs() / reference.ugv.sinr < 1e-9,
            "UGV SINR {} vs reference {}",
            ugv_event.sinr,
            reference.ugv.sinr
        );
        assert!((uav_event.bits - reference.uav.bits).abs() < 1.0);
        assert!((ugv_event.bits - reference.ugv.bits).abs() < 1.0);
    }

    #[test]
    fn no_mask_matches_unmasked_scheduler() {
        let c = cfg();
        let f = unit_fading(&c);
        let uavs = [Point::new(100.0, 100.0)];
        let ugvs = [Point::new(130.0, 100.0)];
        let pois = [Point::new(100.0, 100.0), Point::new(130.0, 120.0)];
        let rem = [3e9, 3e9];
        let plain = run_collection(&c, &f, &uavs, &ugvs, &pois, &rem);
        let masked = run_collection_masked(&c, &f, &uavs, &ugvs, &pois, &rem, None);
        assert_eq!(plain, masked);
        let all_ok = CollectionMask { uv_alive: &[true, true], subchannel_up: &[true; 3] };
        let trivially_masked =
            run_collection_masked(&c, &f, &uavs, &ugvs, &pois, &rem, Some(&all_ok));
        assert_eq!(plain, trivially_masked);
    }

    #[test]
    fn dead_uav_neither_collects_nor_pairs() {
        let c = cfg();
        let f = unit_fading(&c);
        let uavs = [Point::new(100.0, 100.0)];
        let ugvs = [Point::new(130.0, 100.0)];
        let pois = [Point::new(100.0, 100.0), Point::new(130.0, 120.0)];
        let rem = [3e9, 3e9];
        let m = CollectionMask { uv_alive: &[false, true], subchannel_up: &[true; 3] };
        let r = run_collection_masked(&c, &f, &uavs, &ugvs, &pois, &rem, Some(&m));
        assert!(r.relay_pairs.is_empty());
        assert_eq!(r.collected_per_uv[0], 0.0);
        assert!(r.collected_per_uv[1] > 0.0, "the surviving UGV still collects");
        assert!(r.events.iter().all(|e| e.uv == 1));
    }

    #[test]
    fn dead_ugv_cannot_decode_for_uavs() {
        let c = cfg();
        let f = unit_fading(&c);
        let uavs = [Point::new(100.0, 100.0)];
        let ugvs = [Point::new(130.0, 100.0)];
        let pois = [Point::new(100.0, 100.0), Point::new(130.0, 120.0)];
        let rem = [3e9, 3e9];
        let m = CollectionMask { uv_alive: &[true, false], subchannel_up: &[true; 3] };
        let r = run_collection_masked(&c, &f, &uavs, &ugvs, &pois, &rem, Some(&m));
        // No alive decoder anywhere: the UAV cannot collect either.
        assert!(r.events.is_empty());
        assert_eq!(r.collected_per_uv, vec![0.0, 0.0]);
    }

    #[test]
    fn downed_subchannels_fail_uploads_and_count_losses() {
        let c = cfg();
        let f = unit_fading(&c);
        let ugvs = [Point::new(0.0, 0.0)];
        let pois = [Point::new(10.0, 0.0)];
        let rem = [3e9];
        let m = CollectionMask { uv_alive: &[true], subchannel_up: &[false; 3] };
        let r = run_collection_masked(&c, &f, &[], &ugvs, &pois, &rem, Some(&m));
        assert_eq!(r.events.len(), 1);
        assert!(r.events[0].loss, "outage must register as a loss event");
        assert_eq!(r.collected_per_uv[0], 0.0);
        assert_eq!(r.losses_per_uv[0], 1);
        assert_eq!(r.poi_delta[0], 0.0);
    }

    #[test]
    fn ofdma_divides_bandwidth() {
        let mut c = cfg();
        c.access_model = AccessModel::Ofdma;
        c.channel.subchannels = 1;
        let f = unit_fading(&c);
        let ugvs = [Point::new(0.0, 0.0), Point::new(40.0, 0.0)];
        let pois = [Point::new(10.0, 0.0), Point::new(50.0, 0.0)];
        let rem = [3e12, 3e12]; // huge so capacity binds, not data
        let r = run_collection(&c, &f, &[], &ugvs, &pois, &rem);

        let mut c1 = cfg();
        c1.access_model = AccessModel::Ofdma;
        c1.channel.subchannels = 1;
        let f1 = unit_fading(&c1);
        let solo = run_collection(&c1, &f1, &[], &[ugvs[0]], &[pois[0]], &[3e12]);
        // Two co-channel OFDMA events each get half the bandwidth.
        assert!(r.collected_per_uv[0] < solo.collected_per_uv[0]);
        assert!(
            (r.collected_per_uv[0] - solo.collected_per_uv[0] / 2.0).abs()
                / solo.collected_per_uv[0]
                < 0.01
        );
    }
}
