//! The Shortest Path baseline (§VI-A): "each UV finds the shortest path by
//! genetic algorithm to visit a sequence of PoIs", with UGV legs routed on
//! the road network.
//!
//! Each UV's visiting order over all PoIs is optimised with a permutation GA
//! (tournament selection, order crossover, swap mutation). Execution is a simple
//! target-chasing controller: head to the current target at full speed,
//! dwell until it drains (or a dwell cap expires), then advance.

use agsc_env::{AirGroundEnv, UvAction, UvKind};
use agsc_geo::{Point, RoadNetwork};
use agsc_madrl::Policy;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// GA hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-individual swap-mutation probability.
    pub mutation_rate: f64,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self { population: 40, generations: 120, tournament: 3, mutation_rate: 0.25 }
    }
}

/// Precomputed leg distances: `dist[0][j]` is start→target `j`;
/// `dist[i+1][j]` is target `i`→target `j`.
struct LegMatrix {
    dist: Vec<Vec<f64>>,
}

impl LegMatrix {
    /// Build the matrix. For UGVs this runs one Dijkstra per source node
    /// instead of one per GA fitness evaluation — the difference between a
    /// seconds-long and an hours-long planning pass on a 100-PoI campus.
    fn build(kind: UvKind, roads: &RoadNetwork, start: &Point, targets: &[Point]) -> Self {
        let sources: Vec<Point> = std::iter::once(*start).chain(targets.iter().copied()).collect();
        let dist = match kind {
            UvKind::Uav => {
                sources.iter().map(|s| targets.iter().map(|t| s.dist(t)).collect()).collect()
            }
            UvKind::Ugv => {
                let target_nodes: Vec<usize> =
                    targets.iter().map(|t| roads.nearest_node(t)).collect();
                sources
                    .iter()
                    .map(|s| {
                        let (d, _) = roads.dijkstra(roads.nearest_node(s));
                        target_nodes
                            .iter()
                            .zip(targets.iter())
                            .map(|(&n, t)| {
                                if d[n].is_finite() {
                                    d[n]
                                } else {
                                    s.dist(t) * 10.0 // disconnected fallback
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
        };
        Self { dist }
    }

    fn tour_length(&self, order: &[usize]) -> f64 {
        let mut total = 0.0;
        let mut prev = 0usize; // row 0 is the start
        for &i in order {
            total += self.dist[prev][i];
            prev = i + 1;
        }
        total
    }
}

/// Total tour length visiting `order` of `targets` starting at `start`
/// (straight-line legs for UAVs, roadmap legs for UGVs).
pub fn tour_length(
    kind: UvKind,
    roads: &RoadNetwork,
    start: &Point,
    targets: &[Point],
    order: &[usize],
) -> f64 {
    LegMatrix::build(kind, roads, start, targets).tour_length(order)
}

/// Evolve a visiting order with a permutation GA; returns the best order.
pub fn evolve_order<R: Rng + ?Sized>(
    kind: UvKind,
    roads: &RoadNetwork,
    start: &Point,
    targets: &[Point],
    cfg: &GaConfig,
    rng: &mut R,
) -> Vec<usize> {
    let n = targets.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let legs = LegMatrix::build(kind, roads, start, targets);
    let fitness = |order: &[usize]| -> f64 { legs.tour_length(order) };

    // Initial population: random shuffles plus one nearest-neighbour seed.
    let mut population: Vec<Vec<usize>> = Vec::with_capacity(cfg.population);
    population.push(nearest_neighbor_order(&legs, n));
    for _ in 1..cfg.population {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            p.swap(i, j);
        }
        population.push(p);
    }
    let mut scores: Vec<f64> = population.iter().map(|p| fitness(p)).collect();

    for _gen in 0..cfg.generations {
        let mut next = Vec::with_capacity(cfg.population);
        let mut next_scores = Vec::with_capacity(cfg.population);
        // Elitism: carry the best individual over.
        let best = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        next.push(population[best].clone());
        next_scores.push(scores[best]);

        while next.len() < cfg.population {
            let pa = tournament_pick(&scores, cfg.tournament, rng);
            let pb = tournament_pick(&scores, cfg.tournament, rng);
            let mut child = order_crossover(&population[pa], &population[pb], rng);
            if rng.gen::<f64>() < cfg.mutation_rate {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                child.swap(i, j);
            }
            let s = fitness(&child);
            next.push(child);
            next_scores.push(s);
        }
        population = next;
        scores = next_scores;
    }

    let best = scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    population.swap_remove(best)
}

fn tournament_pick<R: Rng + ?Sized>(scores: &[f64], k: usize, rng: &mut R) -> usize {
    let mut best = rng.gen_range(0..scores.len());
    for _ in 1..k {
        let cand = rng.gen_range(0..scores.len());
        if scores[cand] < scores[best] {
            best = cand;
        }
    }
    best
}

/// Order crossover (OX): keep a random slice of parent A, fill the rest in
/// parent B's order.
fn order_crossover<R: Rng + ?Sized>(a: &[usize], b: &[usize], rng: &mut R) -> Vec<usize> {
    let n = a.len();
    let (mut lo, mut hi) = (rng.gen_range(0..n), rng.gen_range(0..n));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    let mut child = vec![usize::MAX; n];
    child[lo..=hi].copy_from_slice(&a[lo..=hi]);
    let kept: Vec<usize> = a[lo..=hi].to_vec();
    let mut fill = b.iter().filter(|x| !kept.contains(x));
    for slot in child.iter_mut() {
        if *slot == usize::MAX {
            *slot = *fill.next().expect("OX fill exhausted");
        }
    }
    child
}

fn nearest_neighbor_order(legs: &LegMatrix, n: usize) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut prev = 0usize; // start row
    while !remaining.is_empty() {
        let (pos, &next) = remaining
            .iter()
            .enumerate()
            .min_by(|a, b| legs.dist[prev][*a.1].partial_cmp(&legs.dist[prev][*b.1]).unwrap())
            .unwrap();
        order.push(next);
        prev = next + 1;
        remaining.swap_remove(pos);
    }
    order
}

/// Per-UV runtime state of the chasing controller.
#[derive(Debug, Clone)]
struct ChaseState {
    /// Position in the visit order.
    next: usize,
    /// Slots spent at the current target.
    dwell: usize,
}

/// The Shortest Path baseline policy.
#[derive(Debug)]
pub struct ShortestPathPolicy {
    /// Target positions per UV, in GA-optimised visit order.
    routes: Vec<Vec<Point>>,
    /// PoI index per route entry (to read remaining data from the obs).
    route_pois: Vec<Vec<usize>>,
    kinds: Vec<UvKind>,
    num_uvs: usize,
    width: f64,
    height: f64,
    access_range: f64,
    max_dwell: usize,
    state: RefCell<Vec<ChaseState>>,
}

impl ShortestPathPolicy {
    /// Plan routes per the paper's description: *each* UV runs the GA over
    /// the full PoI sequence (§VI-A). With no spatial division of work the
    /// UVs end up on near-identical tours — the redundancy the paper
    /// criticises this baseline for.
    pub fn plan(env: &AirGroundEnv, ga: &GaConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pois = env.poi_positions();
        let kinds: Vec<UvKind> = env.uv_states().iter().map(|u| u.kind).collect();
        let route_pois: Vec<Vec<usize>> = kinds
            .iter()
            .map(|&kind| evolve_order(kind, env.roads(), &env.start(), pois, ga, &mut rng))
            .collect();
        let routes =
            route_pois.iter().map(|order| order.iter().map(|&o| pois[o]).collect()).collect();
        let bounds = env.bounds();
        Self {
            routes,
            route_pois,
            kinds,
            num_uvs: env.num_uvs(),
            width: bounds.width(),
            height: bounds.height(),
            access_range: env.config().access_range,
            max_dwell: 8,
            state: RefCell::new(vec![ChaseState { next: 0, dwell: 0 }; env.num_uvs()]),
        }
    }

    /// Reset the chasing state (evaluation calls it before every episode).
    pub fn reset(&self) {
        for s in self.state.borrow_mut().iter_mut() {
            s.next = 0;
            s.dwell = 0;
        }
    }

    /// Planned route of UV `k`.
    pub fn route(&self, k: usize) -> &[Point] {
        &self.routes[k]
    }

    fn own_position(&self, k: usize, obs: &[f32]) -> Point {
        Point::new(obs[3 * k] as f64 * self.width, obs[3 * k + 1] as f64 * self.height)
    }

    fn poi_remaining_frac(&self, poi: usize, obs: &[f32]) -> f32 {
        obs[3 * (self.num_uvs + poi) + 2]
    }
}

impl Policy for ShortestPathPolicy {
    fn reset(&self) {
        ShortestPathPolicy::reset(self);
    }

    fn action(&self, k: usize, obs: &[f32]) -> UvAction {
        let mut states = self.state.borrow_mut();
        let st = &mut states[k];
        let route = &self.routes[k];
        if route.is_empty() || st.next >= route.len() {
            return UvAction::stay();
        }
        let pos = self.own_position(k, obs);
        let target = route[st.next];
        let dist = pos.dist(&target);

        if dist <= self.access_range * 0.5 {
            // Close enough to collect: dwell until the PoI drains (its data
            // is visible inside obs range) or the dwell cap expires.
            st.dwell += 1;
            let drained = self.poi_remaining_frac(self.route_pois[k][st.next], obs) <= 1e-3;
            if drained || st.dwell >= self.max_dwell {
                st.next += 1;
                st.dwell = 0;
            }
            return UvAction::stay();
        }

        // Chase at full speed. UGVs use the same heading; the environment
        // projects the desired destination onto the roadmap.
        let heading = (target.y - pos.y).atan2(target.x - pos.x) / std::f64::consts::PI;
        let _ = self.kinds[k]; // kinds currently only matter at planning time
        UvAction { heading, speed: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsc_datasets::presets;
    use agsc_env::EnvConfig;

    fn env() -> AirGroundEnv {
        let dataset = presets::purdue(1);
        let cfg = EnvConfig { horizon: 30, stochastic_fading: false, ..EnvConfig::default() };
        AirGroundEnv::new(cfg, &dataset, 5)
    }

    #[test]
    fn ga_beats_random_order() {
        let e = env();
        let pois: Vec<Point> = e.poi_positions()[..12].to_vec();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let cfg = GaConfig::default();
        let order = evolve_order(UvKind::Uav, e.roads(), &e.start(), &pois, &cfg, &mut rng);
        let ga_len = tour_length(UvKind::Uav, e.roads(), &e.start(), &pois, &order);
        let identity: Vec<usize> = (0..pois.len()).collect();
        let id_len = tour_length(UvKind::Uav, e.roads(), &e.start(), &pois, &identity);
        assert!(ga_len <= id_len, "GA tour {ga_len:.0} m should beat naive {id_len:.0} m");
    }

    #[test]
    fn ga_order_is_a_permutation() {
        let e = env();
        let pois: Vec<Point> = e.poi_positions()[..9].to_vec();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let order =
            evolve_order(UvKind::Ugv, e.roads(), &e.start(), &pois, &GaConfig::default(), &mut rng);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn trivial_orders() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let empty =
            evolve_order(UvKind::Uav, e.roads(), &e.start(), &[], &GaConfig::default(), &mut rng);
        assert!(empty.is_empty());
        let single = evolve_order(
            UvKind::Uav,
            e.roads(),
            &e.start(),
            &[Point::new(1.0, 1.0)],
            &GaConfig::default(),
            &mut rng,
        );
        assert_eq!(single, vec![0]);
    }

    #[test]
    fn policy_runs_an_episode_and_collects() {
        let mut e = env();
        let ga = GaConfig { population: 16, generations: 20, ..Default::default() };
        let policy = ShortestPathPolicy::plan(&e, &ga, 3);
        policy.reset();
        let before: f64 = e.poi_remaining().iter().sum();
        while !e.is_done() {
            let obs = e.observations();
            let actions: Vec<UvAction> =
                (0..e.num_uvs()).map(|k| policy.action(k, &obs[k])).collect();
            e.step(&actions);
        }
        let after: f64 = e.poi_remaining().iter().sum();
        assert!(after < before, "shortest-path chasing should collect data");
    }

    #[test]
    fn back_to_back_evaluations_agree() {
        let mut e = env();
        let ga = GaConfig { population: 16, generations: 20, ..Default::default() };
        let policy = ShortestPathPolicy::plan(&e, &ga, 3);
        let first = agsc_madrl::evaluate(&policy, &mut e, 2, 11);
        let second = agsc_madrl::evaluate(&policy, &mut e, 2, 11);
        assert_eq!(first, second, "each episode must start from a fresh chase state");
    }

    #[test]
    fn reset_restarts_routes() {
        let e = env();
        let ga = GaConfig { population: 8, generations: 5, ..Default::default() };
        let policy = ShortestPathPolicy::plan(&e, &ga, 3);
        {
            let mut s = policy.state.borrow_mut();
            s[0].next = 5;
            s[0].dwell = 3;
        }
        policy.reset();
        let s = policy.state.borrow();
        assert_eq!(s[0].next, 0);
        assert_eq!(s[0].dwell, 0);
    }

    #[test]
    fn order_crossover_preserves_permutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a: Vec<usize> = (0..10).collect();
        let b: Vec<usize> = (0..10).rev().collect();
        for _ in 0..50 {
            let child = order_crossover(&a, &b, &mut rng);
            let mut sorted = child.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }
    }
}
