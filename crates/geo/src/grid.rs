//! Uniform spatial hash grid for radius queries.
//!
//! Used for: (a) finding the PoIs within a UV's access/observation range each
//! timeslot, and (b) the h-CoPO homogeneous-neighbour query ("physically
//! nearby UVs", §V-B of the paper). Both are radius queries over a few
//! hundred points, for which a uniform grid beats a tree in simplicity and
//! constant factor.

use crate::point::{Aabb, Point};

/// A uniform grid over an [`Aabb`] bucketing point indices by cell.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    bounds: Aabb,
    cell: f64,
    nx: usize,
    ny: usize,
    buckets: Vec<Vec<usize>>,
    points: Vec<Point>,
}

impl SpatialGrid {
    /// Build a grid over `bounds` with the given cell size, indexing `points`.
    ///
    /// Points outside the bounds are clamped into the border cells, so every
    /// point is indexed.
    ///
    /// # Panics
    /// Panics if `cell_size` is not positive and finite.
    pub fn build(bounds: Aabb, cell_size: f64, points: &[Point]) -> Self {
        assert!(cell_size > 0.0 && cell_size.is_finite(), "cell size must be positive");
        let nx = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let ny = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        let mut grid = Self {
            bounds,
            cell: cell_size,
            nx,
            ny,
            buckets: vec![Vec::new(); nx * ny],
            points: points.to_vec(),
        };
        for (i, p) in points.iter().enumerate() {
            let c = grid.cell_of(p);
            grid.buckets[c].push(i);
        }
        grid
    }

    fn cell_of(&self, p: &Point) -> usize {
        let cx = (((p.x - self.bounds.min.x) / self.cell) as isize).clamp(0, self.nx as isize - 1)
            as usize;
        let cy = (((p.y - self.bounds.min.y) / self.cell) as isize).clamp(0, self.ny as isize - 1)
            as usize;
        cy * self.nx + cx
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of all points within `radius` of `center` (inclusive).
    pub fn query_radius(&self, center: &Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_radius(center, radius, |i, _| out.push(i));
        out.sort_unstable();
        out
    }

    /// Visit `(index, distance)` for all points within `radius` of `center`.
    pub fn for_each_in_radius(&self, center: &Point, radius: f64, mut f: impl FnMut(usize, f64)) {
        if radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        let min_cx = (((center.x - radius - self.bounds.min.x) / self.cell).floor() as isize)
            .clamp(0, self.nx as isize - 1) as usize;
        let max_cx = (((center.x + radius - self.bounds.min.x) / self.cell).floor() as isize)
            .clamp(0, self.nx as isize - 1) as usize;
        let min_cy = (((center.y - radius - self.bounds.min.y) / self.cell).floor() as isize)
            .clamp(0, self.ny as isize - 1) as usize;
        let max_cy = (((center.y + radius - self.bounds.min.y) / self.cell).floor() as isize)
            .clamp(0, self.ny as isize - 1) as usize;
        for cy in min_cy..=max_cy {
            for cx in min_cx..=max_cx {
                for &i in &self.buckets[cy * self.nx + cx] {
                    let d_sq = self.points[i].dist_sq(center);
                    if d_sq <= r_sq {
                        f(i, d_sq.sqrt());
                    }
                }
            }
        }
    }

    /// Index and distance of the nearest point to `center`, or `None` if the
    /// grid is empty.
    pub fn nearest(&self, center: &Point) -> Option<(usize, f64)> {
        // Expanding-ring search; falls back to a full scan after the rings
        // cover the whole grid.
        if self.points.is_empty() {
            return None;
        }
        let mut radius = self.cell;
        let max_radius = self.bounds.diagonal() + self.cell;
        loop {
            let mut best: Option<(usize, f64)> = None;
            self.for_each_in_radius(center, radius, |i, d| {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            });
            if let Some(b) = best {
                return Some(b);
            }
            if radius > max_radius {
                // All points are outside every ring (can happen when the
                // query point is far outside the bounds): full scan.
                let mut best = (0usize, f64::INFINITY);
                for (i, p) in self.points.iter().enumerate() {
                    let d = p.dist(center);
                    if d < best.1 {
                        best = (i, d);
                    }
                }
                return Some(best);
            }
            radius *= 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(5.0, 5.0),
            Point::new(15.0, 5.0),
            Point::new(50.0, 50.0),
            Point::new(95.0, 95.0),
            Point::new(5.1, 5.1),
        ]
    }

    fn grid() -> SpatialGrid {
        SpatialGrid::build(Aabb::from_extent(100.0, 100.0), 10.0, &sample_points())
    }

    #[test]
    fn query_radius_matches_brute_force() {
        let g = grid();
        let pts = sample_points();
        for center in [Point::new(5.0, 5.0), Point::new(60.0, 40.0), Point::new(0.0, 0.0)] {
            for radius in [1.0, 12.0, 75.0, 200.0] {
                let fast = g.query_radius(&center, radius);
                let mut brute: Vec<usize> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.dist(&center) <= radius)
                    .map(|(i, _)| i)
                    .collect();
                brute.sort_unstable();
                assert_eq!(fast, brute, "center {center:?} radius {radius}");
            }
        }
    }

    #[test]
    fn zero_radius_hits_exact_point_only() {
        let g = grid();
        let hits = g.query_radius(&Point::new(50.0, 50.0), 0.0);
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn negative_radius_is_empty() {
        let g = grid();
        assert!(g.query_radius(&Point::new(50.0, 50.0), -1.0).is_empty());
    }

    #[test]
    fn nearest_finds_closest() {
        let g = grid();
        let (i, d) = g.nearest(&Point::new(14.0, 5.0)).unwrap();
        assert_eq!(i, 1);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nearest_far_outside_bounds() {
        let g = grid();
        let (i, _) = g.nearest(&Point::new(-500.0, -500.0)).unwrap();
        assert_eq!(i, 0); // (5, 5) is closest to the far corner
    }

    #[test]
    fn empty_grid_nearest_is_none() {
        let g = SpatialGrid::build(Aabb::from_extent(10.0, 10.0), 1.0, &[]);
        assert!(g.nearest(&Point::ORIGIN).is_none());
        assert!(g.is_empty());
    }

    #[test]
    fn points_outside_bounds_still_indexed() {
        let pts = vec![Point::new(-5.0, -5.0), Point::new(200.0, 200.0)];
        let g = SpatialGrid::build(Aabb::from_extent(100.0, 100.0), 10.0, &pts);
        let hits = g.query_radius(&Point::new(-5.0, -5.0), 1.0);
        assert_eq!(hits, vec![0]);
        let hits = g.query_radius(&Point::new(200.0, 200.0), 1.0);
        assert_eq!(hits, vec![1]);
    }
}
