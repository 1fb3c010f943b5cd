//! ASCII trajectory rendering and CSV export.
//!
//! Replaces the paper's Unity visualiser (Fig 11c) and the matplotlib
//! trajectory plots (Fig 2) with terminal-friendly output: PoIs are `.`
//! (drained: `*`), UAV tracks use letters `A..`, UGV tracks `a..`, and the
//! common start point is `S`.

use agsc_geo::{Aabb, Point};
use std::fmt::Write as _;

/// Render PoIs and UV trajectories onto a character grid.
///
/// `drained[i]` marks PoI `i` as fully collected. Later trajectories
/// overwrite earlier glyphs; the start cell always shows `S`.
pub fn render_ascii(
    bounds: &Aabb,
    pois: &[Point],
    drained: &[bool],
    uav_trajectories: &[Vec<Point>],
    ugv_trajectories: &[Vec<Point>],
    start: Point,
    (cols, rows): (usize, usize),
) -> String {
    assert!(cols >= 2 && rows >= 2, "grid too small to render");
    let mut grid = vec![vec![' '; cols]; rows];
    let to_cell = |p: &Point| -> (usize, usize) {
        let cx = ((p.x - bounds.min.x) / bounds.width() * (cols - 1) as f64)
            .round()
            .clamp(0.0, (cols - 1) as f64) as usize;
        // Screen y grows downward.
        let cy = ((1.0 - (p.y - bounds.min.y) / bounds.height()) * (rows - 1) as f64)
            .round()
            .clamp(0.0, (rows - 1) as f64) as usize;
        (cx, cy)
    };

    for (i, p) in pois.iter().enumerate() {
        let (x, y) = to_cell(p);
        grid[y][x] = if drained.get(i).copied().unwrap_or(false) { '*' } else { '.' };
    }
    for (k, traj) in uav_trajectories.iter().enumerate() {
        let glyph = (b'A' + (k % 26) as u8) as char;
        for p in traj {
            let (x, y) = to_cell(p);
            grid[y][x] = glyph;
        }
    }
    for (k, traj) in ugv_trajectories.iter().enumerate() {
        let glyph = (b'a' + (k % 26) as u8) as char;
        for p in traj {
            let (x, y) = to_cell(p);
            grid[y][x] = glyph;
        }
    }
    let (sx, sy) = to_cell(&start);
    grid[sy][sx] = 'S';

    let mut out = String::with_capacity((cols + 1) * rows);
    for row in &grid {
        for &c in row {
            out.push(c);
        }
        out.push('\n');
    }
    out
}

/// Export trajectories as CSV: `uv,kind,slot,x,y` rows with a header.
pub fn trajectories_csv(
    uav_trajectories: &[Vec<Point>],
    ugv_trajectories: &[Vec<Point>],
) -> String {
    let mut out = String::from("uv,kind,slot,x,y\n");
    for (k, traj) in uav_trajectories.iter().enumerate() {
        for (t, p) in traj.iter().enumerate() {
            let _ = writeln!(out, "{k},uav,{t},{:.2},{:.2}", p.x, p.y);
        }
    }
    for (k, traj) in ugv_trajectories.iter().enumerate() {
        for (t, p) in traj.iter().enumerate() {
            let _ = writeln!(out, "{},ugv,{t},{:.2},{:.2}", uav_trajectories.len() + k, p.x, p.y);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_expected_glyphs() {
        let bounds = Aabb::from_extent(100.0, 100.0);
        let pois = vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)];
        let drained = vec![false, true];
        let uav = vec![vec![Point::new(50.0, 50.0)]];
        let ugv = vec![vec![Point::new(30.0, 30.0)]];
        let s = render_ascii(&bounds, &pois, &drained, &uav, &ugv, Point::new(0.0, 0.0), (20, 10));
        assert!(s.contains('A'), "UAV glyph missing");
        assert!(s.contains('a'), "UGV glyph missing");
        assert!(s.contains('.'), "live PoI glyph missing");
        assert!(s.contains('*'), "drained PoI glyph missing");
        assert!(s.contains('S'), "start glyph missing");
        assert_eq!(s.lines().count(), 10);
        assert!(s.lines().all(|l| l.chars().count() == 20));
    }

    #[test]
    fn y_axis_points_up() {
        let bounds = Aabb::from_extent(100.0, 100.0);
        let pois = vec![Point::new(50.0, 95.0)];
        let s = render_ascii(&bounds, &pois, &[false], &[], &[], Point::new(50.0, 5.0), (11, 11));
        let lines: Vec<&str> = s.lines().collect();
        // High-y PoI renders near the top, low-y start near the bottom.
        assert!(lines[0].contains('.') || lines[1].contains('.'));
        assert!(lines[10].contains('S') || lines[9].contains('S'));
    }

    #[test]
    fn csv_layout() {
        let uav = vec![vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]];
        let ugv = vec![vec![Point::new(5.0, 6.0)]];
        let csv = trajectories_csv(&uav, &ugv);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "uv,kind,slot,x,y");
        assert_eq!(lines[1], "0,uav,0,1.00,2.00");
        assert_eq!(lines[2], "0,uav,1,3.00,4.00");
        assert_eq!(lines[3], "1,ugv,0,5.00,6.00");
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn rejects_degenerate_grid() {
        let bounds = Aabb::from_extent(10.0, 10.0);
        render_ascii(&bounds, &[], &[], &[], &[], Point::ORIGIN, (1, 1));
    }
}
