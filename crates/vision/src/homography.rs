//! Planar homography estimation and application.
//!
//! Both detectors unwarp candidate quadrilaterals into a canonical square
//! before sampling marker bits; the unwarp is a 3x3 planar homography
//! estimated from the four point correspondences (the classic DLT
//! formulation solved with Gaussian elimination).

use mls_geom::Vec2;

use crate::VisionError;

/// A 3x3 planar homography mapping source points to destination points in
/// homogeneous coordinates.
///
/// # Examples
///
/// ```
/// use mls_geom::Vec2;
/// use mls_vision::Homography;
///
/// // Map the unit square onto a shifted, scaled square.
/// let src = [Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0), Vec2::new(1.0, 1.0), Vec2::new(0.0, 1.0)];
/// let dst = [Vec2::new(10.0, 10.0), Vec2::new(14.0, 10.0), Vec2::new(14.0, 14.0), Vec2::new(10.0, 14.0)];
/// let h = Homography::from_correspondences(&src, &dst)?;
/// let mapped = h.apply(Vec2::new(0.5, 0.5));
/// assert!((mapped - Vec2::new(12.0, 12.0)).norm() < 1e-9);
/// # Ok::<(), mls_vision::VisionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Homography {
    // Row-major 3x3 matrix with h[2][2] normalised to 1.
    m: [[f64; 3]; 3],
}

impl Homography {
    /// The identity homography.
    pub fn identity() -> Self {
        Self {
            m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Estimates the homography mapping each `src[i]` to `dst[i]` from four
    /// point correspondences (direct linear transform).
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::DegenerateGeometry`] when the correspondences
    /// are degenerate (three collinear points, coincident points, ...).
    pub fn from_correspondences(src: &[Vec2; 4], dst: &[Vec2; 4]) -> Result<Self, VisionError> {
        // Build the 8x8 linear system A * h = b for the 8 unknowns of H
        // (h33 fixed at 1).
        let mut a = [[0.0f64; 9]; 8];
        for i in 0..4 {
            let (x, y) = (src[i].x, src[i].y);
            let (u, v) = (dst[i].x, dst[i].y);
            a[2 * i] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y, u];
            a[2 * i + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y, v];
        }
        let h = solve_8x8(&mut a).ok_or(VisionError::DegenerateGeometry)?;
        let m = [[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]];
        if m.iter().flatten().any(|v| !v.is_finite()) {
            return Err(VisionError::DegenerateGeometry);
        }
        Ok(Self { m })
    }

    /// Applies the homography to a point.
    #[inline]
    pub fn apply(&self, p: Vec2) -> Vec2 {
        self.project(self.column_terms(p.x), self.row_terms(p.y))
    }

    /// Maps every point of the grid `us × vs`, row by row: point
    /// `(us[i], vs[j])` lands at index `j * us.len() + i`, bit for bit equal
    /// to [`Homography::apply`] on it.
    ///
    /// The grid is separable, so each column term is computed once per `u`
    /// and each row term once per `v`; only the sums and the divisions are
    /// per point.
    pub(crate) fn apply_grid(&self, us: &[f64], vs: &[f64]) -> Vec<Vec2> {
        let columns: Vec<[f64; 3]> = us.iter().map(|&u| self.column_terms(u)).collect();
        let mut points = Vec::with_capacity(us.len() * vs.len());
        for &v in vs {
            let row = self.row_terms(v);
            points.extend(columns.iter().map(|&column| self.project(column, row)));
        }
        points
    }

    /// The `u` part `m[r][0] * u` of each homogeneous coordinate `r`.
    #[inline]
    fn column_terms(&self, u: f64) -> [f64; 3] {
        [self.m[0][0] * u, self.m[1][0] * u, self.m[2][0] * u]
    }

    /// The `v` part `m[r][1] * v` of each homogeneous coordinate `r`.
    #[inline]
    fn row_terms(&self, v: f64) -> [f64; 3] {
        [self.m[0][1] * v, self.m[1][1] * v, self.m[2][1] * v]
    }

    /// The image of a point from its column and row terms: each homogeneous
    /// coordinate is `(m[r][0] * u + m[r][1] * v) + m[r][2]`, added left to
    /// right, then divided by `w`; infinite where `|w| < 1e-15`.
    #[inline]
    fn project(&self, column: [f64; 3], row: [f64; 3]) -> Vec2 {
        let [x, y, w] = std::array::from_fn(|r| column[r] + row[r] + self.m[r][2]);
        let degenerate = w.abs() < 1e-15;
        let (x, y) = (x / w, y / w);
        Vec2::new(
            if degenerate { f64::INFINITY } else { x },
            if degenerate { f64::INFINITY } else { y },
        )
    }

    /// The underlying row-major 3x3 matrix.
    pub fn matrix(&self) -> [[f64; 3]; 3] {
        self.m
    }
}

/// Solves the 8-unknown DLT system with partial-pivot Gaussian elimination.
/// `a` holds the augmented 8x9 system. Returns `None` for singular systems.
#[allow(clippy::needless_range_loop)] // textbook Gaussian elimination indexing
fn solve_8x8(a: &mut [[f64; 9]; 8]) -> Option<[f64; 8]> {
    const N: usize = 8;
    for col in 0..N {
        // Partial pivoting.
        let mut pivot_row = col;
        let mut pivot_val = a[col][col].abs();
        for row in (col + 1)..N {
            if a[row][col].abs() > pivot_val {
                pivot_val = a[row][col].abs();
                pivot_row = row;
            }
        }
        if pivot_val < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        // Eliminate below.
        for row in (col + 1)..N {
            let factor = a[row][col] / a[col][col];
            for k in col..=N {
                a[row][k] -= factor * a[col][k];
            }
        }
    }
    // Back substitution.
    let mut x = [0.0f64; N];
    for row in (0..N).rev() {
        let mut sum = a[row][N];
        for k in (row + 1)..N {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> [Vec2; 4] {
        [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ]
    }

    /// `apply` before the column and row terms were split out.
    fn reference_apply(h: &Homography, p: Vec2) -> Vec2 {
        let m = &h.m;
        let w = m[2][0] * p.x + m[2][1] * p.y + m[2][2];
        let x = m[0][0] * p.x + m[0][1] * p.y + m[0][2];
        let y = m[1][0] * p.x + m[1][1] * p.y + m[1][2];
        if w.abs() < 1e-15 {
            Vec2::new(f64::INFINITY, f64::INFINITY)
        } else {
            Vec2::new(x / w, y / w)
        }
    }

    fn bits(p: Vec2) -> (u64, u64) {
        (p.x.to_bits(), p.y.to_bits())
    }

    #[test]
    fn grid_and_apply_match_the_reference_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(16);
        let mut homographies = Vec::new();
        // Quads fitted the way the detectors fit them: canonical 6x6 marker
        // coordinates onto jittered, skewed image quads.
        let canonical = [
            Vec2::new(0.0, 0.0),
            Vec2::new(6.0, 0.0),
            Vec2::new(6.0, 6.0),
            Vec2::new(0.0, 6.0),
        ];
        while homographies.len() < 40 {
            let c = Vec2::new(rng.random_range(0.0..160.0), rng.random_range(0.0..120.0));
            let s = rng.random_range(3.0..60.0);
            let dst = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)].map(|(dx, dy)| {
                c + Vec2::new(
                    dx * s + rng.random_range(-0.4..0.4) * s,
                    dy * s + rng.random_range(-0.4..0.4) * s,
                )
            });
            if let Ok(h) = Homography::from_correspondences(&canonical, &dst) {
                homographies.push(h);
            }
        }
        // Near-degenerate ones: the horizon `w = 0` crosses the grid, exactly
        // at a sample and within 1e-15 of one, and a nearly collinear quad.
        let horizon = |m20: f64, m22: f64| Homography {
            m: [[3.0, 0.5, 10.0], [-0.5, 2.0, 7.0], [m20, 1e-3, m22]],
        };
        homographies.push(horizon(1.0, -2.625));
        homographies.push(horizon(1.0, -2.625 + 4e-16));
        homographies.push(horizon(-0.4, 1.0));
        homographies.push(horizon(1e-300, -1e-300));
        homographies.push(Homography { m: [[0.0; 3]; 3] });
        let collinear = [
            Vec2::new(10.0, 10.0),
            Vec2::new(40.0, 10.0 + 1e-6),
            Vec2::new(70.0, 10.0 + 3e-6),
            Vec2::new(40.0, 10.0 + 5e-5),
        ];
        homographies.extend(Homography::from_correspondences(&canonical, &collinear));

        let coords: Vec<f64> = (0..6)
            .flat_map(|c| (0..4).map(move |s| c as f64 + (s as f64 + 0.5) / 4.0))
            .chain([0.0, -0.0, 6.0, -3.5, 1e12])
            .collect();
        let mut degenerate = 0;
        for h in &homographies {
            let grid = h.apply_grid(&coords, &coords);
            assert_eq!(grid.len(), coords.len() * coords.len());
            for (j, &v) in coords.iter().enumerate() {
                for (i, &u) in coords.iter().enumerate() {
                    let want = reference_apply(h, Vec2::new(u, v));
                    let got = grid[j * coords.len() + i];
                    assert_eq!(bits(got), bits(want), "grid ({u}, {v}) under {h:?}");
                    assert_eq!(bits(h.apply(Vec2::new(u, v))), bits(want));
                    degenerate += usize::from(want.x == f64::INFINITY);
                }
            }
        }
        assert!(degenerate > 0, "no sample hit the w = 0 branch");
    }

    #[test]
    fn identity_maps_points_unchanged() {
        let h = Homography::identity();
        let p = Vec2::new(3.3, -1.2);
        assert!((h.apply(p) - p).norm() < 1e-12);
    }

    #[test]
    fn affine_mapping_is_recovered() {
        let src = unit_square();
        let dst = [
            Vec2::new(5.0, 5.0),
            Vec2::new(9.0, 5.0),
            Vec2::new(9.0, 9.0),
            Vec2::new(5.0, 9.0),
        ];
        let h = Homography::from_correspondences(&src, &dst).unwrap();
        for (s, d) in src.iter().zip(dst.iter()) {
            assert!((h.apply(*s) - *d).norm() < 1e-9);
        }
        // Interior point maps proportionally for this affine case.
        assert!((h.apply(Vec2::new(0.25, 0.75)) - Vec2::new(6.0, 8.0)).norm() < 1e-9);
    }

    #[test]
    fn perspective_mapping_is_recovered() {
        let src = unit_square();
        // A genuinely projective quad (trapezoid).
        let dst = [
            Vec2::new(10.0, 10.0),
            Vec2::new(30.0, 12.0),
            Vec2::new(26.0, 28.0),
            Vec2::new(12.0, 24.0),
        ];
        let h = Homography::from_correspondences(&src, &dst).unwrap();
        for (s, d) in src.iter().zip(dst.iter()) {
            assert!(
                (h.apply(*s) - *d).norm() < 1e-6,
                "corner {s:?} mapped to {:?}",
                h.apply(*s)
            );
        }
    }

    #[test]
    fn rotated_square_corners_map() {
        let src = unit_square();
        let c = Vec2::new(50.0, 40.0);
        let dst_vec: Vec<Vec2> = src
            .iter()
            .map(|p| c + (*p - Vec2::new(0.5, 0.5)).rotated(0.7) * 20.0)
            .collect();
        let dst = [dst_vec[0], dst_vec[1], dst_vec[2], dst_vec[3]];
        let h = Homography::from_correspondences(&src, &dst).unwrap();
        let center = h.apply(Vec2::new(0.5, 0.5));
        assert!((center - c).norm() < 1e-6);
    }

    #[test]
    fn degenerate_correspondences_fail() {
        let src = unit_square();
        // All destination points identical -> degenerate.
        let dst = [Vec2::new(1.0, 1.0); 4];
        assert!(Homography::from_correspondences(&src, &dst).is_err());
        // Three collinear destination points plus duplicate.
        let dst2 = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(1.0, 0.0),
        ];
        assert!(Homography::from_correspondences(&src, &dst2).is_err());
    }

    #[test]
    fn matrix_is_normalised() {
        let src = unit_square();
        let dst = [
            Vec2::new(2.0, 3.0),
            Vec2::new(7.0, 3.5),
            Vec2::new(6.5, 8.0),
            Vec2::new(2.5, 7.0),
        ];
        let h = Homography::from_correspondences(&src, &dst).unwrap();
        assert!((h.matrix()[2][2] - 1.0).abs() < 1e-12);
    }
}
