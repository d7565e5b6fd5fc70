//! Occupancy-mapping substrates.
//!
//! The paper's mapping module went through two generations:
//!
//! * **MLS-V2** keeps a *local* static voxel grid around the vehicle
//!   (EGO-Planner style). It is fast but only knows about space it has
//!   recently observed, and it forgets everything that scrolls out of the
//!   window — which is how V2 ends up planning "through at-the-time unseen
//!   obstacles". Implemented by [`VoxelGridMap`].
//! * **MLS-V3** switches to a *global* probabilistic octree (OctoMap style):
//!   log-odds occupancy, ray-carving of free space, hierarchical pruning, and
//!   far lower memory for large mostly-empty worlds. Implemented by
//!   [`OctreeMap`].
//!
//! Both implement [`OccupancyQuery`], the interface the planners consume,
//! including inflation-aware queries ([`OccupancyQuery::occupied_within`])
//! that reproduce the Fig. 6 "inflated bounding box" behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use mls_geom::Vec3;
use serde::{Deserialize, Serialize};

mod grid;
mod octree;
mod raycast;

pub use grid::{VoxelGridConfig, VoxelGridMap};
pub use octree::{OctreeConfig, OctreeMap};
pub use raycast::voxel_traversal;

/// Errors produced by the mapping crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MappingError {
    /// A map parameter was out of range.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::InvalidConfig { reason } => {
                write!(f, "invalid map configuration: {reason}")
            }
        }
    }
}

impl Error for MappingError {}

/// The range `lo..=hi` of cell indices along one axis that hold a point
/// whose offset from the map's minimum corner lies in `[rel_min, rel_max]`,
/// clipped to the `cells` cells of the axis, or `None` when no cell does.
/// It mirrors how both maps index a point: a negative offset is outside the
/// map and the index is `(offset / resolution) as u64`, which is monotone in
/// the offset, so every point of the range lands in a cell of the span.
fn cell_span(rel_min: f64, rel_max: f64, resolution: f64, cells: u64) -> Option<(u64, u64)> {
    if rel_max < 0.0 {
        return None;
    }
    let lo = if rel_min < 0.0 {
        0
    } else {
        (rel_min / resolution) as u64
    };
    let hi = ((rel_max / resolution) as u64).min(cells - 1);
    (lo <= hi).then_some((lo, hi))
}

/// Occupancy state of a queried point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellState {
    /// Observed and occupied.
    Occupied,
    /// Observed and free.
    Free,
    /// Never observed (or outside the map).
    Unknown,
}

/// The query interface planners and safety checks use, shared by the grid
/// and octree maps.
pub trait OccupancyQuery: Send + Sync {
    /// Edge length of the smallest map cell, metres.
    fn resolution(&self) -> f64;

    /// Occupancy state of the cell containing `point`.
    fn state_at(&self, point: Vec3) -> CellState;

    /// Approximate memory consumed by the map storage, bytes.
    fn memory_bytes(&self) -> usize;

    /// The box test: `false` only when no point `p` with
    /// `min <= p <= max` (per axis) reads [`CellState::Occupied`] through
    /// [`OccupancyQuery::state_at`].
    ///
    /// The test is conservative: `true` means "maybe", and a map may answer
    /// it for any box. A `false` must be exact, because
    /// [`OccupancyQuery::occupied_within`] returns `false` on it without
    /// probing. The default answers "maybe" for every box, which keeps a map
    /// that implements only `state_at` exactly as it was.
    fn may_hold_occupied(&self, min: Vec3, max: Vec3) -> bool {
        let _ = (min, max);
        true
    }

    /// `true` when any cell within `radius` of `point` is occupied — the
    /// inflation primitive. `treat_unknown_as_occupied` selects the
    /// conservative behaviour used during the landing descent.
    ///
    /// For radii up to ~2.5 map cells (the planners' hot path) a fixed
    /// 15-direction probe pattern is used — the centre, the six axis
    /// directions at `radius`, and the eight cube diagonals — which is an
    /// adequate and much cheaper approximation of true inflation when the
    /// cells are comparable in size to the vehicle. Larger radii (descent
    /// corridors, Fig. 6 sweeps) fall back to an exhaustive lattice so thin
    /// obstacles cannot slip between probes.
    ///
    /// When unknown space reads as free, the box test
    /// ([`OccupancyQuery::may_hold_occupied`]) is asked first about the
    /// cube that holds every probe, padded by one lattice step (at least
    /// one map cell) so the rounding of `point + offset` cannot leave it.
    /// A "no" there answers `false`, the result the probes would give; a
    /// "maybe" runs the probes. Callers that ask about the same point
    /// repeatedly (the A* lattice) should remember the answer: A* asks once
    /// per lattice node per query.
    fn occupied_within(&self, point: Vec3, radius: f64, treat_unknown_as_occupied: bool) -> bool {
        let r = radius.max(0.0);
        let step = self.resolution().max(0.05);
        // A point that is not finite has no box; its probes decide.
        if !treat_unknown_as_occupied && point.is_finite() {
            let reach = Vec3::splat(r + step);
            if !self.may_hold_occupied(point - reach, point + reach) {
                return false;
            }
        }
        let check = |p: Vec3| match self.state_at(p) {
            CellState::Occupied => true,
            CellState::Unknown => treat_unknown_as_occupied,
            CellState::Free => false,
        };
        if r <= 2.5 * self.resolution() {
            let d = r / 3.0f64.sqrt();
            let offsets = [
                Vec3::ZERO,
                Vec3::new(r, 0.0, 0.0),
                Vec3::new(-r, 0.0, 0.0),
                Vec3::new(0.0, r, 0.0),
                Vec3::new(0.0, -r, 0.0),
                Vec3::new(0.0, 0.0, r),
                Vec3::new(0.0, 0.0, -r),
                Vec3::new(d, d, d),
                Vec3::new(d, d, -d),
                Vec3::new(d, -d, d),
                Vec3::new(d, -d, -d),
                Vec3::new(-d, d, d),
                Vec3::new(-d, d, -d),
                Vec3::new(-d, -d, d),
                Vec3::new(-d, -d, -d),
            ];
            return offsets.iter().any(|offset| check(point + *offset));
        }
        let n = (r / step).ceil() as i32;
        for dz in -n..=n {
            for dy in -n..=n {
                for dx in -n..=n {
                    let offset = Vec3::new(dx as f64 * step, dy as f64 * step, dz as f64 * step);
                    if offset.norm() > r + 1e-9 {
                        continue;
                    }
                    if check(point + offset) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// `true` when the straight segment from `a` to `b`, inflated by
    /// `radius`, touches occupied space.
    fn segment_blocked(
        &self,
        a: Vec3,
        b: Vec3,
        radius: f64,
        treat_unknown_as_occupied: bool,
    ) -> bool {
        let length = a.distance(b);
        let step = self.resolution().max(0.1);
        let samples = (length / step).ceil().max(1.0) as usize;
        for i in 0..=samples {
            let t = i as f64 / samples as f64;
            if self.occupied_within(a.lerp(b, t), radius, treat_unknown_as_occupied) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct HalfSpace;

    impl OccupancyQuery for HalfSpace {
        fn resolution(&self) -> f64 {
            0.25
        }
        fn state_at(&self, point: Vec3) -> CellState {
            if point.x > 5.0 {
                CellState::Occupied
            } else if point.x > 4.0 {
                CellState::Unknown
            } else {
                CellState::Free
            }
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_inflation_detects_nearby_occupancy() {
        let map = HalfSpace;
        assert!(!map.occupied_within(Vec3::new(0.0, 0.0, 0.0), 1.0, false));
        assert!(map.occupied_within(Vec3::new(4.6, 0.0, 0.0), 1.0, false));
        // Unknown treated as occupied only when asked.
        assert!(!map.occupied_within(Vec3::new(3.5, 0.0, 0.0), 1.0, false));
        assert!(map.occupied_within(Vec3::new(3.5, 0.0, 0.0), 1.0, true));
    }

    #[test]
    fn default_segment_check_detects_crossing() {
        let map = HalfSpace;
        assert!(map.segment_blocked(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(8.0, 0.0, 0.0),
            0.3,
            false
        ));
        assert!(!map.segment_blocked(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
            0.3,
            false
        ));
    }

    /// Forwards only `resolution` and `state_at`, so it keeps the default
    /// "maybe" box test: `occupied_within` on it always runs the probes.
    /// It is the reference the maps' own box tests are checked against.
    struct ProbesOnly<'a>(&'a dyn OccupancyQuery);

    impl OccupancyQuery for ProbesOnly<'_> {
        fn resolution(&self) -> f64 {
            self.0.resolution()
        }
        fn state_at(&self, point: Vec3) -> CellState {
            self.0.state_at(point)
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    fn random_point(rng: &mut StdRng, lo: Vec3, hi: Vec3) -> Vec3 {
        Vec3::new(
            rng.random_range(lo.x..hi.x),
            rng.random_range(lo.y..hi.y),
            rng.random_range(lo.z..hi.z),
        )
    }

    /// Resolution of the randomised maps, metres.
    const RES: f64 = 0.4;

    /// Random depth clouds from random origins, every cloud inserted
    /// `repeats` times (the octree needs two hits to read occupied).
    fn insert_random_clouds(
        rng: &mut StdRng,
        repeats: usize,
        mut insert: impl FnMut(Vec3, &[Vec3]),
    ) {
        for _ in 0..6 {
            let origin = random_point(rng, Vec3::new(-4.0, -4.0, 1.0), Vec3::new(4.0, 4.0, 4.0));
            let points: Vec<Vec3> = (0..40)
                .map(|_| random_point(rng, Vec3::new(-8.0, -8.0, -0.5), Vec3::new(8.0, 8.0, 6.0)))
                .collect();
            for _ in 0..repeats {
                insert(origin, &points);
            }
        }
    }

    /// A window moved off the world origin, then filled from random clouds
    /// and a few marked cells.
    fn random_grid(rng: &mut StdRng) -> VoxelGridMap {
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            resolution: RES,
            half_extent_xy: 6.0,
            height: 5.0,
            carve_free_space: true,
            max_range: 30.0,
        })
        .unwrap();
        grid.recenter(Vec3::new(
            rng.random_range(-2.0..2.0),
            rng.random_range(-2.0..2.0),
            0.0,
        ));
        insert_random_clouds(rng, 1, |origin, points| grid.insert_cloud(origin, points));
        for _ in 0..4 {
            grid.mark_occupied(random_point(
                rng,
                Vec3::new(-6.0, -6.0, 0.0),
                Vec3::new(6.0, 6.0, 5.0),
            ));
        }
        grid
    }

    /// An octree filled from random clouds (hits, misses and pruned free
    /// space), with one saturated 2×2×2 block that prunes to a childless
    /// occupied node.
    fn random_octree(rng: &mut StdRng) -> OctreeMap {
        let mut tree = OctreeMap::new(OctreeConfig {
            resolution: RES,
            half_extent: 6.0,
            ..OctreeConfig::default()
        })
        .unwrap();
        insert_random_clouds(rng, 2, |origin, points| tree.insert_cloud(origin, points));
        let corner = Vec3::new(
            -6.0 + 2.0 * RES * rng.random_range(0..14) as f64,
            -6.0 + 2.0 * RES * rng.random_range(0..14) as f64,
            2.0 * RES * rng.random_range(0..5) as f64,
        );
        for k in 0..8 {
            let offset = Vec3::new((k & 1) as f64, ((k >> 1) & 1) as f64, (k >> 2) as f64);
            tree.mark_occupied(corner + (offset + Vec3::splat(0.5)) * RES);
        }
        tree
    }

    /// Random points over and around the maps, points on cell faces, and
    /// points on and beside the grid window's and the octree volume's
    /// edges (`edges` per axis: x, y, z).
    fn probe_points(rng: &mut StdRng, edges: [[f64; 2]; 3]) -> Vec<Vec3> {
        let mut points: Vec<Vec3> = (0..250)
            .map(|_| random_point(rng, Vec3::new(-9.0, -9.0, -1.5), Vec3::new(9.0, 9.0, 7.0)))
            .collect();
        // Points with no box: their probes decide.
        points.push(Vec3::new(f64::NAN, 1.0, 2.0));
        points.push(Vec3::new(1.0, f64::INFINITY, 2.0));
        for _ in 0..60 {
            let mut cell = |lo: f64, hi: f64| (rng.random_range(lo..hi) / RES).round() * RES;
            points.push(Vec3::new(cell(-7.0, 7.0), cell(-7.0, 7.0), cell(0.0, 5.0)));
        }
        for (axis, bounds) in edges.iter().enumerate() {
            for &edge in bounds {
                for delta in [-RES, -1e-9, 0.0, 1e-9, RES] {
                    let mut p =
                        random_point(rng, Vec3::new(-5.0, -5.0, 0.5), Vec3::new(5.0, 5.0, 4.5));
                    match axis {
                        0 => p.x = edge + delta,
                        1 => p.y = edge + delta,
                        _ => p.z = edge + delta,
                    }
                    points.push(p);
                }
            }
        }
        points
    }

    /// Asserts `occupied_within` on `map` equals the probes-only reference
    /// for every point, on both branches and in both unknown modes, and
    /// returns how many answers were `true` and `false`.
    fn assert_matches_reference(
        map: &dyn OccupancyQuery,
        points: &[Vec3],
        rng: &mut StdRng,
    ) -> [usize; 2] {
        let reference = ProbesOnly(map);
        let mut answers = [0, 0];
        for &point in points {
            // Both sides of the 2.5-cell branch switch, and a random radius.
            for radius in [
                0.0,
                0.4,
                0.9,
                1.0,
                1.01,
                1.2,
                2.0,
                2.8,
                rng.random_range(0.0..3.0),
            ] {
                for treat_unknown in [false, true] {
                    let fast = map.occupied_within(point, radius, treat_unknown);
                    assert_eq!(
                        fast,
                        reference.occupied_within(point, radius, treat_unknown),
                        "point {point:?} radius {radius} treat_unknown {treat_unknown}"
                    );
                    answers[usize::from(fast)] += 1;
                }
            }
        }
        answers
    }

    #[test]
    fn box_test_keeps_the_grid_inflation_answers_exact() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let grid = random_grid(&mut rng);
            let origin = grid.center() - Vec3::new(6.0, 6.0, 0.0);
            // 31 x 31 x 14 cells of 0.4 m from the window's minimum corner.
            let edges = [
                [origin.x, origin.x + 31.0 * RES],
                [origin.y, origin.y + 31.0 * RES],
                [0.0, 14.0 * RES],
            ];
            let points = probe_points(&mut rng, edges);
            let [no, yes] = assert_matches_reference(&grid, &points, &mut rng);
            assert!(no > 0 && yes > 0, "seed {seed}: {no} false / {yes} true");
        }
    }

    #[test]
    fn box_test_keeps_the_octree_inflation_answers_exact() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let tree = random_octree(&mut rng);
            // 2^5 leaves of 0.4 m from the volume's minimum corner.
            let far = 32.0 * RES;
            let edges = [[-6.0, -6.0 + far], [-6.0, -6.0 + far], [0.0, far]];
            let points = probe_points(&mut rng, edges);
            let [no, yes] = assert_matches_reference(&tree, &points, &mut rng);
            assert!(no > 0 && yes > 0, "seed {seed}: {no} false / {yes} true");
        }
    }

    #[test]
    fn box_test_answers_no_only_for_boxes_without_occupied_cells() {
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            resolution: RES,
            half_extent_xy: 6.0,
            height: 5.0,
            carve_free_space: false,
            max_range: 30.0,
        })
        .unwrap();
        let mut tree = OctreeMap::new(OctreeConfig {
            resolution: RES,
            half_extent: 6.0,
            ..OctreeConfig::default()
        })
        .unwrap();
        // The cell [2.0, 2.4) x [0.0, 0.4) x [1.2, 1.6) in both maps.
        let cell = Vec3::new(2.2, 0.2, 1.4);
        grid.mark_occupied(cell);
        tree.mark_occupied(cell);
        let maps: [&dyn OccupancyQuery; 2] = [&grid, &tree];
        for map in maps {
            assert_eq!(map.state_at(cell), CellState::Occupied);
            let at = |x: f64| Vec3::new(x, 0.2, 1.4);
            assert!(map.may_hold_occupied(at(0.0), at(3.0)));
            assert!(map.may_hold_occupied(cell, cell));
            // A box ending just short of the cell's face, and one touching it.
            assert!(!map.may_hold_occupied(at(0.0), at(1.999)));
            assert!(map.may_hold_occupied(at(0.0), at(2.0 + 1e-9)));
            assert!(!map.may_hold_occupied(at(2.5), at(4.0)));
            // Below the ground and far outside the mapped volume.
            let below = Vec3::new(2.2, 0.2, -1.0);
            assert!(!map.may_hold_occupied(below - Vec3::splat(0.3), below));
            let outside = Vec3::new(50.0, 50.0, 1.0);
            assert!(!map.may_hold_occupied(outside, outside + Vec3::splat(10.0)));
        }
        // Maps that implement only `state_at` answer "maybe" everywhere.
        assert!(HalfSpace.may_hold_occupied(Vec3::ZERO, Vec3::ZERO));
    }

    #[test]
    fn errors_display() {
        let e = MappingError::InvalidConfig {
            reason: "resolution".to_string(),
        };
        assert!(e.to_string().contains("resolution"));
    }
}
