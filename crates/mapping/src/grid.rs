//! Local static voxel-grid map (EGO-Planner style), used by MLS-V2.
//!
//! A dense three-dimensional array of occupancy states centred on the
//! vehicle. Access is O(1), but the window is local: whatever scrolls out of
//! it is forgotten, and space that was never observed stays `Unknown` — both
//! properties behind the V2 failure modes the paper documents.

use mls_geom::Vec3;
use serde::{Deserialize, Serialize};

use crate::raycast::voxel_traversal;
use crate::{cell_span, CellState, MappingError, OccupancyQuery};

/// Configuration of the local voxel grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoxelGridConfig {
    /// Cell edge length, metres.
    pub resolution: f64,
    /// Horizontal half-extent of the window around its centre, metres.
    pub half_extent_xy: f64,
    /// Vertical extent of the window (from the ground up), metres.
    pub height: f64,
    /// Carve free space along each sensor ray (in addition to marking the
    /// endpoint occupied).
    pub carve_free_space: bool,
    /// Ignore returns farther than this from the sensor origin, metres.
    pub max_range: f64,
}

impl Default for VoxelGridConfig {
    fn default() -> Self {
        Self {
            resolution: 0.4,
            half_extent_xy: 20.0,
            height: 24.0,
            carve_free_space: true,
            max_range: 18.0,
        }
    }
}

/// Dense local occupancy grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoxelGridMap {
    config: VoxelGridConfig,
    nx: usize,
    ny: usize,
    nz: usize,
    /// World position of the window's minimum corner.
    origin: Vec3,
    /// 0 = unknown, 1 = free, 2 = occupied.
    cells: Vec<u8>,
}

const UNKNOWN: u8 = 0;
const FREE: u8 = 1;
const OCCUPIED: u8 = 2;

impl VoxelGridMap {
    /// Creates an all-unknown grid centred on the origin.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InvalidConfig`] for non-positive resolution or
    /// extents.
    pub fn new(config: VoxelGridConfig) -> Result<Self, MappingError> {
        if config.resolution <= 0.0 {
            return Err(MappingError::InvalidConfig {
                reason: "resolution must be positive".to_string(),
            });
        }
        if config.half_extent_xy <= 0.0 || config.height <= 0.0 {
            return Err(MappingError::InvalidConfig {
                reason: "window extents must be positive".to_string(),
            });
        }
        let nx = (2.0 * config.half_extent_xy / config.resolution).ceil() as usize + 1;
        let ny = nx;
        let nz = (config.height / config.resolution).ceil() as usize + 1;
        Ok(Self {
            nx,
            ny,
            nz,
            origin: Vec3::new(-config.half_extent_xy, -config.half_extent_xy, 0.0),
            cells: vec![UNKNOWN; nx * ny * nz],
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &VoxelGridConfig {
        &self.config
    }

    /// World position of the window centre.
    pub fn center(&self) -> Vec3 {
        self.origin + Vec3::new(self.config.half_extent_xy, self.config.half_extent_xy, 0.0)
    }

    /// Number of cells currently marked occupied.
    pub fn occupied_cells(&self) -> usize {
        self.cells.iter().filter(|&&c| c == OCCUPIED).count()
    }

    /// Number of cells observed (free or occupied).
    pub fn known_cells(&self) -> usize {
        self.cells.iter().filter(|&&c| c != UNKNOWN).count()
    }

    /// Moves the window so it is centred (horizontally) on `center`,
    /// preserving the cells that remain inside the window and forgetting the
    /// rest — the "local obstacle information" limitation of EGO-Planner the
    /// paper calls out.
    pub fn recenter(&mut self, center: Vec3) {
        let new_origin = Vec3::new(
            snap(
                center.x - self.config.half_extent_xy,
                self.config.resolution,
            ),
            snap(
                center.y - self.config.half_extent_xy,
                self.config.resolution,
            ),
            0.0,
        );
        if (new_origin - self.origin).norm() < self.config.resolution * 0.5 {
            return;
        }
        let mut new_cells = vec![UNKNOWN; self.cells.len()];
        let shift_x = ((new_origin.x - self.origin.x) / self.config.resolution).round() as i64;
        let shift_y = ((new_origin.y - self.origin.y) / self.config.resolution).round() as i64;
        for z in 0..self.nz {
            for y in 0..self.ny {
                for x in 0..self.nx {
                    let old_x = x as i64 + shift_x;
                    let old_y = y as i64 + shift_y;
                    if old_x < 0 || old_y < 0 || old_x >= self.nx as i64 || old_y >= self.ny as i64
                    {
                        continue;
                    }
                    let old_idx = (z * self.ny + old_y as usize) * self.nx + old_x as usize;
                    let new_idx = (z * self.ny + y) * self.nx + x;
                    new_cells[new_idx] = self.cells[old_idx];
                }
            }
        }
        self.cells = new_cells;
        self.origin = new_origin;
    }

    /// Inserts a point cloud captured from `origin`: endpoints become
    /// occupied, traversed cells (optionally) become free.
    pub fn insert_cloud(&mut self, origin: Vec3, points: &[Vec3]) {
        for &point in points {
            let distance = origin.distance(point);
            if distance > self.config.max_range {
                continue;
            }
            if self.config.carve_free_space {
                for cell in voxel_traversal(origin, point, self.config.resolution) {
                    let world = cell.center(self.config.resolution);
                    if let Some(idx) = self.index_of(world) {
                        if self.cells[idx] != OCCUPIED {
                            self.cells[idx] = FREE;
                        }
                    }
                }
            }
            if let Some(idx) = self.index_of(point) {
                self.cells[idx] = OCCUPIED;
            }
        }
    }

    /// Marks a single world point occupied (used by tests and failure
    /// injection).
    pub fn mark_occupied(&mut self, point: Vec3) {
        if let Some(idx) = self.index_of(point) {
            self.cells[idx] = OCCUPIED;
        }
    }

    fn index_of(&self, point: Vec3) -> Option<usize> {
        let rel = point - self.origin;
        if rel.x < 0.0 || rel.y < 0.0 || rel.z < 0.0 {
            return None;
        }
        let x = (rel.x / self.config.resolution) as usize;
        let y = (rel.y / self.config.resolution) as usize;
        let z = (rel.z / self.config.resolution) as usize;
        if x >= self.nx || y >= self.ny || z >= self.nz {
            return None;
        }
        Some((z * self.ny + y) * self.nx + x)
    }
}

/// Snaps a coordinate to the voxel lattice.
fn snap(value: f64, resolution: f64) -> f64 {
    (value / resolution).round() * resolution
}

impl OccupancyQuery for VoxelGridMap {
    fn resolution(&self) -> f64 {
        self.config.resolution
    }

    fn state_at(&self, point: Vec3) -> CellState {
        match self.index_of(point).map(|idx| self.cells[idx]) {
            Some(OCCUPIED) => CellState::Occupied,
            Some(FREE) => CellState::Free,
            _ => CellState::Unknown,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u8>()
    }

    /// Scans the dense bytes of every window cell the box reaches.
    fn may_hold_occupied(&self, min: Vec3, max: Vec3) -> bool {
        let res = self.config.resolution;
        // The same offsets `index_of` computes.
        let (rel_min, rel_max) = (min - self.origin, max - self.origin);
        let span = |lo: f64, hi: f64, n: usize| {
            cell_span(lo, hi, res, n as u64).map(|(a, b)| (a as usize, b as usize))
        };
        let (Some((x0, x1)), Some((y0, y1)), Some((z0, z1))) = (
            span(rel_min.x, rel_max.x, self.nx),
            span(rel_min.y, rel_max.y, self.ny),
            span(rel_min.z, rel_max.z, self.nz),
        ) else {
            return false;
        };
        (z0..=z1).any(|z| {
            (y0..=y1).any(|y| {
                let row = (z * self.ny + y) * self.nx;
                self.cells[row + x0..=row + x1].contains(&OCCUPIED)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> VoxelGridMap {
        VoxelGridMap::new(VoxelGridConfig {
            resolution: 0.5,
            half_extent_xy: 10.0,
            height: 10.0,
            carve_free_space: true,
            max_range: 20.0,
        })
        .unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = VoxelGridConfig {
            resolution: 0.0,
            ..VoxelGridConfig::default()
        };
        assert!(VoxelGridMap::new(cfg).is_err());
        let cfg = VoxelGridConfig {
            height: -1.0,
            ..VoxelGridConfig::default()
        };
        assert!(VoxelGridMap::new(cfg).is_err());
    }

    #[test]
    fn starts_unknown_everywhere() {
        let grid = small_grid();
        assert_eq!(grid.state_at(Vec3::new(0.0, 0.0, 2.0)), CellState::Unknown);
        assert_eq!(grid.known_cells(), 0);
    }

    #[test]
    fn insert_marks_endpoint_occupied_and_ray_free() {
        let mut grid = small_grid();
        let origin = Vec3::new(0.0, 0.0, 2.0);
        let hit = Vec3::new(5.0, 0.0, 2.0);
        grid.insert_cloud(origin, &[hit]);
        assert_eq!(grid.state_at(hit), CellState::Occupied);
        assert_eq!(grid.state_at(Vec3::new(2.5, 0.0, 2.0)), CellState::Free);
        assert_eq!(grid.state_at(Vec3::new(0.0, 3.0, 2.0)), CellState::Unknown);
        assert!(grid.occupied_cells() >= 1);
    }

    #[test]
    fn occupied_endpoint_is_not_overwritten_by_later_rays() {
        let mut grid = small_grid();
        let origin = Vec3::new(0.0, 0.0, 2.0);
        let wall = Vec3::new(4.0, 0.0, 2.0);
        grid.insert_cloud(origin, &[wall]);
        // A later ray passing through the same cell towards a farther point
        // must not erase the occupied mark.
        grid.insert_cloud(origin, &[Vec3::new(8.0, 0.05, 2.0)]);
        assert_eq!(grid.state_at(wall), CellState::Occupied);
    }

    #[test]
    fn points_beyond_max_range_are_ignored() {
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            max_range: 5.0,
            ..VoxelGridConfig::default()
        })
        .unwrap();
        grid.insert_cloud(Vec3::new(0.0, 0.0, 2.0), &[Vec3::new(10.0, 0.0, 2.0)]);
        assert_eq!(grid.known_cells(), 0);
    }

    #[test]
    fn recenter_preserves_overlap_and_forgets_the_rest() {
        let mut grid = small_grid();
        let origin = Vec3::new(0.0, 0.0, 2.0);
        // An obstacle close by and one near the trailing edge of the window.
        grid.insert_cloud(
            origin,
            &[Vec3::new(4.0, 0.0, 2.0), Vec3::new(-9.0, 0.0, 2.0)],
        );
        assert_eq!(
            grid.state_at(Vec3::new(-9.0, 0.0, 2.0)),
            CellState::Occupied
        );

        // Move the window 12 m forward: the obstacle behind falls outside and
        // is forgotten; the one ahead is preserved.
        grid.recenter(Vec3::new(12.0, 0.0, 2.0));
        assert_eq!(grid.state_at(Vec3::new(4.0, 0.0, 2.0)), CellState::Occupied);
        assert_eq!(grid.state_at(Vec3::new(-9.0, 0.0, 2.0)), CellState::Unknown);
    }

    #[test]
    fn recenter_is_a_noop_for_small_motion() {
        let mut grid = small_grid();
        grid.mark_occupied(Vec3::new(1.0, 1.0, 1.0));
        let before = grid.clone();
        grid.recenter(Vec3::new(0.1, 0.05, 3.0));
        assert_eq!(grid, before);
    }

    #[test]
    fn memory_is_the_dense_array_size() {
        let grid = small_grid();
        // 41 x 41 x 21 cells at 1 byte each.
        assert_eq!(grid.memory_bytes(), 41 * 41 * 21);
    }

    #[test]
    fn inflation_query_reports_nearby_obstacles() {
        let mut grid = small_grid();
        grid.mark_occupied(Vec3::new(3.0, 0.0, 2.0));
        assert!(grid.occupied_within(Vec3::new(2.2, 0.0, 2.0), 1.0, false));
        assert!(!grid.occupied_within(Vec3::new(0.0, 0.0, 2.0), 1.0, false));
    }
}
