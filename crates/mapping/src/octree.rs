//! Global probabilistic octree map (OctoMap style), used by MLS-V3.
//!
//! Log-odds occupancy over a hierarchically subdivided cube: sensor returns
//! raise the log-odds of the endpoint cell, traversed cells are lowered
//! (free-space carving), values are clamped, and fully-agreeing sibling
//! leaves are pruned back into their parent so large uniform regions cost a
//! single node. Unlike the V2 grid the octree covers the whole mission area
//! and never forgets what it has seen.

use mls_geom::Vec3;
use serde::{Deserialize, Serialize};

use crate::raycast::voxel_traversal;
use crate::{cell_span, CellState, MappingError, OccupancyQuery};

/// Configuration of the octree map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OctreeConfig {
    /// Leaf cell edge length, metres.
    pub resolution: f64,
    /// Half-extent of the cubic mapped volume, metres (the cube is centred on
    /// the origin horizontally and starts at z = 0).
    pub half_extent: f64,
    /// Log-odds added for a hit (endpoint).
    pub hit_log_odds: f64,
    /// Log-odds added for a miss (traversed cell).
    pub miss_log_odds: f64,
    /// Log-odds above which a cell is considered occupied.
    pub occupied_threshold: f64,
    /// Log-odds below which a cell is considered free.
    pub free_threshold: f64,
    /// Log-odds clamping bounds (OctoMap's clamping update).
    pub clamp: (f64, f64),
    /// Ignore returns farther than this from the sensor origin, metres.
    pub max_range: f64,
}

impl Default for OctreeConfig {
    fn default() -> Self {
        Self {
            resolution: 0.4,
            half_extent: 128.0,
            hit_log_odds: 0.85,
            miss_log_odds: -0.4,
            // Requires at least two agreeing hits before a cell reads as
            // occupied, so single spurious returns (pose-error artefacts,
            // rain dropouts) do not immediately poison the planning map.
            occupied_threshold: 1.2,
            free_threshold: -0.3,
            clamp: (-2.0, 3.5),
            max_range: 18.0,
        }
    }
}

/// One octree node in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Node {
    /// Child arena indices; 0 means "no child" (index 0 is the root, which is
    /// never a child of anything).
    children: [u32; 8],
    /// Accumulated log-odds.
    log_odds: f32,
    /// `true` once the node (or its collapsed subtree) has been observed.
    observed: bool,
}

impl Node {
    const EMPTY: Node = Node {
        children: [0; 8],
        log_odds: 0.0,
        observed: false,
    };

    fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c == 0)
    }
}

/// Probabilistic octree occupancy map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OctreeMap {
    config: OctreeConfig,
    depth: u32,
    /// Number of leaf cells along each axis (2^depth).
    cells_per_axis: u64,
    nodes: Vec<Node>,
    free_list: Vec<u32>,
    inserted_points: u64,
}

impl OctreeMap {
    /// Creates an empty octree.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InvalidConfig`] for non-positive resolution or
    /// extents, or if the implied depth exceeds 16.
    pub fn new(config: OctreeConfig) -> Result<Self, MappingError> {
        if config.resolution <= 0.0 || config.half_extent <= 0.0 {
            return Err(MappingError::InvalidConfig {
                reason: "resolution and half extent must be positive".to_string(),
            });
        }
        if config.hit_log_odds <= 0.0 || config.miss_log_odds >= 0.0 {
            return Err(MappingError::InvalidConfig {
                reason: "hit log-odds must be positive and miss log-odds negative".to_string(),
            });
        }
        let cells = (2.0 * config.half_extent / config.resolution).ceil();
        let depth = (cells.log2().ceil() as u32).max(1);
        if depth > 16 {
            return Err(MappingError::InvalidConfig {
                reason: format!("depth {depth} exceeds the supported maximum of 16"),
            });
        }
        Ok(Self {
            config,
            depth,
            cells_per_axis: 1u64 << depth,
            nodes: vec![Node::EMPTY],
            free_list: Vec::new(),
            inserted_points: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &OctreeConfig {
        &self.config
    }

    /// Tree depth (leaf level).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of live nodes in the arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free_list.len()
    }

    /// Total points inserted so far.
    pub fn inserted_points(&self) -> u64 {
        self.inserted_points
    }

    /// Inserts a point cloud captured from `origin`.
    pub fn insert_cloud(&mut self, origin: Vec3, points: &[Vec3]) {
        // Endpoint cells of this scan: like OctoMap's batch insert, a cell
        // that received a hit in the scan is exempt from the scan's own
        // free-space updates, so a ray grazing past one endpoint cannot erase
        // another endpoint observed a moment earlier.
        let endpoints: std::collections::HashSet<(u64, u64, u64)> = points
            .iter()
            .filter(|p| origin.distance(**p) <= self.config.max_range)
            .filter_map(|p| self.leaf_coordinates(*p))
            .collect();
        for &point in points {
            if origin.distance(point) > self.config.max_range {
                continue;
            }
            for cell in voxel_traversal(origin, point, self.config.resolution) {
                let world = cell.center(self.config.resolution);
                if self
                    .leaf_coordinates(world)
                    .is_some_and(|coords| endpoints.contains(&coords))
                {
                    continue;
                }
                self.update_cell(world, self.config.miss_log_odds);
            }
            self.update_cell(point, self.config.hit_log_odds);
            self.inserted_points += 1;
        }
    }

    /// Marks a single point occupied with one hit update (tests / injection).
    pub fn mark_occupied(&mut self, point: Vec3) {
        // Saturate immediately.
        let saturating = self.config.clamp.1;
        self.update_cell(point, saturating);
    }

    /// Applies a log-odds delta to the leaf containing `point`.
    fn update_cell(&mut self, point: Vec3, delta: f64) {
        let Some((mut ix, mut iy, mut iz)) = self.leaf_coordinates(point) else {
            return;
        };
        // Descend, creating children (and expanding collapsed nodes) as
        // needed, remembering the path for pruning on the way back.
        let mut path = Vec::with_capacity(self.depth as usize);
        let mut node_idx = 0u32;
        for level in (0..self.depth).rev() {
            let octant = (((ix >> level) & 1) << 2 | ((iy >> level) & 1) << 1 | ((iz >> level) & 1))
                as usize;
            path.push((node_idx, octant));
            let node = self.nodes[node_idx as usize];
            if node.is_leaf() && node.observed {
                // Expand a collapsed node: children inherit its value.
                for o in 0..8 {
                    let child = self.allocate(Node {
                        children: [0; 8],
                        log_odds: node.log_odds,
                        observed: true,
                    });
                    self.nodes[node_idx as usize].children[o] = child;
                }
            }
            let child_idx = self.nodes[node_idx as usize].children[octant];
            let child_idx = if child_idx == 0 {
                let child = self.allocate(Node::EMPTY);
                self.nodes[node_idx as usize].children[octant] = child;
                child
            } else {
                child_idx
            };
            node_idx = child_idx;
            // Strip the consumed bit so lower levels see local coordinates.
            ix &= (1 << level) - 1;
            iy &= (1 << level) - 1;
            iz &= (1 << level) - 1;
        }
        let (lo, hi) = self.config.clamp;
        let leaf = &mut self.nodes[node_idx as usize];
        leaf.log_odds = ((leaf.log_odds as f64 + delta).clamp(lo, hi)) as f32;
        leaf.observed = true;

        self.prune_path(&path);
    }

    /// Collapses saturated, agreeing sibling leaves into their parent, from
    /// the deepest level of `path` upwards.
    fn prune_path(&mut self, path: &[(u32, usize)]) {
        for &(parent_idx, _) in path.iter().rev() {
            let parent = self.nodes[parent_idx as usize];
            if parent.children.contains(&0) {
                return;
            }
            let mut state: Option<CellState> = None;
            let mut value = 0.0f32;
            for &child_idx in &parent.children {
                let child = self.nodes[child_idx as usize];
                if !child.is_leaf() || !child.observed {
                    return;
                }
                let child_state = self.classify(child.log_odds as f64, true);
                if child_state == CellState::Unknown {
                    return;
                }
                match state {
                    None => {
                        state = Some(child_state);
                        value = child.log_odds;
                    }
                    Some(s) if s == child_state => {
                        value = if s == CellState::Occupied {
                            value.max(child.log_odds)
                        } else {
                            value.min(child.log_odds)
                        };
                    }
                    _ => return,
                }
            }
            // Collapse.
            for &child_idx in &parent.children {
                self.free_list.push(child_idx);
            }
            let parent = &mut self.nodes[parent_idx as usize];
            parent.children = [0; 8];
            parent.log_odds = value;
            parent.observed = true;
        }
    }

    fn allocate(&mut self, node: Node) -> u32 {
        if let Some(idx) = self.free_list.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Integer leaf coordinates of a world point, or `None` outside the map.
    fn leaf_coordinates(&self, point: Vec3) -> Option<(u64, u64, u64)> {
        let h = self.config.half_extent;
        let res = self.config.resolution;
        let rel_x = point.x + h;
        let rel_y = point.y + h;
        let rel_z = point.z;
        if rel_x < 0.0 || rel_y < 0.0 || rel_z < 0.0 {
            return None;
        }
        let ix = (rel_x / res) as u64;
        let iy = (rel_y / res) as u64;
        let iz = (rel_z / res) as u64;
        if ix >= self.cells_per_axis || iy >= self.cells_per_axis || iz >= self.cells_per_axis {
            return None;
        }
        Some((ix, iy, iz))
    }

    /// `true` when the subtree of `node_idx`, covering the `size`-leaf cube
    /// at leaf coordinates `origin`, has a childless node classified
    /// occupied that overlaps the leaf box `lo..=hi`. Descends only into
    /// children that overlap the box, and reads a childless node exactly
    /// as [`OccupancyQuery::state_at`] does.
    fn subtree_may_hold_occupied(
        &self,
        node_idx: u32,
        origin: [u64; 3],
        size: u64,
        lo: [u64; 3],
        hi: [u64; 3],
    ) -> bool {
        let node = self.nodes[node_idx as usize];
        if size == 1 || node.is_leaf() {
            return self.classify(node.log_odds as f64, node.observed) == CellState::Occupied;
        }
        let half = size / 2;
        node.children
            .iter()
            .enumerate()
            .filter(|&(_, &child)| child != 0)
            .any(|(octant, &child)| {
                let bits = [(octant >> 2) & 1, (octant >> 1) & 1, octant & 1];
                let child_origin: [u64; 3] =
                    std::array::from_fn(|a| origin[a] + bits[a] as u64 * half);
                (0..3).all(|a| child_origin[a] <= hi[a] && lo[a] < child_origin[a] + half)
                    && self.subtree_may_hold_occupied(child, child_origin, half, lo, hi)
            })
    }

    fn classify(&self, log_odds: f64, observed: bool) -> CellState {
        if !observed {
            return CellState::Unknown;
        }
        if log_odds >= self.config.occupied_threshold {
            CellState::Occupied
        } else if log_odds <= self.config.free_threshold {
            CellState::Free
        } else {
            CellState::Unknown
        }
    }
}

impl OccupancyQuery for OctreeMap {
    fn resolution(&self) -> f64 {
        self.config.resolution
    }

    fn state_at(&self, point: Vec3) -> CellState {
        let Some((mut ix, mut iy, mut iz)) = self.leaf_coordinates(point) else {
            return CellState::Unknown;
        };
        let mut node_idx = 0u32;
        for level in (0..self.depth).rev() {
            let node = self.nodes[node_idx as usize];
            if node.is_leaf() {
                return self.classify(node.log_odds as f64, node.observed);
            }
            let octant = (((ix >> level) & 1) << 2 | ((iy >> level) & 1) << 1 | ((iz >> level) & 1))
                as usize;
            let child = node.children[octant];
            if child == 0 {
                return CellState::Unknown;
            }
            node_idx = child;
            ix &= (1 << level) - 1;
            iy &= (1 << level) - 1;
            iz &= (1 << level) - 1;
        }
        let node = self.nodes[node_idx as usize];
        self.classify(node.log_odds as f64, node.observed)
    }

    fn memory_bytes(&self) -> usize {
        self.node_count() * std::mem::size_of::<Node>()
    }

    /// Descends only into the children that overlap the box.
    fn may_hold_occupied(&self, min: Vec3, max: Vec3) -> bool {
        let (h, res, n) = (
            self.config.half_extent,
            self.config.resolution,
            self.cells_per_axis,
        );
        // The same offsets `leaf_coordinates` computes.
        let (Some((x0, x1)), Some((y0, y1)), Some((z0, z1))) = (
            cell_span(min.x + h, max.x + h, res, n),
            cell_span(min.y + h, max.y + h, res, n),
            cell_span(min.z, max.z, res, n),
        ) else {
            return false;
        };
        self.subtree_may_hold_occupied(0, [0; 3], self.cells_per_axis, [x0, y0, z0], [x1, y1, z1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VoxelGridConfig, VoxelGridMap};

    fn small_octree() -> OctreeMap {
        OctreeMap::new(OctreeConfig {
            resolution: 0.5,
            half_extent: 32.0,
            ..OctreeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = OctreeConfig {
            resolution: 0.0,
            ..OctreeConfig::default()
        };
        assert!(OctreeMap::new(cfg).is_err());
        let cfg = OctreeConfig {
            miss_log_odds: 0.1,
            ..OctreeConfig::default()
        };
        assert!(OctreeMap::new(cfg).is_err());
        let cfg = OctreeConfig {
            resolution: 0.001,
            half_extent: 500.0,
            ..OctreeConfig::default()
        };
        assert!(OctreeMap::new(cfg).is_err(), "depth limit");
    }

    #[test]
    fn unknown_before_any_observation() {
        let tree = small_octree();
        assert_eq!(tree.state_at(Vec3::new(1.0, 1.0, 1.0)), CellState::Unknown);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn hits_become_occupied_and_rays_become_free() {
        let mut tree = small_octree();
        let origin = Vec3::new(0.0, 0.0, 2.0);
        let hit = Vec3::new(6.0, 0.0, 2.0);
        // Repeated observations saturate the endpoint.
        for _ in 0..3 {
            tree.insert_cloud(origin, &[hit]);
        }
        assert_eq!(tree.state_at(hit), CellState::Occupied);
        assert_eq!(tree.state_at(Vec3::new(3.0, 0.0, 2.0)), CellState::Free);
        assert_eq!(tree.state_at(Vec3::new(0.0, 5.0, 2.0)), CellState::Unknown);
        assert_eq!(tree.inserted_points(), 3);
    }

    #[test]
    fn conflicting_evidence_requires_more_hits_to_flip() {
        let mut tree = small_octree();
        let cell = Vec3::new(2.0, 2.0, 2.0);
        // Many misses drive it solidly free.
        for _ in 0..10 {
            tree.update_cell(cell, tree.config.miss_log_odds);
        }
        assert_eq!(tree.state_at(cell), CellState::Free);
        // A single hit is not enough to flip it back to occupied.
        tree.update_cell(cell, tree.config.hit_log_odds);
        assert_ne!(tree.state_at(cell), CellState::Occupied);
        // Sustained hits eventually do.
        for _ in 0..6 {
            tree.update_cell(cell, tree.config.hit_log_odds);
        }
        assert_eq!(tree.state_at(cell), CellState::Occupied);
    }

    #[test]
    fn log_odds_are_clamped() {
        let mut tree = small_octree();
        let cell = Vec3::new(1.0, 1.0, 1.0);
        for _ in 0..1000 {
            tree.update_cell(cell, tree.config.hit_log_odds);
        }
        // One strong burst of misses flips it back within a bounded number of
        // updates because the log-odds were clamped.
        let mut flips = 0;
        while tree.state_at(cell) == CellState::Occupied && flips < 50 {
            tree.update_cell(cell, tree.config.miss_log_odds);
            flips += 1;
        }
        assert!(
            flips < 30,
            "clamping should bound the flip count, took {flips}"
        );
    }

    #[test]
    fn map_does_not_forget_distant_observations() {
        // Unlike the local grid, the octree keeps obstacles observed long ago
        // and far away — the property that lets V3 plan with global
        // information.
        let mut tree = small_octree();
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            resolution: 0.5,
            half_extent_xy: 10.0,
            height: 12.0,
            carve_free_space: true,
            max_range: 18.0,
        })
        .unwrap();
        let origin = Vec3::new(0.0, 0.0, 2.0);
        let obstacle = Vec3::new(8.0, 0.0, 2.0);
        for _ in 0..3 {
            tree.insert_cloud(origin, &[obstacle]);
            grid.insert_cloud(origin, &[obstacle]);
        }
        // Vehicle moves 25 m away; the grid recenters and forgets.
        grid.recenter(Vec3::new(25.0, 0.0, 2.0));
        assert_eq!(grid.state_at(obstacle), CellState::Unknown);
        assert_eq!(tree.state_at(obstacle), CellState::Occupied);
    }

    #[test]
    fn pruning_collapses_uniform_regions() {
        let mut tree = small_octree();
        // Saturate a 2x2x2-leaf block (one parent's worth of children) to
        // occupied; pruning should collapse them into the parent.
        let res = tree.config.resolution;
        let base = Vec3::new(4.0, 4.0, 4.0);
        let mut peak_nodes = 0;
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    tree.mark_occupied(
                        base + Vec3::new(dx as f64 * res, dy as f64 * res, dz as f64 * res),
                    );
                    peak_nodes = peak_nodes.max(tree.node_count());
                }
            }
        }
        assert!(
            tree.node_count() < peak_nodes,
            "pruning should reclaim nodes once all eight siblings agree ({} vs peak {peak_nodes})",
            tree.node_count()
        );
        // The collapsed region still reads occupied.
        assert_eq!(tree.state_at(base), CellState::Occupied);
        assert_eq!(tree.state_at(base + Vec3::splat(res)), CellState::Occupied);
    }

    #[test]
    fn octree_uses_less_memory_than_dense_grid_for_sparse_worlds() {
        // The paper's motivation for OctoMap: "granularity and effective
        // memory usage were mutually exclusive" with the dense grid.
        let mut tree = OctreeMap::new(OctreeConfig {
            resolution: 0.4,
            half_extent: 80.0,
            ..OctreeConfig::default()
        })
        .unwrap();
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            resolution: 0.4,
            half_extent_xy: 80.0,
            height: 40.0,
            carve_free_space: true,
            max_range: 18.0,
        })
        .unwrap();
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for i in 0..200 {
            let angle = i as f64 * 0.05;
            points.push(Vec3::new(
                10.0 + angle.cos() * 3.0,
                angle.sin() * 3.0,
                2.0 + (i % 5) as f64,
            ));
        }
        tree.insert_cloud(origin, &points);
        grid.insert_cloud(origin, &points);
        assert!(
            tree.memory_bytes() < grid.memory_bytes() / 10,
            "octree {} B vs grid {} B",
            tree.memory_bytes(),
            grid.memory_bytes()
        );
    }

    #[test]
    fn points_outside_the_volume_are_ignored() {
        let mut tree = small_octree();
        tree.insert_cloud(Vec3::new(0.0, 0.0, 2.0), &[Vec3::new(500.0, 0.0, 2.0)]);
        tree.mark_occupied(Vec3::new(0.0, 0.0, -5.0));
        assert_eq!(
            tree.state_at(Vec3::new(500.0, 0.0, 2.0)),
            CellState::Unknown
        );
        assert_eq!(tree.node_count(), 1);
    }
}
