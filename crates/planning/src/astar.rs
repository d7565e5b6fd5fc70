//! Bounded-pool grid A* (the EGO-Planner-style front end of MLS-V2).
//!
//! The planner searches a 26-connected voxel lattice at a configurable
//! resolution. Two design choices intentionally mirror the paper's V2
//! system and its documented weaknesses:
//!
//! * the open/closed sets are capped at [`AStarConfig::max_expansions`]
//!   ("the A* algorithm often failed to find viable solutions within the
//!   constraints of the search pool size"), so a large building between the
//!   start and the goal exhausts the pool and the query fails;
//! * `Unknown` space is treated as traversable, so paths can cut through
//!   volumes the local map has simply never observed — which is how V2 ends
//!   up inside tree canopies.

use std::collections::{BinaryHeap, HashMap};

use mls_geom::{Vec3, VoxelIndex};
use mls_mapping::{CellState, OccupancyQuery};
use serde::{Deserialize, Serialize};

use crate::{Path, PathPlanner, PlanOutcome, PlanningError};

/// Configuration of the A* planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AStarConfig {
    /// Lattice resolution, metres (usually a small multiple of the map
    /// resolution).
    pub resolution: f64,
    /// Maximum number of node expansions before the search gives up — the
    /// "search pool" bound.
    pub max_expansions: usize,
    /// Obstacle inflation radius applied at every lattice node, metres.
    pub inflation_radius: f64,
    /// Treat unknown cells as free (optimistic, V2 behaviour) or as occupied
    /// (conservative).
    pub optimistic_unknown: bool,
    /// Minimum flight altitude of planned nodes, metres.
    pub min_altitude: f64,
    /// Maximum flight altitude of planned nodes, metres.
    pub max_altitude: f64,
    /// Tolerance for reaching the goal, metres.
    pub goal_tolerance: f64,
}

impl Default for AStarConfig {
    fn default() -> Self {
        Self {
            resolution: 0.8,
            max_expansions: 6_000,
            inflation_radius: 0.8,
            optimistic_unknown: true,
            min_altitude: 1.0,
            max_altitude: 30.0,
            goal_tolerance: 1.2,
        }
    }
}

impl AStarConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PlanningError::InvalidConfig`] for non-positive resolution or
    /// an empty expansion budget.
    pub fn validate(&self) -> Result<(), PlanningError> {
        if self.resolution <= 0.0 {
            return Err(PlanningError::InvalidConfig {
                reason: "resolution must be positive".to_string(),
            });
        }
        if self.max_expansions == 0 {
            return Err(PlanningError::InvalidConfig {
                reason: "max_expansions must be at least 1".to_string(),
            });
        }
        if self.min_altitude >= self.max_altitude {
            return Err(PlanningError::InvalidConfig {
                reason: "min_altitude must be below max_altitude".to_string(),
            });
        }
        Ok(())
    }
}

/// Grid A* planner.
#[derive(Debug, Clone)]
pub struct AStarPlanner {
    config: AStarConfig,
    budget_scale: f64,
}

impl AStarPlanner {
    /// Creates a planner with the default configuration.
    pub fn new() -> Self {
        Self::with_config(AStarConfig::default())
    }

    /// Creates a planner with an explicit configuration.
    pub fn with_config(config: AStarConfig) -> Self {
        Self {
            config,
            budget_scale: 1.0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AStarConfig {
        &self.config
    }

    /// The expansion budget for the next query, after budget scaling.
    pub fn effective_budget(&self) -> usize {
        ((self.config.max_expansions as f64 * self.budget_scale).floor() as usize).max(1)
    }

    fn node_blocked(&self, map: &dyn OccupancyQuery, point: Vec3) -> bool {
        if point.z < self.config.min_altitude || point.z > self.config.max_altitude {
            return true;
        }
        match map.state_at(point) {
            CellState::Occupied => true,
            CellState::Unknown if !self.config.optimistic_unknown => true,
            _ => map.occupied_within(
                point,
                self.config.inflation_radius,
                !self.config.optimistic_unknown,
            ),
        }
    }
}

impl Default for AStarPlanner {
    fn default() -> Self {
        Self::new()
    }
}

/// The search state of one generated lattice node.
///
/// One table of these replaces separate cost and parent maps and memoises
/// the collision check: [`AStarPlanner::node_blocked`] runs once per node
/// per query, when the node is first generated.
#[derive(Debug, Clone, Copy)]
struct NodeRecord {
    /// The node's inflated collision check.
    blocked: bool,
    /// Best cost-to-come found so far; infinite until the node is reached
    /// (every real cost is a finite sum of lattice steps).
    g_cost: f64,
    /// The node `g_cost` was reached from.
    parent: VoxelIndex,
}

/// Open-set entry ordered by lowest f-cost.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenEntry {
    f_cost: f64,
    index: VoxelIndex,
}

impl Eq for OpenEntry {}

impl Ord for OpenEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the lowest f-cost first.
        other
            .f_cost
            .partial_cmp(&self.f_cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl PartialOrd for OpenEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PathPlanner for AStarPlanner {
    fn plan(
        &mut self,
        map: &dyn OccupancyQuery,
        start: Vec3,
        goal: Vec3,
    ) -> Result<PlanOutcome, PlanningError> {
        self.config.validate()?;
        let res = self.config.resolution;
        if self.node_blocked(map, start) {
            return Err(PlanningError::InvalidEndpoint { endpoint: "start" });
        }
        if self.node_blocked(map, goal) {
            return Err(PlanningError::InvalidEndpoint { endpoint: "goal" });
        }

        let start_index = VoxelIndex::from_point(start, res);
        let goal_index = VoxelIndex::from_point(goal, res);

        let mut open = BinaryHeap::new();
        let mut nodes: HashMap<VoxelIndex, NodeRecord> = HashMap::new();
        // The start is never improved on (every step costs more than 0),
        // so its own blocked flag is never read.
        nodes.insert(
            start_index,
            NodeRecord {
                blocked: false,
                g_cost: 0.0,
                parent: start_index,
            },
        );
        open.push(OpenEntry {
            f_cost: start.distance(goal),
            index: start_index,
        });

        let budget = self.effective_budget();
        let mut expansions = 0usize;
        while let Some(OpenEntry { index, .. }) = open.pop() {
            expansions += 1;
            if expansions > budget {
                return Err(PlanningError::NoPathFound {
                    reason: "search pool exhausted".to_string(),
                    iterations: expansions,
                });
            }
            let center = index.center(res);
            if index == goal_index || center.distance(goal) <= self.config.goal_tolerance {
                // Reconstruct.
                let mut waypoints = vec![goal];
                let mut cursor = index;
                while cursor != start_index {
                    waypoints.push(cursor.center(res));
                    cursor = nodes[&cursor].parent;
                }
                waypoints.push(start);
                waypoints.reverse();
                return Ok(PlanOutcome {
                    path: Path::new(waypoints).simplified(),
                    iterations: expansions,
                });
            }

            let current_g = nodes[&index].g_cost;
            for neighbor in index.all_neighbors() {
                let neighbor_center = neighbor.center(res);
                let record = nodes.entry(neighbor).or_insert_with(|| NodeRecord {
                    blocked: self.node_blocked(map, neighbor_center),
                    g_cost: f64::INFINITY,
                    parent: index,
                });
                if record.blocked {
                    continue;
                }
                let step = center.distance(neighbor_center);
                let tentative = current_g + step;
                if tentative < record.g_cost {
                    record.g_cost = tentative;
                    record.parent = index;
                    open.push(OpenEntry {
                        f_cost: tentative + neighbor_center.distance(goal),
                        index: neighbor,
                    });
                }
            }
        }

        Err(PlanningError::NoPathFound {
            reason: "open set exhausted (goal unreachable)".to_string(),
            iterations: expansions,
        })
    }

    fn name(&self) -> &str {
        "astar"
    }

    fn set_budget_scale(&mut self, scale: f64) {
        self.budget_scale = if scale.is_finite() {
            scale.clamp(0.0, 1.0)
        } else {
            1.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mls_mapping::{VoxelGridConfig, VoxelGridMap};
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// Builds a local grid with a wall of the given width/height in front of
    /// the start.
    fn wall_world(width: f64, height: f64) -> VoxelGridMap {
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            resolution: 0.4,
            half_extent_xy: 25.0,
            height: 26.0,
            carve_free_space: false,
            max_range: 100.0,
        })
        .unwrap();
        let mut y = -width / 2.0;
        while y <= width / 2.0 {
            let mut z = 0.2;
            while z <= height {
                grid.mark_occupied(Vec3::new(10.0, y, z));
                grid.mark_occupied(Vec3::new(10.4, y, z));
                z += 0.4;
            }
            y += 0.4;
        }
        grid
    }

    /// Logs every point `occupied_within` is asked about, then delegates.
    struct Recording<'a> {
        inner: &'a dyn OccupancyQuery,
        queried: Mutex<Vec<Vec3>>,
    }

    impl OccupancyQuery for Recording<'_> {
        fn resolution(&self) -> f64 {
            self.inner.resolution()
        }
        fn state_at(&self, point: Vec3) -> CellState {
            self.inner.state_at(point)
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
        fn occupied_within(&self, point: Vec3, radius: f64, treat_unknown: bool) -> bool {
            self.queried.lock().unwrap().push(point);
            self.inner.occupied_within(point, radius, treat_unknown)
        }
    }

    #[test]
    fn each_lattice_node_is_checked_once_per_query() {
        let grid = wall_world(6.0, 8.0);
        let map = Recording {
            inner: &grid,
            queried: Mutex::new(Vec::new()),
        };
        let mut planner = AStarPlanner::new();
        let outcome = planner
            .plan(&map, Vec3::new(0.0, 0.0, 5.0), Vec3::new(20.0, 0.0, 5.0))
            .unwrap();
        let queried = map.queried.into_inner().unwrap();
        assert!(
            queried.len() > outcome.iterations,
            "{} checks",
            queried.len()
        );
        let mut seen = HashSet::new();
        for point in &queried {
            let bits = [point.x.to_bits(), point.y.to_bits(), point.z.to_bits()];
            assert!(seen.insert(bits), "{point:?} was checked twice");
        }
    }

    #[test]
    fn plans_straight_in_free_space() {
        let grid = VoxelGridMap::new(VoxelGridConfig::default()).unwrap();
        let mut planner = AStarPlanner::new();
        let outcome = planner
            .plan(&grid, Vec3::new(0.0, 0.0, 5.0), Vec3::new(12.0, 0.0, 5.0))
            .unwrap();
        assert!(outcome.path.length() < 14.0);
        assert!(outcome.iterations < 200);
        assert_eq!(planner.name(), "astar");
    }

    #[test]
    fn routes_around_a_small_wall() {
        let grid = wall_world(6.0, 8.0);
        let mut planner = AStarPlanner::new();
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(20.0, 0.0, 5.0);
        let outcome = planner.plan(&grid, start, goal).unwrap();
        // The path must detour: longer than the straight line.
        assert!(outcome.path.length() > 20.5);
        // And it must not pass through the wall.
        assert!(
            !grid.segment_blocked(start, outcome.path.waypoints[1], 0.2, false)
                || outcome.path.len() > 2
        );
        for pair in outcome.path.waypoints.windows(2) {
            assert!(
                !grid.segment_blocked(pair[0], pair[1], 0.2, false),
                "segment {pair:?} crosses the wall"
            );
        }
    }

    #[test]
    fn budget_scale_starves_an_otherwise_solvable_query() {
        let grid = wall_world(6.0, 8.0);
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(20.0, 0.0, 5.0);
        let mut planner = AStarPlanner::new();
        assert_eq!(planner.effective_budget(), planner.config().max_expansions);
        planner.plan(&grid, start, goal).unwrap();
        // Starved to 1% of the pool, the same query exhausts.
        planner.set_budget_scale(0.01);
        assert_eq!(planner.effective_budget(), 60);
        let err = planner.plan(&grid, start, goal).unwrap_err();
        assert!(matches!(err, PlanningError::NoPathFound { .. }));
        // Restoring the scale restores the query.
        planner.set_budget_scale(1.0);
        planner.plan(&grid, start, goal).unwrap();
        // Degenerate scales clamp instead of zeroing the budget.
        planner.set_budget_scale(0.0);
        assert_eq!(planner.effective_budget(), 1);
        planner.set_budget_scale(f64::NAN);
        assert_eq!(planner.effective_budget(), planner.config().max_expansions);
    }

    #[test]
    fn large_building_exhausts_the_search_pool() {
        // The V2 failure: a wall much larger than the search pool can
        // circumnavigate within its expansion budget.
        let grid = wall_world(40.0, 24.0);
        let mut planner = AStarPlanner::with_config(AStarConfig {
            max_expansions: 1_500,
            ..AStarConfig::default()
        });
        let err = planner
            .plan(&grid, Vec3::new(0.0, 0.0, 5.0), Vec3::new(20.0, 0.0, 5.0))
            .unwrap_err();
        assert!(matches!(err, PlanningError::NoPathFound { .. }));
        assert!(err.to_string().contains("pool"));
    }

    #[test]
    fn plans_through_unknown_space_when_optimistic() {
        // Completely unobserved map: the optimistic planner sails through it,
        // the conservative one refuses.
        let grid = VoxelGridMap::new(VoxelGridConfig::default()).unwrap();
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(10.0, 0.0, 5.0);
        let mut optimistic = AStarPlanner::new();
        assert!(optimistic.plan(&grid, start, goal).is_ok());
        let mut conservative = AStarPlanner::with_config(AStarConfig {
            optimistic_unknown: false,
            ..AStarConfig::default()
        });
        assert!(conservative.plan(&grid, start, goal).is_err());
    }

    #[test]
    fn blocked_endpoints_are_rejected() {
        let mut grid = wall_world(4.0, 8.0);
        grid.mark_occupied(Vec3::new(0.0, 0.0, 5.0));
        let mut planner = AStarPlanner::new();
        let err = planner
            .plan(&grid, Vec3::new(0.0, 0.0, 5.0), Vec3::new(20.0, 0.0, 5.0))
            .unwrap_err();
        assert!(matches!(
            err,
            PlanningError::InvalidEndpoint { endpoint: "start" }
        ));
    }

    #[test]
    fn altitude_bounds_are_respected() {
        let grid = VoxelGridMap::new(VoxelGridConfig::default()).unwrap();
        let mut planner = AStarPlanner::new();
        let outcome = planner
            .plan(&grid, Vec3::new(0.0, 0.0, 5.0), Vec3::new(8.0, 0.0, 5.0))
            .unwrap();
        for w in &outcome.path.waypoints {
            assert!(w.z >= 1.0 - 1e-9 && w.z <= 30.0 + 1e-9);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = AStarConfig {
            resolution: 0.0,
            ..AStarConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = AStarConfig {
            max_expansions: 0,
            ..AStarConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = AStarConfig {
            min_altitude: 50.0,
            ..AStarConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(AStarConfig::default().validate().is_ok());
    }
}
