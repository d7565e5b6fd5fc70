//! Spans, the clock they are read from, and the arithmetic over them.
//!
//! A span is one timed call into a layer: its layer, start, end and the
//! span that caused it. Every span of a mission carries that mission's id,
//! and every layer span's parent is its mission span. Spans are kept in
//! memory while the traced run flies and written once when it ends.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the benchmark's first clock read.
///
/// This is the benchmark's only clock: every span boundary and every timed
/// section reads it, and no reading ever reaches the program's inputs.
pub fn now_ns() -> u64 {
    // mls-lint: allow(D002): the benchmark's single wall-clock source; timings are its output, never a program input
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds elapsed since `start_ns` (a [`now_ns`] reading).
pub fn seconds_since(start_ns: u64) -> f64 {
    ns_to_s(now_ns().saturating_sub(start_ns))
}

/// Converts a nanosecond count to seconds.
pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// The layer a span timed, named after the crate that does the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One whole mission, assembly included (`campaign` pool job).
    Mission,
    /// `FaultHook::tick` → `on_tick`: the physics and autopilot step.
    Step,
    /// `on_tick` → `pre_mapping`: the depth raycast.
    CaptureDepth,
    /// `pre_mapping` → `on_mapping` on a local-grid system (MLS-V2).
    Grid,
    /// `pre_mapping` → `on_mapping` on a global-octree system (MLS-V3).
    Octree,
    /// Last callback → `pre_detection`: vision render + degrade.
    CaptureImage,
    /// `pre_detection` → `on_observations(PreFault)`, classical detector.
    Classical,
    /// `pre_detection` → `on_observations(PreFault)`, learned detector.
    Learned,
    /// `pre_planning` → `on_plan_result`, straight-line planner (MLS-V1).
    StraightLine,
    /// `pre_planning` → `on_plan_result`, A* (MLS-V2).
    AStar,
    /// `pre_planning` → `on_plan_result`, RRT* (MLS-V3).
    RrtStar,
    /// Last callback → `on_directive`: the decision module.
    Decision,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Mission,
        Layer::Step,
        Layer::CaptureDepth,
        Layer::Grid,
        Layer::Octree,
        Layer::CaptureImage,
        Layer::Classical,
        Layer::Learned,
        Layer::StraightLine,
        Layer::AStar,
        Layer::RrtStar,
        Layer::Decision,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Mission => "campaign.mission",
            Layer::Step => "sim_uav.step",
            Layer::CaptureDepth => "sim_uav.capture_depth",
            Layer::Grid => "mapping.grid",
            Layer::Octree => "mapping.octree",
            Layer::CaptureImage => "sim_uav.capture_image",
            Layer::Classical => "vision.classical",
            Layer::Learned => "vision.learned",
            Layer::StraightLine => "planning.straight_line",
            Layer::AStar => "planning.astar",
            Layer::RrtStar => "planning.rrt_star",
            Layer::Decision => "mls.decision",
        }
    }

    /// Whether the layer is the simulator's (rendering the world) rather
    /// than the system under test's (acting on it).
    pub fn is_simulator(self) -> bool {
        matches!(
            self,
            Layer::Step | Layer::CaptureDepth | Layer::CaptureImage
        )
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Id shared by every span of one mission.
    pub mission: u32,
    /// Id of the span within its mission (the mission span is 0).
    pub id: u32,
    /// Id of the span that caused this one (`None` for a mission span).
    pub parent: Option<u32>,
    /// The layer timed.
    pub layer: Layer,
    /// Start, [`now_ns`] nanoseconds.
    pub start: u64,
    /// End, [`now_ns`] nanoseconds.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        ns_to_s(self.duration())
    }
}

/// The time within `[start, end)` that the union of `children` covers.
///
/// Children may overlap each other or stick out of the parent; only the
/// covered part of the parent interval counts, once.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered
}

/// A parent's self time: its duration minus the union of its children.
pub fn self_ns(parent: &Span, children: &[Span]) -> u64 {
    let intervals: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| c.mission == parent.mission && c.parent == Some(parent.id))
        .map(|c| (c.start, c.end))
        .collect();
    parent.duration() - covered_ns(parent.start, parent.end, &intervals)
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            mission: 7,
            id,
            parent,
            layer: Layer::Step,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(0, None, 0, 100);
        let children = [
            span(1, Some(0), 10, 30),
            // Overlaps the first child: counted once.
            span(2, Some(0), 20, 40),
            // Disjoint.
            span(3, Some(0), 60, 70),
            // Sticks out past the parent: clipped at 100.
            span(4, Some(0), 95, 120),
        ];
        // Covered: [10, 40) + [60, 70) + [95, 100) = 30 + 10 + 5.
        assert_eq!(self_ns(&parent, &children), 55);
    }

    #[test]
    fn self_time_ignores_other_parents_and_missions() {
        let parent = span(0, None, 0, 100);
        let mut foreign = span(1, Some(0), 0, 100);
        foreign.mission = 8;
        let grandchild = span(2, Some(1), 0, 100);
        assert_eq!(self_ns(&parent, &[foreign, grandchild]), 100);
    }

    #[test]
    fn nested_and_touching_children_merge() {
        assert_eq!(covered_ns(0, 50, &[(0, 50), (10, 20)]), 50);
        assert_eq!(covered_ns(0, 50, &[(0, 10), (10, 20)]), 20);
        assert_eq!(covered_ns(0, 50, &[(60, 70)]), 0);
        assert_eq!(covered_ns(0, 50, &[]), 0);
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert_eq!(quantile(&values, 0.9), 5.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
