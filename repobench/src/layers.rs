//! Per-layer metrics from the traced run: busy time, call counts and
//! latency quantiles from the spans, exact work counts from the
//! decorator's counters, and the detector kernel replay.

use std::collections::BTreeMap;
use std::hint::black_box;

use mls_core::SystemVariant;
use mls_vision::{ClassicalDetector, LearnedDetector, MarkerDetector, MarkerDictionary};

use crate::probe::{Counts, MissionTrace};
use crate::spans::{now_ns, ns_to_s, quantile, self_ns, Layer, Span};
use crate::workloads::{Setup, Timed, Traced};

/// Every per-layer metric the traced run reports, with its unit. A run
/// reports each of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("sim_world.scenarios", "count"),
    ("sim_world.generate_s", "s"),
    ("sim_uav.step.calls", "count"),
    ("sim_uav.step.busy_s", "s"),
    ("sim_uav.capture_image.calls", "count"),
    ("sim_uav.capture_image.busy_s", "s"),
    ("sim_uav.capture_image.p50_ms", "ms"),
    ("sim_uav.capture_image.p90_ms", "ms"),
    ("sim_uav.capture_depth.calls", "count"),
    ("sim_uav.capture_depth.busy_s", "s"),
    ("vision.classical.calls", "count"),
    ("vision.classical.busy_s", "s"),
    ("vision.classical.p50_ms", "ms"),
    ("vision.classical.observations", "count"),
    ("vision.classical.kernel_calls", "count"),
    ("vision.classical.kernel_p50_ms", "ms"),
    ("vision.learned.calls", "count"),
    ("vision.learned.busy_s", "s"),
    ("vision.learned.p50_ms", "ms"),
    ("vision.learned.p90_ms", "ms"),
    ("vision.learned.observations", "count"),
    ("vision.learned.candidates", "1/frame"),
    ("vision.learned.kernel_calls", "count"),
    ("vision.learned.kernel_p50_ms", "ms"),
    ("vision.learned.kernel_p90_ms", "ms"),
    ("mapping.grid.calls", "count"),
    ("mapping.grid.busy_s", "s"),
    ("mapping.grid.points", "count"),
    ("mapping.octree.calls", "count"),
    ("mapping.octree.busy_s", "s"),
    ("mapping.octree.points", "count"),
    ("planning.astar.calls", "count"),
    ("planning.astar.busy_s", "s"),
    ("planning.astar.p50_ms", "ms"),
    ("planning.astar.p90_ms", "ms"),
    ("planning.astar.iterations", "count"),
    ("planning.astar.ok_ratio", "ratio"),
    ("planning.astar.fallbacks", "count"),
    ("planning.rrt_star.calls", "count"),
    ("planning.rrt_star.busy_s", "s"),
    ("planning.rrt_star.p50_ms", "ms"),
    ("planning.rrt_star.p90_ms", "ms"),
    ("planning.rrt_star.iterations", "count"),
    ("planning.rrt_star.ok_ratio", "ratio"),
    ("planning.rrt_star.fallbacks", "count"),
    ("planning.straight_line.calls", "count"),
    ("planning.straight_line.busy_s", "s"),
    ("mls.decision.calls", "count"),
    ("mls.decision.busy_s", "s"),
    ("mls.executor.self_s", "s"),
    ("campaign.missions", "count"),
    ("campaign.mission.p50_s", "s"),
    ("campaign.mission.p90_s", "s"),
    ("campaign.utilization", "ratio"),
    ("campaign.idle_s", "s"),
    ("campaign.probes", "count"),
    ("campaign.missions_per_probe", "ratio"),
    ("campaign.journal.records", "count"),
    ("campaign.journal.bytes", "bytes"),
    ("trace.replay.calls", "count"),
    ("trace.replay.busy_s", "s"),
    ("trace.replay.identical_ratio", "ratio"),
    ("trace.bytes", "bytes"),
    ("split.simulator_s", "s"),
    ("split.system_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.kernel_frames", "count"),
    ("failed_ratio", "ratio"),
];

/// Timings of the detector kernels re-run on the sampled frames.
#[derive(Debug, Default)]
pub struct KernelReplay {
    /// `ClassicalDetector::detect` wall times, ms (frames of V1 missions).
    pub classical_ms: Vec<f64>,
    /// `LearnedDetector::score_candidates` wall times, ms (frames of
    /// V2/V3 missions).
    pub learned_ms: Vec<f64>,
    /// Candidates scored per learned frame.
    pub candidates: Vec<usize>,
}

/// Times each detector kernel directly on the frames its own missions
/// rendered, so a detector no mission of the workload runs reads 0.
pub fn kernel_replay(missions: &[MissionTrace]) -> KernelReplay {
    let classical = ClassicalDetector::new(MarkerDictionary::standard());
    let learned = LearnedDetector::new(MarkerDictionary::standard());
    let mut replay = KernelReplay::default();
    for trace in missions {
        let uses_learned = trace
            .variant
            .is_some_and(SystemVariant::uses_learned_detector);
        for frame in &trace.frames {
            let start = now_ns();
            if uses_learned {
                let scored = black_box(learned.score_candidates(black_box(frame)));
                replay.learned_ms.push(ns_to_s(now_ns() - start) * 1e3);
                replay.candidates.push(scored.len());
            } else {
                black_box(classical.detect(black_box(frame)));
                replay.classical_ms.push(ns_to_s(now_ns() - start) * 1e3);
            }
        }
    }
    replay
}

/// Per-variant busy seconds by layer, for the "largest layer" readout.
pub type VariantBusy = BTreeMap<&'static str, BTreeMap<&'static str, f64>>;

/// The traced run's per-layer metrics.
pub struct LayerReport {
    /// Metric name → value, every [`PER_LAYER`] name present.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Busy seconds per layer on each variant's missions.
    pub by_variant: VariantBusy,
}

/// Computes every per-layer metric.
pub fn layer_report(
    setup: &Setup,
    timed: &Timed,
    traced: &Traced,
    kernels: &KernelReplay,
    threads: usize,
    failed_ratio: f64,
) -> LayerReport {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        let slot = m.get_mut(name).expect("metric listed in PER_LAYER");
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        *slot = if value.is_finite() { value + 0.0 } else { 0.0 };
    };
    let listed = |name: &str| PER_LAYER.iter().any(|(n, _)| *n == name);

    let mut busy_by_layer = BTreeMap::new();
    for layer in Layer::ALL {
        let seconds: Vec<f64> = traced
            .missions
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.layer == layer)
            .map(Span::seconds)
            .collect();
        let busy: f64 = seconds.iter().sum();
        busy_by_layer.insert(layer, busy);
        let ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
        for (suffix, value) in [
            ("calls", seconds.len() as f64),
            ("busy_s", busy),
            ("p50_ms", quantile(&ms, 0.5)),
            ("p90_ms", quantile(&ms, 0.9)),
            ("p50_s", quantile(&seconds, 0.5)),
            ("p90_s", quantile(&seconds, 0.9)),
        ] {
            let name = format!("{}.{suffix}", layer.name());
            if listed(&name) {
                set(&name, value);
            }
        }
    }

    // Exact counts of the layers a variant owns.
    let mut by_variant_counts: BTreeMap<&'static str, Counts> = BTreeMap::new();
    for trace in &traced.missions {
        let label = trace.variant.map_or("unknown", SystemVariant::label);
        by_variant_counts
            .entry(label)
            .or_default()
            .add(&trace.counts);
    }
    let of = |variant: SystemVariant| {
        by_variant_counts
            .get(variant.label())
            .copied()
            .unwrap_or_default()
    };
    let (v1, v2, v3) = (
        of(SystemVariant::MlsV1),
        of(SystemVariant::MlsV2),
        of(SystemVariant::MlsV3),
    );
    set("vision.classical.observations", v1.observations as f64);
    set(
        "vision.learned.observations",
        (v2.observations + v3.observations) as f64,
    );
    set("mapping.grid.points", v2.points as f64);
    set("mapping.octree.points", v3.points as f64);
    for (prefix, c) in [("planning.astar", v2), ("planning.rrt_star", v3)] {
        let ok_ratio = if c.plans == 0 {
            0.0
        } else {
            c.plans_ok as f64 / c.plans as f64
        };
        set(&format!("{prefix}.iterations"), c.plan_iterations as f64);
        set(&format!("{prefix}.ok_ratio"), ok_ratio);
        set(&format!("{prefix}.fallbacks"), c.fallbacks as f64);
    }

    // Kernel replay.
    set(
        "vision.classical.kernel_calls",
        kernels.classical_ms.len() as f64,
    );
    set(
        "vision.classical.kernel_p50_ms",
        quantile(&kernels.classical_ms, 0.5),
    );
    set(
        "vision.learned.kernel_calls",
        kernels.learned_ms.len() as f64,
    );
    set(
        "vision.learned.kernel_p50_ms",
        quantile(&kernels.learned_ms, 0.5),
    );
    set(
        "vision.learned.kernel_p90_ms",
        quantile(&kernels.learned_ms, 0.9),
    );
    let candidates: usize = kernels.candidates.iter().sum();
    set(
        "vision.learned.candidates",
        candidates as f64 / kernels.candidates.len().max(1) as f64,
    );
    set(
        "bench.kernel_frames",
        (kernels.classical_ms.len() + kernels.learned_ms.len()) as f64,
    );

    // The executor's own time: mission spans minus their layer spans.
    let mut executor_self = 0u64;
    let mut mission_busy = 0.0;
    for trace in &traced.missions {
        if let Some(mission) = trace.spans.iter().find(|s| s.layer == Layer::Mission) {
            executor_self += self_ns(mission, &trace.spans);
            mission_busy += mission.seconds();
        }
    }
    set("mls.executor.self_s", ns_to_s(executor_self));

    // The campaign pool.
    let capacity = threads as f64 * traced.wall_s;
    set("campaign.missions", traced.missions.len() as f64);
    set(
        "campaign.utilization",
        if capacity > 0.0 {
            mission_busy / capacity
        } else {
            0.0
        },
    );
    set("campaign.idle_s", (capacity - mission_busy).max(0.0));
    set("campaign.probes", traced.probes as f64);
    if traced.probes > 0 {
        set(
            "campaign.missions_per_probe",
            traced.missions.len() as f64 / traced.probes as f64,
        );
    }
    set("campaign.journal.records", timed.journal.0 as f64);
    set("campaign.journal.bytes", timed.journal.1 as f64);

    // Replay verification.
    let replay_busy: f64 = traced.replays.iter().map(|(s, _)| s).sum();
    let identical = traced.replays.iter().filter(|(_, ok)| *ok).count();
    set("trace.replay.calls", traced.replays.len() as f64);
    set("trace.replay.busy_s", replay_busy);
    if !traced.replays.is_empty() {
        set(
            "trace.replay.identical_ratio",
            identical as f64 / traced.replays.len() as f64,
        );
    }
    set("trace.bytes", traced.trace_bytes as f64);

    // Set-up and the simulator / system split.
    set("sim_world.scenarios", setup.scenarios as f64);
    set("sim_world.generate_s", setup.generate_s);
    let split = |simulator: bool| -> f64 {
        busy_by_layer
            .iter()
            .filter(|(layer, _)| **layer != Layer::Mission && layer.is_simulator() == simulator)
            .map(|(_, busy)| busy)
            .sum()
    };
    set("split.simulator_s", split(true));
    set("split.system_s", split(false));
    let untraced = traced.untraced_wall_s.unwrap_or_else(|| timed.wall_s());
    set("bench.traced_wall_s", traced.wall_s);
    set("bench.untraced_wall_s", untraced);
    if untraced > 0.0 {
        set("bench.trace_overhead", traced.wall_s / untraced - 1.0);
    }
    set("failed_ratio", failed_ratio);

    // Busy seconds per layer on each variant's missions.
    let mut by_variant: VariantBusy = BTreeMap::new();
    for trace in &traced.missions {
        let label = trace.variant.map_or("unknown", SystemVariant::label);
        let entry = by_variant.entry(label).or_default();
        for span in trace.spans.iter().filter(|s| s.layer != Layer::Mission) {
            *entry.entry(span.layer.name()).or_default() += span.seconds();
        }
    }

    LayerReport {
        metrics: m,
        by_variant,
    }
}
