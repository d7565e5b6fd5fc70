//! The timing decorator attached to a mission through the executor's
//! public seams.
//!
//! [`attach`] gives a `mls_core::MissionExecutor` a [`FaultHook`] and a
//! [`TraceSink`] that share one [`MissionTrace`]. The hook forwards every
//! call to the real injector of a faulted cell (or injects nothing on a
//! baseline cell), so the mission flies exactly as it would untraced; both
//! halves only read the clock at the callbacks and record a span between
//! consecutive ones, in the executor's callback order:
//!
//! | span | from | to |
//! |---|---|---|
//! | step | `FaultHook::tick` | `on_tick` |
//! | depth | `on_tick` | `pre_mapping` |
//! | integrate | `pre_mapping` | `on_mapping` |
//! | image | last callback | `pre_detection` |
//! | detect | `pre_detection` | `on_observations(PreFault)` |
//! | plan | `pre_planning` | `on_plan_result` |
//! | decision | last callback | `on_directive` |

use std::sync::{Arc, Mutex, MutexGuard};

use mls_core::{
    Directive, FailsafeReason, FaultHook, MissionResult, ObservationStage, SystemVariant,
    TickFaults, TraceSink,
};
use mls_geom::Vec3;
use mls_sim_uav::{PointCloud, VehicleState};
use mls_vision::{GrayImage, MarkerObservation};

use crate::spans::{now_ns, Layer, Span};

/// Every this many detection frames, one frame is cloned for the detector
/// kernel replay (frames 0, K, 2K, … of each mission).
pub const FRAME_SAMPLE_STRIDE: u64 = 25;
/// At most this many sampled frames per mission.
pub const FRAME_SAMPLE_CAP: usize = 4;

/// Exact work counts of one mission (or a sum of missions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Physics ticks.
    pub ticks: u64,
    /// Points the map reported inserted.
    pub points: u64,
    /// Detection frames rendered.
    pub frames: u64,
    /// Detector observations before fault injection.
    pub observations: u64,
    /// Planning queries.
    pub plans: u64,
    /// Planning queries that returned a trajectory.
    pub plans_ok: u64,
    /// Straight-line fallbacks taken.
    pub fallbacks: u64,
    /// Planner search iterations (A* expansions, RRT* samples).
    pub plan_iterations: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.ticks += other.ticks;
        self.points += other.points;
        self.frames += other.frames;
        self.observations += other.observations;
        self.plans += other.plans;
        self.plans_ok += other.plans_ok;
        self.fallbacks += other.fallbacks;
        self.plan_iterations += other.plan_iterations;
    }
}

/// What one traced mission left behind.
#[derive(Debug, Default)]
pub struct MissionTrace {
    /// Id shared by every span of the mission.
    pub mission: u32,
    /// System generation flown (decides the detector, map and planner
    /// layer names).
    pub variant: Option<SystemVariant>,
    /// Spans in recording order; the mission span is added by the caller.
    pub spans: Vec<Span>,
    /// Exact work counts.
    pub counts: Counts,
    /// Frames cloned for the detector kernel replay.
    pub frames: Vec<GrayImage>,
    /// The mission's result, as reported to `on_mission_end`.
    pub result: Option<MissionResult>,
    last: u64,
    step_from: u64,
    integrate_from: u64,
    detect_from: u64,
    plan_from: u64,
}

impl MissionTrace {
    /// The record of a mission flown without the decorator: its variant
    /// and result only.
    pub fn untraced(variant: SystemVariant, result: MissionResult) -> Self {
        Self {
            variant: Some(variant),
            result: Some(result),
            ..Self::default()
        }
    }

    fn span(&mut self, layer: Layer, start: u64, end: u64) {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            mission: self.mission,
            id,
            parent: Some(0),
            layer,
            start,
            end,
        });
        self.last = end;
    }

    fn variant(&self) -> SystemVariant {
        self.variant.unwrap_or(SystemVariant::MlsV1)
    }
}

/// The shared state behind both decorator halves.
pub type SharedTrace = Arc<Mutex<MissionTrace>>;

fn lock(shared: &SharedTrace) -> MutexGuard<'_, MissionTrace> {
    shared
        .lock()
        .expect("mission trace poisoned by a panicking mission")
}

/// Attaches the timing decorator to `executor`, wrapping `inner` (the
/// cell's real injector, if any). Returns the executor and the shared trace
/// the mission fills.
pub fn attach(
    executor: mls_core::MissionExecutor,
    mission: u32,
    variant: SystemVariant,
    inner: Option<Box<dyn FaultHook>>,
) -> (mls_core::MissionExecutor, SharedTrace) {
    let shared = Arc::new(Mutex::new(MissionTrace {
        mission,
        variant: Some(variant),
        last: now_ns(),
        ..MissionTrace::default()
    }));
    let executor = executor
        .with_fault_hook(Box::new(TimingHook {
            shared: shared.clone(),
            inner,
        }))
        .with_trace_sink(Box::new(TimingSink {
            shared: shared.clone(),
        }));
    (executor, shared)
}

/// The [`FaultHook`] half: forwards to the wrapped injector and times the
/// stages that end at a hook callback.
struct TimingHook {
    shared: SharedTrace,
    inner: Option<Box<dyn FaultHook>>,
}

impl FaultHook for TimingHook {
    fn tick(&mut self, time: f64) -> TickFaults {
        let faults = self
            .inner
            .as_mut()
            .map_or(TickFaults::NONE, |inner| inner.tick(time));
        let mut trace = lock(&self.shared);
        let now = now_ns();
        trace.step_from = now;
        trace.last = now;
        faults
    }

    fn pre_mapping(&mut self, time: f64, cloud: &mut PointCloud) {
        {
            let mut trace = lock(&self.shared);
            let last = trace.last;
            trace.span(Layer::CaptureDepth, last, now_ns());
        }
        if let Some(inner) = self.inner.as_mut() {
            inner.pre_mapping(time, cloud);
        }
        let mut trace = lock(&self.shared);
        let now = now_ns();
        trace.integrate_from = now;
        trace.last = now;
    }

    fn corrupts_depth_clouds(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.corrupts_depth_clouds())
    }

    fn pre_detection(&mut self, time: f64, image: &mut GrayImage) {
        {
            let mut trace = lock(&self.shared);
            let last = trace.last;
            trace.span(Layer::CaptureImage, last, now_ns());
            let frame = trace.counts.frames;
            trace.counts.frames += 1;
            if frame.is_multiple_of(FRAME_SAMPLE_STRIDE) && trace.frames.len() < FRAME_SAMPLE_CAP {
                trace.frames.push(image.clone());
            }
        }
        if let Some(inner) = self.inner.as_mut() {
            inner.pre_detection(time, image);
        }
        let mut trace = lock(&self.shared);
        let now = now_ns();
        trace.detect_from = now;
        trace.last = now;
    }

    fn post_detection(&mut self, time: f64, observations: &mut Vec<MarkerObservation>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.post_detection(time, observations);
        }
        lock(&self.shared).last = now_ns();
    }

    fn pre_planning(&mut self, time: f64) -> f64 {
        let scale = self
            .inner
            .as_mut()
            .map_or(1.0, |inner| inner.pre_planning(time));
        let mut trace = lock(&self.shared);
        let now = now_ns();
        trace.plan_from = now;
        trace.last = now;
        scale
    }
}

/// The [`TraceSink`] half: closes the spans that end at a sink callback.
struct TimingSink {
    shared: SharedTrace,
}

impl TraceSink for TimingSink {
    fn on_fault(&mut self, _time: f64, _faults: &TickFaults) {
        lock(&self.shared).last = now_ns();
    }

    fn on_tick(&mut self, _t: f64, _s: &VehicleState, _e: Vec3, _d: f64, _err: f64) {
        let mut trace = lock(&self.shared);
        let from = trace.step_from;
        trace.span(Layer::Step, from, now_ns());
        trace.counts.ticks += 1;
    }

    fn on_mapping(&mut self, _time: f64, inserted: usize, _dropped: usize, _displaced: usize) {
        let mut trace = lock(&self.shared);
        let layer = match trace.variant() {
            SystemVariant::MlsV3 => Layer::Octree,
            _ => Layer::Grid,
        };
        let from = trace.integrate_from;
        trace.span(layer, from, now_ns());
        trace.counts.points += inserted as u64;
    }

    fn on_observations(
        &mut self,
        _time: f64,
        stage: ObservationStage,
        observations: &[MarkerObservation],
    ) {
        let mut trace = lock(&self.shared);
        if stage == ObservationStage::PreFault {
            let layer = if trace.variant().uses_learned_detector() {
                Layer::Learned
            } else {
                Layer::Classical
            };
            let from = trace.detect_from;
            trace.span(layer, from, now_ns());
            trace.counts.observations += observations.len() as u64;
        } else {
            trace.last = now_ns();
        }
    }

    fn on_directive(&mut self, _time: f64, _directive: &Directive) {
        let mut trace = lock(&self.shared);
        let last = trace.last;
        trace.span(Layer::Decision, last, now_ns());
    }

    fn on_plan_request(&mut self, _time: f64, _start: Vec3, _goal: Vec3) {
        lock(&self.shared).last = now_ns();
    }

    fn on_plan_result(
        &mut self,
        _time: f64,
        success: bool,
        fallback: bool,
        _latency: f64,
        iterations: usize,
    ) {
        let mut trace = lock(&self.shared);
        let layer = match trace.variant() {
            SystemVariant::MlsV1 => Layer::StraightLine,
            SystemVariant::MlsV2 => Layer::AStar,
            SystemVariant::MlsV3 => Layer::RrtStar,
        };
        let from = trace.plan_from;
        trace.span(layer, from, now_ns());
        trace.counts.plans += 1;
        trace.counts.plans_ok += u64::from(success);
        trace.counts.fallbacks += u64::from(fallback);
        trace.counts.plan_iterations += iterations as u64;
    }

    fn on_failsafe(&mut self, _time: f64, _reason: FailsafeReason) {
        lock(&self.shared).last = now_ns();
    }

    fn on_mission_end(&mut self, _time: f64, result: MissionResult) {
        let mut trace = lock(&self.shared);
        trace.result = Some(result);
        trace.last = now_ns();
    }
}
