//! Mission executor: drives one scenario end to end.
//!
//! The executor mirrors the runtime architecture of Fig. 1/Fig. 3: physics
//! and the flight controller tick at 50 Hz; the mapping, detection and
//! decision modules run at their own (lower) rates; planning runs on demand;
//! and every module invocation is charged to the [`ComputeModel`], whose
//! latencies delay when a freshly planned trajectory actually takes effect —
//! the mechanism behind the HIL collision increase the paper reports.

use std::time::Instant;

use mls_compute::{ComputeModel, TaskKind, WorkloadModel};
use mls_geom::Vec3;
use mls_planning::Trajectory;
use mls_sim_uav::{Uav, UavConfig};
use mls_sim_world::Scenario;
use mls_vision::{MarkerDictionary, MarkerObservation};
use serde::{Deserialize, Serialize};

use crate::decision::{Directive, FailsafeReason};
use crate::detection::DetectionStats;
use crate::fault::{FaultHook, TickFaults};
use crate::system::{LandingSystem, SystemVariant};
use crate::trace::{ObservationStage, TraceSink};
use crate::MlsError;

/// Cached obs instruments: registry lookups take a mutex, so the mission
/// loop resolves each histogram once per process through a `OnceLock`.
mod instruments {
    macro_rules! cached_seconds_histogram {
        ($fn_name:ident, $metric:literal) => {
            pub fn $fn_name() -> &'static std::sync::Arc<mls_obs::Histogram> {
                static CELL: std::sync::OnceLock<std::sync::Arc<mls_obs::Histogram>> =
                    std::sync::OnceLock::new();
                CELL.get_or_init(|| mls_obs::histogram($metric, mls_obs::SECONDS_BUCKETS))
            }
        };
    }

    cached_seconds_histogram!(control_seconds, "mls_phase_control_seconds");
    cached_seconds_histogram!(mapping_seconds, "mls_phase_mapping_seconds");
    cached_seconds_histogram!(perception_seconds, "mls_phase_perception_seconds");
    cached_seconds_histogram!(sensors_seconds, "mls_phase_sensors_seconds");
    cached_seconds_histogram!(planning_seconds, "mls_phase_planning_seconds");
    cached_seconds_histogram!(decision_seconds, "mls_phase_decision_seconds");
    cached_seconds_histogram!(mission_wall_seconds, "mls_mission_wall_seconds");
}

/// Real wall-clock spent in each mission phase, accumulated only while
/// observability is on. These measurements feed the obs histograms and the
/// mission-end `mission_phases` event exclusively — the report fields
/// (`mean_cpu`, `peak_memory_mb`) stay on the deterministic [`ComputeModel`]
/// simulation, which is what keeps reports byte-identical with obs on or
/// off.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseBudget {
    control: f64,
    mapping: f64,
    perception: f64,
    /// Simulated sensor capture (render, degrade, depth raycast): the
    /// simulator's share, kept out of `mapping` and `perception` so those
    /// hold only the system under test's time.
    sensors: f64,
    planning: f64,
    decision: f64,
    ticks: u64,
}

impl PhaseBudget {
    /// Adds `started`'s elapsed time to `slot` when phase timing is active.
    fn charge(slot: &mut f64, started: Option<Instant>) {
        if let Some(started) = started {
            *slot += started.elapsed().as_secs_f64();
        }
    }
}

/// Stable lowercase label for a mission result, used in obs event fields.
fn result_label(result: MissionResult) -> &'static str {
    match result {
        MissionResult::Success => "success",
        MissionResult::CollisionFailure => "collision",
        MissionResult::PoorLanding => "poor_landing",
    }
}

/// Final classification of one mission (the Table I categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MissionResult {
    /// Landed within the success radius of the true marker, no collision.
    Success,
    /// The airframe hit an obstacle (or the ground at speed).
    CollisionFailure,
    /// Everything else: aborted attempts, timeouts, landings far from the
    /// marker — the paper's "failure due to poor landing" bucket.
    PoorLanding,
}

/// Everything recorded about one mission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionOutcome {
    /// Scenario identifier.
    pub scenario_id: usize,
    /// Scenario name.
    pub scenario_name: String,
    /// The seed the mission ran under, so outcomes, report rows and trace
    /// files can be correlated without re-deriving the seed schedule.
    pub seed: u64,
    /// Whether the scenario counts as adverse weather.
    pub adverse_weather: bool,
    /// System generation flown.
    pub variant: SystemVariant,
    /// Final classification.
    pub result: MissionResult,
    /// `true` if the vehicle ended on the ground (softly).
    pub landed: bool,
    /// Horizontal distance between the touchdown point and the true marker,
    /// metres (when landed).
    pub landing_error: Option<f64>,
    /// Mean horizontal error of target-marker observations versus the true
    /// marker position, metres (Table I metric 1).
    pub mean_detection_error: Option<f64>,
    /// Number of obstacle collisions (the mission stops at the first).
    pub collisions: usize,
    /// Failsafe that ended the mission, if any.
    pub failsafe: Option<FailsafeReason>,
    /// Mission duration, seconds.
    pub duration: f64,
    /// Detection-module statistics (Table II).
    pub detection_stats: DetectionStats,
    /// Planning failures encountered.
    pub planning_failures: usize,
    /// Straight-line fallbacks used (V2 behaviour).
    pub planning_fallbacks: usize,
    /// Landing attempts aborted by the decision module.
    pub landing_aborts: usize,
    /// Mean CPU utilisation on the compute platform.
    pub mean_cpu: f64,
    /// Peak memory on the compute platform, MiB.
    pub peak_memory_mb: f64,
    /// Worst planning latency observed, seconds.
    pub worst_planning_latency: f64,
    /// Final EKF position error, metres.
    pub estimation_error: f64,
    /// Final accumulated GNSS drift, metres.
    pub gps_drift: f64,
}

/// Configuration of the mission executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Vehicle configuration.
    pub uav: UavConfig,
    /// Landing success radius: touchdown within this distance of the true
    /// marker counts as success, metres.
    pub success_radius: f64,
    /// Hard cap on wall-clock mission duration, seconds (safety net above the
    /// decision module's own timeout).
    pub max_duration: f64,
    /// Workload → reference-cost exchange rates.
    pub workload: WorkloadModel,
    /// Maximum range at which the target marker counts as "visible" for the
    /// detection statistics, metres.
    pub visibility_range: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            uav: UavConfig::default(),
            success_radius: 1.0,
            max_duration: 300.0,
            workload: WorkloadModel::default(),
            visibility_range: 22.0,
        }
    }
}

/// Drives one landing system through one scenario.
pub struct MissionExecutor {
    scenario: Scenario,
    /// True marker position, resolved (and validated) at construction so the
    /// mission loop never has to handle a target-less scenario.
    true_target: Vec3,
    system: LandingSystem,
    uav: Uav,
    compute: ComputeModel,
    config: ExecutorConfig,
    seed: u64,
    fault_hook: Option<Box<dyn FaultHook>>,
    trace_sink: Option<Box<dyn TraceSink>>,
}

impl MissionExecutor {
    /// Builds an executor for a scenario.
    ///
    /// # Errors
    ///
    /// Returns an error when the landing-system configuration is invalid or
    /// the scenario carries no target marker.
    pub fn new(
        scenario: &Scenario,
        system: LandingSystem,
        compute: ComputeModel,
        config: ExecutorConfig,
        seed: u64,
    ) -> Result<Self, MlsError> {
        let true_target = scenario
            .true_target()
            .map_err(|err| MlsError::InvalidConfig {
                reason: err.to_string(),
            })?;
        let uav = Uav::new(
            config.uav.clone(),
            scenario.weather.clone(),
            scenario.start,
            MarkerDictionary::standard(),
            seed,
        );
        Ok(Self {
            scenario: scenario.clone(),
            true_target,
            system,
            uav,
            compute,
            config,
            seed,
            fault_hook: None,
            trace_sink: None,
        })
    }

    /// Attaches a fault injector the mission loop consults every tick (see
    /// [`FaultHook`] for the injection points). Missions run fault-free when
    /// no hook is attached.
    #[must_use]
    pub fn with_fault_hook(mut self, hook: Box<dyn FaultHook>) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Attaches a flight recorder the mission loop feeds at every module
    /// boundary (see [`TraceSink`] for the callbacks). Missions run
    /// trace-free when no sink is attached.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Convenience constructor: assembles the named system variant with the
    /// given landing configuration for the scenario.
    ///
    /// # Errors
    ///
    /// Returns an error when the landing-system configuration is invalid.
    pub fn for_variant(
        scenario: &Scenario,
        variant: SystemVariant,
        landing_config: crate::LandingConfig,
        compute: ComputeModel,
        config: ExecutorConfig,
        seed: u64,
    ) -> Result<Self, MlsError> {
        let system = LandingSystem::new(
            variant,
            MarkerDictionary::standard(),
            landing_config,
            scenario.target_marker_id,
            Vec3::new(scenario.gps_target.x, scenario.gps_target.y, 0.0),
            seed,
        )?;
        Self::new(scenario, system, compute, config, seed)
    }

    /// Read-only access to the compute model (trace inspection).
    pub fn compute(&self) -> &ComputeModel {
        &self.compute
    }

    /// Read-only access to the landing system.
    pub fn system(&self) -> &LandingSystem {
        &self.system
    }

    /// Runs the mission to completion and returns the outcome.
    pub fn run(self) -> MissionOutcome {
        self.run_with_compute().0
    }

    /// Runs the mission and also returns the compute model, whose recorded
    /// utilisation trace backs the Fig. 7 reproduction.
    pub fn run_with_compute(mut self) -> (MissionOutcome, ComputeModel) {
        let dt = self.uav.physics_dt();
        let world = self.scenario.map.clone();
        let ground_z = world.ground_z;
        let true_target = self.true_target;
        let vehicle_radius = self.config.uav.airframe.radius;

        // Phase timing is sampled only while obs is on: `Instant::now` never
        // runs otherwise, and none of the measurements below feed back into
        // the simulation.
        let observing = mls_obs::enabled();
        let mission_started = observing.then(Instant::now);
        let mut budget = PhaseBudget::default();

        // Memory residency of the modules (drives the compute model's memory
        // trace): detector weights, map storage, image buffers.
        let detector_memory = if self.system.variant.uses_learned_detector() {
            820.0
        } else {
            90.0
        };
        self.compute
            .set_resident_memory(TaskKind::MarkerDetection, detector_memory);
        self.compute
            .set_resident_memory(TaskKind::CameraPipeline, 250.0);
        self.compute
            .set_resident_memory(TaskKind::StateEstimation, 120.0);
        self.compute
            .set_resident_memory(TaskKind::DecisionMaking, 40.0);

        // Take off before the mission modules start (the paper's missions
        // begin with a climb from the origin).
        self.uav
            .autopilot_mut()
            .arm_and_takeoff(self.system.config.cruise_altitude);
        let mut time = 0.0;
        let takeoff_started = observing.then(Instant::now);
        while time < 30.0 {
            self.uav.step(&world);
            time = self.uav.time();
            if matches!(self.uav.autopilot().mode(), mls_sim_uav::FlightMode::Hold) {
                break;
            }
        }
        PhaseBudget::charge(&mut budget.control, takeoff_started);

        let mut next_detection = time;
        let mut next_mapping = time;
        let mut next_decision = time;
        let mut last_replan = f64::NEG_INFINITY;

        let mut pending_observations: Vec<MarkerObservation> = Vec::new();
        let mut frames_since_decision = 0usize;
        let mut detection_errors: Vec<f64> = Vec::new();

        let mut directive = Directive::Hover;
        let mut active_trajectory: Option<(Trajectory, f64)> = None;
        let mut pending_trajectory: Option<(Trajectory, f64)> = None;
        let mut worst_planning_latency = 0.0f64;

        let mut collisions = 0usize;
        let mut failsafe: Option<FailsafeReason> = None;
        let mut hard_impact = false;

        while time < self.config.max_duration {
            if let Some(hook) = self.fault_hook.as_mut() {
                let faults: TickFaults = hook.tick(time);
                self.uav.set_gps_bias(faults.gps_bias);
                self.uav.set_wind_disturbance(faults.wind_disturbance);
                self.compute.set_throttle(faults.compute_throttle);
                if let Some(sink) = self.trace_sink.as_mut() {
                    sink.on_fault(time, &faults);
                }
            }
            self.compute.begin_tick(dt);
            if observing {
                budget.ticks += 1;
            }
            let control_started = observing.then(Instant::now);
            let state = self.uav.step(&world);
            PhaseBudget::charge(&mut budget.control, control_started);
            time = self.uav.time();
            if let Some(sink) = self.trace_sink.as_mut() {
                sink.on_tick(
                    time,
                    &state,
                    self.uav.estimated_pose().position,
                    self.uav.gps_drift().norm(),
                    self.uav.estimation_error(),
                );
            }
            self.compute.submit(
                TaskKind::StateEstimation,
                self.config.workload.estimation_tick,
            );

            // Collision check against obstacles (the ground is handled by the
            // landing logic).
            if !state.landed
                && world
                    .obstacles
                    .iter()
                    .any(|o| o.distance_to(state.position) < vehicle_radius)
            {
                collisions += 1;
                break;
            }
            // Hard ground contact (fast descent into terrain).
            if state.position.z <= ground_z + 1e-9 && !state.landed {
                hard_impact = true;
                break;
            }

            let estimated_pose = self.uav.estimated_pose();

            // Mapping module.
            if self.system.mapping.is_enabled() && time >= next_mapping {
                next_mapping = time + 1.0 / self.system.config.mapping_rate_hz;
                let sensors_started = observing.then(Instant::now);
                let mut cloud = self.uav.capture_depth(&world);
                PhaseBudget::charge(&mut budget.sensors, sensors_started);
                let mapping_started = observing.then(Instant::now);
                // The pristine cloud is snapshotted for trace
                // tamper-accounting only when a recorder is attached AND the
                // hook can actually corrupt clouds — every other fault kind
                // maps at full speed while tracing.
                let pristine = match (&self.fault_hook, &self.trace_sink) {
                    (Some(hook), Some(_)) if hook.corrupts_depth_clouds() => {
                        Some(cloud.points.clone())
                    }
                    _ => None,
                };
                if let Some(hook) = self.fault_hook.as_mut() {
                    hook.pre_mapping(time, &mut cloud);
                }
                let (dropped, displaced) = pristine
                    .map(|before| cloud_tampering(&before, &cloud.points))
                    .unwrap_or((0, 0));
                let inserted =
                    self.system
                        .mapping
                        .integrate(estimated_pose.position, &cloud, ground_z);
                if let Some(sink) = self.trace_sink.as_mut() {
                    sink.on_mapping(time, inserted, dropped, displaced);
                }
                self.compute.submit(
                    TaskKind::Mapping,
                    self.config.workload.mapping_cost(inserted),
                );
                self.compute.set_resident_memory(
                    TaskKind::Mapping,
                    80.0 + self.system.mapping.memory_bytes() as f64 / (1024.0 * 1024.0),
                );
                PhaseBudget::charge(&mut budget.mapping, mapping_started);
            }

            // Detection module.
            if time >= next_detection {
                next_detection = time + 1.0 / self.system.config.detection_rate_hz;
                let sensors_started = observing.then(Instant::now);
                let mut image = self.uav.capture_image(&world);
                PhaseBudget::charge(&mut budget.sensors, sensors_started);
                let perception_started = observing.then(Instant::now);
                if let Some(hook) = self.fault_hook.as_mut() {
                    hook.pre_detection(time, &mut image);
                }
                let faulted = self.fault_hook.is_some();
                let true_pose = self.uav.true_state().pose();
                let target_visible = self
                    .uav
                    .downward_camera()
                    .project_world_point(&true_pose, true_target)
                    .map(|px| self.uav.downward_camera().intrinsics.in_bounds(px))
                    .unwrap_or(false)
                    && true_pose.position.distance(true_target) <= self.config.visibility_range;
                let mut observations = self.system.detection.process_frame(
                    self.uav.downward_camera(),
                    &image,
                    &estimated_pose,
                    ground_z,
                    time,
                    target_visible,
                );
                if let Some(sink) = self.trace_sink.as_mut() {
                    sink.on_observations(time, ObservationStage::PreFault, &observations);
                }
                if let Some(hook) = self.fault_hook.as_mut() {
                    hook.post_detection(time, &mut observations);
                }
                if faulted {
                    if let Some(sink) = self.trace_sink.as_mut() {
                        sink.on_observations(time, ObservationStage::PostFault, &observations);
                    }
                }
                for obs in &observations {
                    if obs.id == self.scenario.target_marker_id {
                        detection_errors.push(obs.world_position.horizontal_distance(true_target));
                    }
                }
                pending_observations.extend(observations);
                frames_since_decision += 1;
                self.compute.submit(
                    TaskKind::MarkerDetection,
                    self.config
                        .workload
                        .detection_cost(self.system.detection.inference_cost()),
                );
                self.compute.submit(
                    TaskKind::CameraPipeline,
                    self.config.workload.camera_per_frame,
                );
                PhaseBudget::charge(&mut budget.perception, perception_started);
            }

            // Decision module.
            if time >= next_decision {
                next_decision = time + 1.0 / self.system.config.decision_rate_hz;
                let decision_inputs = crate::decision::DecisionInputs {
                    time,
                    position: estimated_pose.position,
                    observations: &pending_observations,
                    frames_processed: frames_since_decision,
                    landed: state.landed,
                    ground_z,
                };
                let decision_started = observing.then(Instant::now);
                let new_directive = self
                    .system
                    .decision
                    .update(&decision_inputs, self.system.mapping.as_query());
                PhaseBudget::charge(&mut budget.decision, decision_started);
                pending_observations.clear();
                frames_since_decision = 0;
                self.compute
                    .submit(TaskKind::DecisionMaking, self.config.workload.decision_tick);

                // A goal counts as "changed" only when it moved appreciably;
                // the staged-descent goal drifts a few centimetres every tick
                // as the target estimate is refined, and replanning at the
                // decision rate for that would swamp the planner (and, on the
                // Jetson profile, the whole CPU).
                let goal_changed =
                    match (directive_goal(&new_directive), directive_goal(&directive)) {
                        (Some(new), Some(old)) => new.distance(old) > 0.75,
                        (new, old) => new.is_some() != old.is_some(),
                    };
                directive = new_directive;
                if let Some(sink) = self.trace_sink.as_mut() {
                    sink.on_directive(time, &directive);
                }

                match &directive {
                    Directive::FlyTo { goal } | Directive::DescendTo { goal } => {
                        let need_replan = goal_changed
                            || active_trajectory.is_none() && pending_trajectory.is_none()
                            || time - last_replan > self.system.config.replan_interval;
                        if need_replan {
                            last_replan = time;
                            if let Some(sink) = self.trace_sink.as_mut() {
                                sink.on_plan_request(time, estimated_pose.position, *goal);
                            }
                            // Planner-starvation seam: the hook may scale
                            // this query's search budget down.
                            let budget_scale = self
                                .fault_hook
                                .as_mut()
                                .map_or(1.0, |hook| hook.pre_planning(time));
                            let planning_started = observing.then(Instant::now);
                            let planned = self.system.planning.plan_with_budget(
                                self.system.mapping.as_query(),
                                estimated_pose.position,
                                *goal,
                                budget_scale,
                            );
                            PhaseBudget::charge(&mut budget.planning, planning_started);
                            match planned {
                                Ok(planned) => {
                                    let outcome = self.compute.submit(
                                        TaskKind::PathPlanning,
                                        self.config.workload.planning_cost(planned.iterations),
                                    );
                                    worst_planning_latency =
                                        worst_planning_latency.max(outcome.latency);
                                    if let Some(sink) = self.trace_sink.as_mut() {
                                        sink.on_plan_result(
                                            time,
                                            true,
                                            planned.used_fallback,
                                            outcome.latency,
                                            planned.iterations,
                                        );
                                    }
                                    pending_trajectory =
                                        Some((planned.trajectory, time + outcome.latency));
                                }
                                Err(_) => {
                                    directive = self.system.decision.notify_planning_failure(time);
                                    if let Some(sink) = self.trace_sink.as_mut() {
                                        sink.on_plan_result(time, false, false, 0.0, 0);
                                        sink.on_directive(time, &directive);
                                    }
                                }
                            }
                        }
                    }
                    Directive::Hover => {
                        active_trajectory = None;
                        pending_trajectory = None;
                        self.uav.autopilot_mut().hold();
                    }
                    Directive::CommitFinalDescent { target } => {
                        active_trajectory = None;
                        pending_trajectory = None;
                        self.uav.autopilot_mut().goto(
                            Vec3::new(target.x, target.y, ground_z),
                            estimated_pose.yaw(),
                        );
                    }
                    Directive::Abort { reason } => {
                        failsafe = Some(*reason);
                        if let Some(sink) = self.trace_sink.as_mut() {
                            sink.on_failsafe(time, *reason);
                        }
                        break;
                    }
                    Directive::MissionComplete => {
                        break;
                    }
                }
            }

            // Trajectory following: a freshly planned trajectory only takes
            // effect once the compute platform has finished producing it.
            if let Some((trajectory, ready_at)) = &pending_trajectory {
                if time >= *ready_at {
                    active_trajectory = Some((trajectory.clone(), time));
                    pending_trajectory = None;
                }
            }
            if matches!(
                directive,
                Directive::FlyTo { .. } | Directive::DescendTo { .. }
            ) {
                if let Some((trajectory, started_at)) = &active_trajectory {
                    let sample = trajectory.sample(time - started_at);
                    let yaw = if sample.velocity.horizontal().norm() > 0.3 {
                        sample.velocity.y.atan2(sample.velocity.x)
                    } else {
                        estimated_pose.yaw()
                    };
                    self.uav.autopilot_mut().goto(sample.position, yaw);
                }
            }

            self.compute.end_tick(time);
        }

        // Final classification.
        let final_state = *self.uav.true_state();
        let landed = final_state.landed;
        let landing_error = landed.then(|| final_state.position.horizontal_distance(true_target));
        let result = if collisions > 0 || hard_impact {
            if hard_impact {
                collisions += 1;
            }
            MissionResult::CollisionFailure
        } else if landed
            && failsafe.is_none()
            && landing_error
                .map(|e| e <= self.config.success_radius)
                .unwrap_or(false)
        {
            MissionResult::Success
        } else {
            MissionResult::PoorLanding
        };

        let mean_detection_error = if detection_errors.is_empty() {
            None
        } else {
            Some(detection_errors.iter().sum::<f64>() / detection_errors.len() as f64)
        };

        if let Some(sink) = self.trace_sink.as_mut() {
            sink.on_mission_end(time, result);
        }

        let outcome = MissionOutcome {
            scenario_id: self.scenario.id,
            scenario_name: self.scenario.name.clone(),
            seed: self.seed,
            adverse_weather: self.scenario.is_adverse(),
            variant: self.system.variant,
            result,
            landed,
            landing_error,
            mean_detection_error,
            collisions,
            failsafe,
            duration: time,
            detection_stats: self.system.detection.stats(),
            planning_failures: self.system.planning.plans_failed(),
            planning_fallbacks: self.system.planning.fallbacks_used(),
            landing_aborts: self.system.decision.landing_aborts(),
            mean_cpu: self.compute.average_cpu(),
            peak_memory_mb: self.compute.peak_memory(),
            worst_planning_latency,
            estimation_error: self.uav.estimation_error(),
            gps_drift: self.uav.gps_drift().norm(),
        };

        // Mission-end telemetry: real per-phase wall-clock into the obs
        // histograms, plus one `mission_phases` event that carries both the
        // measured phase times and the *simulated* compute figures the
        // report keeps, so the two can be compared offline.
        if let Some(started) = mission_started {
            let wall = started.elapsed().as_secs_f64();
            instruments::mission_wall_seconds().observe(wall);
            instruments::control_seconds().observe(budget.control);
            instruments::mapping_seconds().observe(budget.mapping);
            instruments::perception_seconds().observe(budget.perception);
            instruments::sensors_seconds().observe(budget.sensors);
            instruments::planning_seconds().observe(budget.planning);
            instruments::decision_seconds().observe(budget.decision);
            mls_obs::event(
                "mission_phases",
                &[
                    ("scenario_id", outcome.scenario_id.into()),
                    ("scenario", outcome.scenario_name.as_str().into()),
                    ("seed", outcome.seed.into()),
                    ("variant", outcome.variant.label().into()),
                    ("result", result_label(outcome.result).into()),
                    ("sim_duration_s", outcome.duration.into()),
                    ("ticks", budget.ticks.into()),
                    ("wall_s", wall.into()),
                    ("control_s", budget.control.into()),
                    ("mapping_s", budget.mapping.into()),
                    ("perception_s", budget.perception.into()),
                    ("sensors_s", budget.sensors.into()),
                    ("planning_s", budget.planning.into()),
                    ("decision_s", budget.decision.into()),
                    ("sim_mean_cpu", outcome.mean_cpu.into()),
                    ("sim_peak_memory_mb", outcome.peak_memory_mb.into()),
                ],
            );
        }
        (outcome, self.compute)
    }
}

/// Index-aligned approximation of how much a fault hook tampered with a
/// depth cloud: `dropped` is the point-count difference, `displaced` the
/// number of index-aligned pairs that moved. Exact when the hook displaces
/// in place and drops from the tail; an upper bound on `displaced` when
/// dropout shuffles indices — either way, a non-zero count means tampering.
fn cloud_tampering(before: &[Vec3], after: &[Vec3]) -> (usize, usize) {
    let dropped = before.len().saturating_sub(after.len());
    let displaced = before
        .iter()
        .zip(after.iter())
        .filter(|(b, a)| b.distance(**a) > 1e-9)
        .count();
    (dropped, displaced)
}

/// The goal position a directive points at, for change detection.
fn directive_goal(directive: &Directive) -> Option<Vec3> {
    match directive {
        Directive::FlyTo { goal } | Directive::DescendTo { goal } => Some(*goal),
        Directive::CommitFinalDescent { target } => Some(*target),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LandingConfig;
    use mls_compute::ComputeProfile;
    use mls_sim_world::{MapStyle, ScenarioConfig, ScenarioGenerator};

    /// A small, benign scenario that should be landable by V3.
    fn easy_scenario() -> mls_sim_world::Scenario {
        let config = ScenarioConfig {
            maps: 1,
            scenarios_per_map: 2,
            target_distance: (25.0, 30.0),
            ..ScenarioConfig::default()
        };
        let generator = ScenarioGenerator::new(config);
        // Scenario 0 of map 0 is rural + normal weather.
        let scenarios = generator.generate_benchmark(77).unwrap();
        let s = scenarios.into_iter().next().unwrap();
        assert_eq!(s.map.style, MapStyle::Rural);
        s
    }

    fn run_variant(variant: SystemVariant) -> MissionOutcome {
        let scenario = easy_scenario();
        let compute = ComputeModel::new(ComputeProfile::desktop_sil()).unwrap();
        let executor = MissionExecutor::for_variant(
            &scenario,
            variant,
            LandingConfig::default(),
            compute,
            ExecutorConfig::default(),
            11,
        )
        .unwrap();
        executor.run()
    }

    /// A sink that counts what it saw, for seam tests.
    #[derive(Debug, Default)]
    struct CountingSink {
        ticks: usize,
        directives: usize,
        plans: usize,
        mappings: usize,
        observations: usize,
        ended: Option<MissionResult>,
    }

    impl crate::trace::TraceSink for CountingSink {
        fn on_tick(
            &mut self,
            _time: f64,
            _state: &mls_sim_uav::VehicleState,
            _estimated: Vec3,
            _gps_drift: f64,
            _estimation_error: f64,
        ) {
            self.ticks += 1;
        }
        fn on_mapping(&mut self, _time: f64, _inserted: usize, _dropped: usize, _displaced: usize) {
            self.mappings += 1;
        }
        fn on_observations(
            &mut self,
            _time: f64,
            _stage: crate::trace::ObservationStage,
            _observations: &[MarkerObservation],
        ) {
            self.observations += 1;
        }
        fn on_directive(&mut self, _time: f64, _directive: &Directive) {
            self.directives += 1;
        }
        fn on_plan_request(&mut self, _time: f64, _start: Vec3, _goal: Vec3) {
            self.plans += 1;
        }
        fn on_mission_end(&mut self, _time: f64, result: MissionResult) {
            self.ended = Some(result);
        }
    }

    #[test]
    fn trace_sink_sees_every_module_boundary() {
        use std::sync::{Arc, Mutex};

        /// Forwards to a shared counter so the test can inspect it after
        /// `run()` consumed the executor.
        struct SharedSink(Arc<Mutex<CountingSink>>);
        impl crate::trace::TraceSink for SharedSink {
            fn on_tick(
                &mut self,
                time: f64,
                state: &mls_sim_uav::VehicleState,
                estimated: Vec3,
                gps_drift: f64,
                estimation_error: f64,
            ) {
                self.0
                    .lock()
                    .unwrap()
                    .on_tick(time, state, estimated, gps_drift, estimation_error);
            }
            fn on_mapping(&mut self, time: f64, inserted: usize, dropped: usize, displaced: usize) {
                self.0
                    .lock()
                    .unwrap()
                    .on_mapping(time, inserted, dropped, displaced);
            }
            fn on_observations(
                &mut self,
                time: f64,
                stage: crate::trace::ObservationStage,
                observations: &[MarkerObservation],
            ) {
                self.0
                    .lock()
                    .unwrap()
                    .on_observations(time, stage, observations);
            }
            fn on_directive(&mut self, time: f64, directive: &Directive) {
                self.0.lock().unwrap().on_directive(time, directive);
            }
            fn on_plan_request(&mut self, time: f64, start: Vec3, goal: Vec3) {
                self.0.lock().unwrap().on_plan_request(time, start, goal);
            }
            fn on_mission_end(&mut self, time: f64, result: MissionResult) {
                self.0.lock().unwrap().on_mission_end(time, result);
            }
        }

        let counters = Arc::new(Mutex::new(CountingSink::default()));
        let scenario = easy_scenario();
        let compute = ComputeModel::new(ComputeProfile::desktop_sil()).unwrap();
        let outcome = MissionExecutor::for_variant(
            &scenario,
            SystemVariant::MlsV3,
            LandingConfig::default(),
            compute,
            ExecutorConfig::default(),
            11,
        )
        .unwrap()
        .with_trace_sink(Box::new(SharedSink(Arc::clone(&counters))))
        .run();

        let seen = counters.lock().unwrap();
        assert!(seen.ticks > 100, "physics ticks observed: {}", seen.ticks);
        assert!(seen.directives > 0);
        assert!(seen.plans > 0);
        assert!(seen.mappings > 0, "V3 maps, so mapping events must appear");
        assert!(seen.observations > 0);
        assert_eq!(seen.ended, Some(outcome.result));
    }

    #[test]
    fn cloud_tampering_counts_drops_and_displacements() {
        let before = vec![
            Vec3::new(1.0, 0.0, 2.0),
            Vec3::new(2.0, 0.0, 2.0),
            Vec3::new(3.0, 0.0, 2.0),
        ];
        assert_eq!(cloud_tampering(&before, &before), (0, 0));
        let shifted: Vec<Vec3> = before
            .iter()
            .map(|p| *p + Vec3::new(0.5, 0.0, 0.0))
            .collect();
        assert_eq!(cloud_tampering(&before, &shifted), (0, 3));
        let truncated = &shifted[..2];
        assert_eq!(cloud_tampering(&before, truncated), (1, 2));
    }

    #[test]
    fn v3_lands_a_benign_rural_scenario() {
        let outcome = run_variant(SystemVariant::MlsV3);
        assert_eq!(
            outcome.result,
            MissionResult::Success,
            "expected success, got {outcome:?}"
        );
        assert!(outcome.landing_error.unwrap() < 1.0);
        assert!(outcome.detection_stats.total_frames > 5);
        assert!(outcome.mean_cpu > 0.0);
        assert!(outcome.duration > 10.0);
    }

    #[test]
    fn outcome_records_scenario_metadata() {
        let outcome = run_variant(SystemVariant::MlsV1);
        assert_eq!(outcome.variant, SystemVariant::MlsV1);
        assert_eq!(outcome.seed, 11, "the mission seed rides on the outcome");
        assert!(!outcome.scenario_name.is_empty());
        // Whatever happened, the classification is one of the three buckets.
        assert!(matches!(
            outcome.result,
            MissionResult::Success | MissionResult::CollisionFailure | MissionResult::PoorLanding
        ));
    }
}
