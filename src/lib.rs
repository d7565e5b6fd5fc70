//! Facade crate for the autonomous marker-based landing system reproduction.
//!
//! The workspace reproduces, in pure Rust, the system described in *"Towards
//! Robust Autonomous Landing Systems: Iterative Solutions and Key Lessons
//! Learned"* (DSN 2025): three generations of a multi-module UAV landing
//! stack (marker detection, occupancy mapping, path planning, decision
//! making) evaluated in software-in-the-loop, hardware-in-the-loop and
//! real-world-like conditions.
//!
//! This crate simply re-exports the workspace members under one roof so the
//! examples and downstream users can depend on a single crate:
//!
//! * [`geom`] — vectors, poses, rays, voxel indices.
//! * [`vision`] — synthetic camera, marker dictionary, classical and learned
//!   detectors, image degradations.
//! * [`mapping`] — dense local voxel grid and global probabilistic octree.
//! * [`planning`] — bounded A*, RRT*, trajectories and safety checks.
//! * [`sim_world`] — procedural worlds, weather, benchmark scenarios.
//! * [`sim_uav`] — quadrotor dynamics, autopilot (PID + EKF), sensors.
//! * [`compute`] — desktop / Jetson Nano compute-platform models.
//! * [`core`] — the landing system itself: modules, state machine, the
//!   MLS-V1/V2/V3 variants, mission executor and metrics.
//! * [`campaign`] — the sharded fault-injection campaign engine: declarative
//!   sweeps over scenarios × variants × compute profiles × fault plans,
//!   deterministic JSON/CSV reports, and falsification search for the
//!   minimal failure-inducing fault intensity.
//! * [`trace`] — the flight recorder: ring-buffered per-mission trace
//!   capture, a versioned JSON-lines format, byte-exact replay verification
//!   and the Fig. 5 failure-triage classifier.
//!
//! # Examples
//!
//! ```no_run
//! use mls_landing::compute::{ComputeModel, ComputeProfile};
//! use mls_landing::core::{ExecutorConfig, LandingConfig, MissionExecutor, SystemVariant};
//! use mls_landing::sim_world::{ScenarioConfig, ScenarioGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenarios = ScenarioGenerator::new(ScenarioConfig::default()).generate_benchmark(2025)?;
//! let compute = ComputeModel::new(ComputeProfile::desktop_sil())?;
//! let executor = MissionExecutor::for_variant(
//!     &scenarios[0],
//!     SystemVariant::MlsV3,
//!     LandingConfig::default(),
//!     compute,
//!     ExecutorConfig::default(),
//!     1,
//! )?;
//! println!("{:?}", executor.run().result);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mls_campaign as campaign;
pub use mls_compute as compute;
pub use mls_core as core;
pub use mls_geom as geom;
pub use mls_mapping as mapping;
pub use mls_planning as planning;
pub use mls_sim_uav as sim_uav;
pub use mls_sim_world as sim_world;
pub use mls_trace as trace;
pub use mls_vision as vision;
