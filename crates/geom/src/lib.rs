//! Geometry primitives shared by every crate of the autonomous-landing
//! reproduction.
//!
//! The simulation, mapping, planning and vision crates all operate on a small
//! set of geometric types: 3-D vectors ([`Vec3`]), 2-D vectors ([`Vec2`]),
//! vehicle poses ([`Pose`], [`Attitude`]), axis-aligned boxes ([`Aabb`]),
//! rays ([`Ray`]) and integer voxel indices ([`VoxelIndex`]). This crate keeps
//! them dependency-free and heavily tested so the higher layers can focus on
//! the paper's algorithms.
//!
//! All distances are metres, all angles radians, and the world frame is ENU
//! (x east, y north, z up) — the same convention the paper's PX4-based stack
//! uses for its local frame.
//!
//! # Examples
//!
//! ```
//! use mls_geom::{Vec3, Aabb, Ray};
//!
//! let building = Aabb::from_center_half_extents(Vec3::new(10.0, 0.0, 5.0), Vec3::new(5.0, 5.0, 5.0));
//! let ray = Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::new(1.0, 0.0, 0.0));
//! let hit = building.ray_intersection(&ray).expect("ray points at the building");
//! assert!((hit - 5.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
mod angle;
mod attitude;
mod pose;
mod ray;
mod vec2;
mod vec3;
mod voxel;

pub use aabb::Aabb;
pub use angle::{clamp, deg_to_rad, rad_to_deg, wrap_angle};
pub use attitude::{apply_rotation, Attitude};
pub use pose::Pose;
pub use ray::{segment_point_distance, Ray};
pub use vec2::Vec2;
pub use vec3::Vec3;
pub use voxel::VoxelIndex;
