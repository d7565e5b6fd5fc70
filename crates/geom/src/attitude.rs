//! Vehicle attitude represented as roll / pitch / yaw Euler angles.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{wrap_angle, Vec3};

/// Vehicle attitude as intrinsic Z-Y-X (yaw-pitch-roll) Euler angles, radians.
///
/// This is the representation used by the simulated autopilot and the camera
/// models. Full quaternion kinematics are unnecessary for the landing
/// scenarios in the paper (attitudes stay far from gimbal lock: the vehicle is
/// a multirotor in near-hover flight), so the simpler Euler form is used and
/// its limitations documented here.
///
/// # Examples
///
/// ```
/// use mls_geom::{Attitude, Vec3};
///
/// // A 90° yaw turns the body-x axis from east to north.
/// let att = Attitude::from_yaw(std::f64::consts::FRAC_PI_2);
/// let world = att.body_to_world(Vec3::UNIT_X);
/// assert!((world - Vec3::UNIT_Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Attitude {
    /// Roll about the body x axis, radians.
    pub roll: f64,
    /// Pitch about the body y axis, radians.
    pub pitch: f64,
    /// Yaw about the world z axis, radians.
    pub yaw: f64,
}

impl Attitude {
    /// The level attitude with zero yaw.
    pub const LEVEL: Attitude = Attitude {
        roll: 0.0,
        pitch: 0.0,
        yaw: 0.0,
    };

    /// Creates an attitude from roll, pitch and yaw in radians.
    #[inline]
    pub const fn new(roll: f64, pitch: f64, yaw: f64) -> Self {
        Self { roll, pitch, yaw }
    }

    /// Creates a level attitude with the given yaw.
    #[inline]
    pub const fn from_yaw(yaw: f64) -> Self {
        Self {
            roll: 0.0,
            pitch: 0.0,
            yaw,
        }
    }

    /// Returns the attitude with every angle wrapped into `(-π, π]`.
    #[inline]
    pub fn wrapped(self) -> Self {
        Self {
            roll: wrap_angle(self.roll),
            pitch: wrap_angle(self.pitch),
            yaw: wrap_angle(self.yaw),
        }
    }

    /// The body-to-world rotation matrix in row-major order.
    pub fn rotation_matrix(self) -> [[f64; 3]; 3] {
        let (sr, cr) = self.roll.sin_cos();
        let (sp, cp) = self.pitch.sin_cos();
        let (sy, cy) = self.yaw.sin_cos();
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    }

    /// Rotates a vector from the body frame into the world frame.
    pub fn body_to_world(self, v: Vec3) -> Vec3 {
        apply_rotation(&self.rotation_matrix(), v)
    }

    /// Rotates a vector from the world frame into the body frame.
    pub fn world_to_body(self, v: Vec3) -> Vec3 {
        // Rotation matrices are orthonormal, so the inverse is the transpose.
        let m = self.rotation_matrix();
        Vec3::new(
            m[0][0] * v.x + m[1][0] * v.y + m[2][0] * v.z,
            m[0][1] * v.x + m[1][1] * v.y + m[2][1] * v.z,
            m[0][2] * v.x + m[1][2] * v.y + m[2][2] * v.z,
        )
    }

    /// The unit vector the body x axis (vehicle "forward") points at in the
    /// world frame.
    #[inline]
    pub fn forward(self) -> Vec3 {
        self.body_to_world(Vec3::UNIT_X)
    }

    /// The unit vector the body z axis (vehicle "up") points at in the world
    /// frame.
    #[inline]
    pub fn up(self) -> Vec3 {
        self.body_to_world(Vec3::UNIT_Z)
    }

    /// Magnitude of the tilt away from level flight, radians.
    ///
    /// Zero for a level vehicle, π for an inverted one. Used by the landing
    /// safety checks (a strongly tilted vehicle must not start its final
    /// descent).
    pub fn tilt(self) -> f64 {
        self.up().dot(Vec3::UNIT_Z).clamp(-1.0, 1.0).acos()
    }

    /// `true` if all angles are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.roll.is_finite() && self.pitch.is_finite() && self.yaw.is_finite()
    }
}

/// Multiplies a row-major rotation matrix, as returned by
/// [`Attitude::rotation_matrix`], with a vector.
///
/// [`Attitude::body_to_world`] is this applied to its own matrix, so a caller
/// that rotates many vectors by one attitude can build the matrix once and
/// get bit-identical results.
#[inline]
pub fn apply_rotation(m: &[[f64; 3]; 3], v: Vec3) -> Vec3 {
    Vec3::new(
        m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
        m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
        m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
    )
}

impl fmt::Display for Attitude {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rpy({:.3}, {:.3}, {:.3})",
            self.roll, self.pitch, self.yaw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    fn approx(a: Vec3, b: Vec3) -> bool {
        (a - b).norm() < 1e-9
    }

    #[test]
    fn level_attitude_is_identity() {
        let att = Attitude::LEVEL;
        for v in [
            Vec3::UNIT_X,
            Vec3::UNIT_Y,
            Vec3::UNIT_Z,
            Vec3::new(1.0, 2.0, 3.0),
        ] {
            assert!(approx(att.body_to_world(v), v));
            assert!(approx(att.world_to_body(v), v));
        }
        assert_eq!(att.tilt(), 0.0);
    }

    #[test]
    fn yaw_rotates_forward_vector() {
        let att = Attitude::from_yaw(FRAC_PI_2);
        assert!(approx(att.forward(), Vec3::UNIT_Y));
        let att = Attitude::from_yaw(PI);
        assert!(approx(att.forward(), -Vec3::UNIT_X));
    }

    #[test]
    fn pitch_tilts_up_vector() {
        let att = Attitude::new(0.0, FRAC_PI_4, 0.0);
        assert!((att.tilt() - FRAC_PI_4).abs() < 1e-9);
        let att = Attitude::new(FRAC_PI_4, 0.0, 1.3);
        assert!((att.tilt() - FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn world_to_body_inverts_body_to_world() {
        let att = Attitude::new(0.1, -0.2, 2.2);
        for v in [
            Vec3::new(1.0, -2.0, 0.5),
            Vec3::UNIT_Z,
            Vec3::new(-3.0, 7.0, -1.0),
        ] {
            let roundtrip = att.world_to_body(att.body_to_world(v));
            assert!(approx(roundtrip, v));
        }
    }

    #[test]
    fn rotation_preserves_length() {
        let att = Attitude::new(0.3, -0.7, 1.9);
        let v = Vec3::new(2.0, -1.0, 4.0);
        assert!((att.body_to_world(v).norm() - v.norm()).abs() < 1e-9);
    }

    #[test]
    fn hoisted_matrix_rotates_bit_for_bit() {
        let vectors = [
            Vec3::new(0.31, -0.12, -0.94),
            Vec3::new(-2.0, 7.5, 0.25),
            Vec3::UNIT_Z,
        ];
        for r in -6..=6 {
            for p in -6..=6 {
                for y in -8..=8 {
                    let att = Attitude::new(r as f64 * 0.27, p as f64 * 0.23, y as f64 * 0.41);
                    let m = att.rotation_matrix();
                    for v in vectors {
                        let (a, b) = (apply_rotation(&m, v), att.body_to_world(v));
                        assert_eq!(
                            [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                            [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()],
                            "{att} {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wrapped_brings_angles_into_range() {
        let att = Attitude::new(3.0 * PI, -5.0 * PI, 7.0).wrapped();
        assert!(att.roll.abs() <= PI + 1e-12);
        assert!(att.pitch.abs() <= PI + 1e-12);
        assert!(att.yaw.abs() <= PI + 1e-12);
    }

    #[test]
    fn display_and_finiteness() {
        assert!(!format!("{}", Attitude::LEVEL).is_empty());
        assert!(Attitude::LEVEL.is_finite());
        assert!(!Attitude::new(f64::NAN, 0.0, 0.0).is_finite());
    }
}
