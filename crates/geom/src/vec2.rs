//! Two-dimensional vector type, used for image-plane and ground-plane maths.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A 2-D vector of `f64` components.
///
/// Used both for ground-plane positions (metres) and image-plane coordinates
/// (pixels); the semantics are given by the surrounding API.
///
/// # Examples
///
/// ```
/// use mls_geom::Vec2;
///
/// let p = Vec2::new(3.0, 4.0);
/// assert!((p.norm() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// First component.
    pub x: f64,
    /// Second component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a new vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Creates a vector with both components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Self { x: v, y: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// The scalar ("z component of the") cross product.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Returns the unit vector in the same direction, or `None` for the zero
    /// vector.
    #[inline]
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Rotates the vector counter-clockwise by `angle` radians.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        self.rotated_sin_cos(s, c)
    }

    /// Rotates the vector counter-clockwise by the angle whose sine and
    /// cosine are given: [`Vec2::rotated`] with the trig computed by the
    /// caller, so many vectors can share one `sin_cos`.
    #[inline]
    pub fn rotated_sin_cos(self, sin: f64, cos: f64) -> Vec2 {
        Vec2::new(self.x * cos - self.y * sin, self.x * sin + self.y * cos)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// The polar angle of the vector in radians (`atan2(y, x)`).
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Lifts this vector to 3-D with the given z component.
    #[inline]
    pub fn with_z(self, z: f64) -> super::Vec3 {
        super::Vec3::new(self.x, self.y, z)
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl From<[f64; 2]> for Vec2 {
    fn from(a: [f64; 2]) -> Self {
        Vec2::new(a[0], a[1])
    }
}

impl From<Vec2> for [f64; 2] {
    fn from(v: Vec2) -> Self {
        [v.x, v.y]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(-3.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 4.0) / 4.0, a);
        assert_eq!(-(-a), a);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(FRAC_PI_2);
        assert!((v.x).abs() < 1e-12);
        assert!((v.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec2::new(3.0, -4.0);
        for k in 0..16 {
            let a = k as f64 * 0.5;
            assert!((v.rotated(a).norm() - v.norm()).abs() < 1e-9);
        }
    }

    #[test]
    fn angle_and_cross() {
        assert!((Vec2::new(0.0, 1.0).angle() - FRAC_PI_2).abs() < 1e-12);
        assert!(Vec2::new(1.0, 0.0).cross(Vec2::new(0.0, 1.0)) > 0.0);
        assert!(Vec2::new(0.0, 1.0).cross(Vec2::new(1.0, 0.0)) < 0.0);
    }

    #[test]
    fn lift_to_3d() {
        let v = Vec2::new(2.0, 3.0).with_z(5.0);
        assert_eq!(v, crate::Vec3::new(2.0, 3.0, 5.0));
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        let n = Vec2::new(0.0, -7.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_and_distance() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(4.0, 0.0);
        assert_eq!(a.lerp(b, 0.25), Vec2::new(1.0, 0.0));
        assert!((a.distance(b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn conversions_and_display() {
        let v = Vec2::new(1.5, -2.5);
        let arr: [f64; 2] = v.into();
        assert_eq!(Vec2::from(arr), v);
        assert!(!format!("{v}").is_empty());
        assert!(v.is_finite());
        assert!(!Vec2::new(f64::NAN, 0.0).is_finite());
    }
}
