//! Pinhole camera model for the downward-facing marker camera.

use mls_geom::{Pose, Ray, Vec2, Vec3};
use serde::{Deserialize, Serialize};

use crate::VisionError;

/// Pinhole camera intrinsics.
///
/// The camera frame follows the usual computer-vision convention: `+x` right
/// in the image, `+y` down in the image, `+z` out of the lens along the
/// optical axis. [`CameraMount`] maps this frame onto the vehicle body.
///
/// # Examples
///
/// ```
/// use mls_geom::Vec3;
/// use mls_vision::CameraIntrinsics;
///
/// let cam = CameraIntrinsics::with_horizontal_fov(160, 120, 70f64.to_radians());
/// // A point straight ahead on the optical axis projects to the center.
/// let px = cam.project(Vec3::new(0.0, 0.0, 5.0)).unwrap();
/// assert!((px.x - 80.0).abs() < 1e-9);
/// assert!((px.y - 60.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CameraIntrinsics {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Focal length along x, pixels.
    pub fx: f64,
    /// Focal length along y, pixels.
    pub fy: f64,
    /// Principal point x, pixels.
    pub cx: f64,
    /// Principal point y, pixels.
    pub cy: f64,
}

impl CameraIntrinsics {
    /// Creates intrinsics from explicit parameters.
    pub fn new(width: usize, height: usize, fx: f64, fy: f64, cx: f64, cy: f64) -> Self {
        Self {
            width,
            height,
            fx,
            fy,
            cx,
            cy,
        }
    }

    /// Creates intrinsics from a horizontal field of view (radians) with the
    /// principal point at the image center and square pixels.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the field of view is not in `(0, π)`.
    pub fn with_horizontal_fov(width: usize, height: usize, fov: f64) -> Self {
        debug_assert!(
            fov > 0.0 && fov < std::f64::consts::PI,
            "fov must be in (0, pi)"
        );
        let fx = width as f64 / (2.0 * (fov / 2.0).tan());
        Self {
            width,
            height,
            fx,
            fy: fx,
            cx: width as f64 / 2.0,
            cy: height as f64 / 2.0,
        }
    }

    /// Default configuration mimicking the downward RealSense D435i colour
    /// stream scaled to a companion-computer-friendly resolution.
    pub fn downward_default() -> Self {
        Self::with_horizontal_fov(160, 120, 69.4f64.to_radians())
    }

    /// Projects a point expressed in the camera frame into pixel coordinates.
    ///
    /// Returns `None` for points at or behind the image plane (`z <= 0`);
    /// points outside the sensor bounds are still returned (callers check
    /// [`CameraIntrinsics::in_bounds`] when needed).
    pub fn project(&self, p_cam: Vec3) -> Option<Vec2> {
        if p_cam.z <= 1e-9 {
            return None;
        }
        Some(Vec2::new(
            self.cx + self.fx * p_cam.x / p_cam.z,
            self.cy + self.fy * p_cam.y / p_cam.z,
        ))
    }

    /// The unit-norm direction in the camera frame corresponding to a pixel.
    pub fn unproject(&self, pixel: Vec2) -> Vec3 {
        Vec3::new(
            (pixel.x - self.cx) / self.fx,
            (pixel.y - self.cy) / self.fy,
            1.0,
        )
        .normalized_or_x()
    }

    /// `true` if the pixel lies inside the sensor bounds.
    pub fn in_bounds(&self, pixel: Vec2) -> bool {
        pixel.x >= 0.0
            && pixel.y >= 0.0
            && pixel.x < self.width as f64
            && pixel.y < self.height as f64
    }
}

/// Mounting of a camera on the vehicle body.
///
/// The downward marker camera looks along `-z` of the body (straight down in
/// level flight); the forward depth camera looks along `+x`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CameraMount {
    /// Optical axis along body `-z` (down), image `+x` along body `+x`.
    Downward,
    /// Optical axis along body `+x` (forward), image `+x` along body `+y`.
    Forward,
}

/// A camera with intrinsics and a body mounting, able to map pixels to world
/// rays given the vehicle pose.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    /// Intrinsic parameters.
    pub intrinsics: CameraIntrinsics,
    /// How the camera is mounted on the body.
    pub mount: CameraMount,
}

impl Camera {
    /// Creates a camera from intrinsics and a mount.
    pub fn new(intrinsics: CameraIntrinsics, mount: CameraMount) -> Self {
        Self { intrinsics, mount }
    }

    /// The standard downward-facing marker camera.
    pub fn downward() -> Self {
        Self::new(CameraIntrinsics::downward_default(), CameraMount::Downward)
    }

    /// The standard forward-facing depth camera (used for obstacle sensing).
    pub fn forward(intrinsics: CameraIntrinsics) -> Self {
        Self::new(intrinsics, CameraMount::Forward)
    }

    /// Converts a camera-frame vector to a body-frame vector.
    pub(crate) fn camera_to_body(&self, v: Vec3) -> Vec3 {
        match self.mount {
            // Camera +x -> body +y (right), camera +y -> body -x? We define:
            // camera x (image right) -> body +y, camera y (image down) -> body +x,
            // camera z (optical axis) -> body -z. This yields an image whose
            // "up" direction is body -x; the exact in-plane orientation is
            // irrelevant for detection but must be consistent with
            // `body_to_camera`.
            CameraMount::Downward => Vec3::new(v.y, v.x, -v.z),
            // camera z (optical axis) -> body +x, camera x (image right) ->
            // body -y, camera y (image down) -> body -z.
            CameraMount::Forward => Vec3::new(v.z, -v.x, -v.y),
        }
    }

    /// Converts a body-frame vector to a camera-frame vector.
    fn body_to_camera(&self, v: Vec3) -> Vec3 {
        match self.mount {
            CameraMount::Downward => Vec3::new(v.y, v.x, -v.z),
            CameraMount::Forward => Vec3::new(-v.y, -v.z, v.x),
        }
    }

    /// The world-frame ray passing through `pixel` for a vehicle at
    /// `vehicle_pose`.
    pub fn pixel_ray(&self, vehicle_pose: &Pose, pixel: Vec2) -> Ray {
        let dir_cam = self.intrinsics.unproject(pixel);
        let dir_body = self.camera_to_body(dir_cam);
        let dir_world = vehicle_pose.transform_direction(dir_body);
        Ray::new(vehicle_pose.position, dir_world)
    }

    /// Projects a world point into pixel coordinates for a vehicle at
    /// `vehicle_pose`.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::BehindCamera`] when the point is behind the
    /// image plane.
    pub fn project_world_point(
        &self,
        vehicle_pose: &Pose,
        world: Vec3,
    ) -> Result<Vec2, VisionError> {
        let body = vehicle_pose.inverse_transform_point(world);
        let cam = self.body_to_camera(body);
        self.intrinsics
            .project(cam)
            .ok_or(VisionError::BehindCamera)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mls_geom::Attitude;

    #[test]
    fn project_unproject_roundtrip() {
        let cam = CameraIntrinsics::with_horizontal_fov(160, 120, 1.2);
        for p in [
            Vec3::new(0.0, 0.0, 3.0),
            Vec3::new(0.5, -0.2, 2.0),
            Vec3::new(-1.0, 1.0, 10.0),
        ] {
            let px = cam.project(p).unwrap();
            let dir = cam.unproject(px);
            // Direction must be parallel to the original point vector.
            let cos = dir.dot(p.normalized().unwrap());
            assert!(cos > 1.0 - 1e-9, "roundtrip direction mismatch: {cos}");
        }
    }

    #[test]
    fn points_behind_camera_are_rejected() {
        let cam = CameraIntrinsics::downward_default();
        assert!(cam.project(Vec3::new(0.0, 0.0, -1.0)).is_none());
        assert!(cam.project(Vec3::new(0.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn center_pixel_is_optical_axis() {
        let cam = CameraIntrinsics::with_horizontal_fov(100, 80, 1.0);
        let center = Vec2::new(50.0, 40.0);
        let dir = cam.unproject(center);
        assert!((dir - Vec3::new(0.0, 0.0, 1.0)).norm() < 1e-9);
        assert!(cam.in_bounds(center));
        assert!(!cam.in_bounds(Vec2::new(-1.0, 0.0)));
        assert!(!cam.in_bounds(Vec2::new(0.0, 80.0)));
    }

    #[test]
    fn downward_camera_center_ray_points_down_in_level_flight() {
        let camera = Camera::downward();
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 10.0), 0.3);
        let center = Vec2::new(camera.intrinsics.cx, camera.intrinsics.cy);
        let ray = camera.pixel_ray(&pose, center);
        assert!((ray.direction - Vec3::new(0.0, 0.0, -1.0)).norm() < 1e-9);
        assert_eq!(ray.origin, pose.position);
    }

    #[test]
    fn forward_camera_center_ray_points_forward() {
        let camera = Camera::forward(CameraIntrinsics::with_horizontal_fov(64, 48, 1.5));
        let pose = Pose::from_position_yaw(Vec3::new(1.0, 2.0, 5.0), 0.0);
        let center = Vec2::new(32.0, 24.0);
        let ray = camera.pixel_ray(&pose, center);
        assert!((ray.direction - Vec3::UNIT_X).norm() < 1e-9);
    }

    #[test]
    fn world_projection_roundtrip_downward() {
        let camera = Camera::downward();
        let pose = Pose::new(Vec3::new(2.0, -3.0, 12.0), Attitude::from_yaw(0.8));
        // A point on the ground below-ish the vehicle.
        let ground = Vec3::new(3.0, -2.0, 0.0);
        let px = camera.project_world_point(&pose, ground).unwrap();
        let ray = camera.pixel_ray(&pose, px);
        let t = ray.intersect_horizontal_plane(0.0).unwrap();
        let hit = ray.point_at(t);
        assert!((hit - ground).norm() < 1e-6, "hit {hit} != {ground}");
    }

    #[test]
    fn world_point_above_vehicle_is_behind_downward_camera() {
        let camera = Camera::downward();
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 10.0), 0.0);
        let above = Vec3::new(0.0, 0.0, 20.0);
        assert!(matches!(
            camera.project_world_point(&pose, above),
            Err(VisionError::BehindCamera)
        ));
    }
}
