//! Synthetic rendering of the downward camera view.
//!
//! This module replaces the AirSim / Unreal Engine image stream of the paper:
//! it renders the ground plane (with procedural texture), any fiducial
//! markers placed on it, and simple shadow/occlusion discs, as seen by a
//! pinhole camera mounted on the vehicle. The rendered [`GrayImage`] then
//! flows through the degradation model and the detectors exactly as a real
//! camera frame would.
//!
//! # Bit-exactness
//!
//! [`MarkerRenderer::render`] builds every per-frame constant once: the
//! body-to-world rotation matrix, the camera-frame coordinate of each
//! (sub)pixel column and row, and each marker's yaw trig, extents and cell
//! luminances. It also remembers the texture noise of the last ground cell
//! it shaded. Each hoisted value is computed with the expression and op
//! order the per-ray path used: [`Camera::pixel_ray`] through
//! `CameraIntrinsics::unproject`, [`mls_geom::apply_rotation`] (which
//! [`mls_geom::Attitude::body_to_world`] also calls) and
//! [`mls_geom::Vec2::rotated`]. Both normalisations stay per ray, as do every
//! division and `floor`. A frame is therefore the same bit for bit as one
//! shaded ray by ray; `tests/render_golden.rs` pins that on the mission
//! camera path, and any change that moves a pixel must re-bless it.

use mls_geom::{apply_rotation, Pose, Ray, Vec2, Vec3};
use serde::{Deserialize, Serialize};

use crate::{Camera, GrayImage, MarkerDictionary, MARKER_CELLS};

/// A fiducial marker placed flat on the ground plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarkerPlacement {
    /// Dictionary id of the marker.
    pub id: u32,
    /// Ground-plane position of the marker center (metres).
    pub center: Vec2,
    /// Side length of the printed marker including the black border (metres).
    pub size: f64,
    /// Yaw of the marker pattern on the ground (radians).
    pub yaw: f64,
}

impl MarkerPlacement {
    /// Creates a marker placement.
    pub fn new(id: u32, center: Vec2, size: f64, yaw: f64) -> Self {
        Self {
            id,
            center,
            size,
            yaw,
        }
    }
}

/// A dark elliptical patch on the ground, used to model shadows and partial
/// occlusions (e.g. foliage between the camera and the marker).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowDisc {
    /// Ground-plane center of the shadow (metres).
    pub center: Vec2,
    /// Radius of the shadow (metres).
    pub radius: f64,
    /// How much luminance the shadow removes, `0.0` (none) to `1.0` (black).
    pub darkness: f32,
}

/// Appearance of the terrain surrounding the markers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundAppearance {
    /// Height of the ground plane (metres, world z).
    pub ground_z: f64,
    /// Base luminance of the terrain.
    pub base_luminance: f32,
    /// Amplitude of the procedural texture noise.
    pub texture_amplitude: f32,
    /// Spatial scale of the texture (metres per noise cell).
    pub texture_scale: f64,
}

impl Default for GroundAppearance {
    fn default() -> Self {
        Self {
            ground_z: 0.0,
            base_luminance: 0.42,
            texture_amplitude: 0.08,
            texture_scale: 0.35,
        }
    }
}

/// Everything visible to the downward camera.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GroundScene {
    /// Terrain appearance.
    pub ground: GroundAppearance,
    /// Markers lying on the ground.
    pub markers: Vec<MarkerPlacement>,
    /// Shadows / occlusions.
    pub shadows: Vec<ShadowDisc>,
}

impl GroundScene {
    /// Creates an empty scene with default ground appearance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a marker and returns `self` for chaining.
    pub fn with_marker(mut self, marker: MarkerPlacement) -> Self {
        self.markers.push(marker);
        self
    }

    /// Adds a shadow and returns `self` for chaining.
    pub fn with_shadow(mut self, shadow: ShadowDisc) -> Self {
        self.shadows.push(shadow);
        self
    }
}

/// Renderer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RendererConfig {
    /// Luminance of white marker cells.
    pub marker_white: f32,
    /// Luminance of black marker cells.
    pub marker_black: f32,
    /// Width of the white quiet zone around the marker, as a fraction of the
    /// marker size.
    pub quiet_zone_fraction: f64,
    /// Luminance returned for rays that never hit the ground (sky).
    pub sky_luminance: f32,
    /// Per-axis supersampling factor for anti-aliasing (1 = off, 2 = 4 rays
    /// per pixel).
    pub supersampling: u8,
}

impl Default for RendererConfig {
    fn default() -> Self {
        Self {
            marker_white: 0.92,
            marker_black: 0.06,
            quiet_zone_fraction: 0.15,
            sky_luminance: 0.85,
            supersampling: 2,
        }
    }
}

/// Renders ground scenes into grayscale camera frames.
///
/// # Examples
///
/// ```
/// use mls_geom::{Pose, Vec2, Vec3};
/// use mls_vision::{Camera, GroundScene, MarkerDictionary, MarkerPlacement, MarkerRenderer};
///
/// let renderer = MarkerRenderer::new(MarkerDictionary::standard());
/// let scene = GroundScene::new().with_marker(MarkerPlacement::new(0, Vec2::ZERO, 1.0, 0.0));
/// let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.0);
/// let frame = renderer.render(&Camera::downward(), &pose, &scene);
/// assert_eq!(frame.width(), 160);
/// ```
#[derive(Debug, Clone)]
pub struct MarkerRenderer {
    dictionary: MarkerDictionary,
    config: RendererConfig,
}

impl MarkerRenderer {
    /// Creates a renderer with the default configuration.
    pub fn new(dictionary: MarkerDictionary) -> Self {
        Self {
            dictionary,
            config: RendererConfig::default(),
        }
    }

    /// Creates a renderer with an explicit configuration.
    pub fn with_config(dictionary: MarkerDictionary, config: RendererConfig) -> Self {
        Self { dictionary, config }
    }

    /// The dictionary used for marker appearance.
    pub fn dictionary(&self) -> &MarkerDictionary {
        &self.dictionary
    }

    /// The renderer configuration.
    pub fn config(&self) -> &RendererConfig {
        &self.config
    }

    /// Renders the scene as seen by `camera` on a vehicle at `vehicle_pose`.
    ///
    /// Markers whose id is not in the dictionary are rendered as plain white
    /// squares (they still look like "something marker-like", which is how
    /// false-positive markers are modelled in the scenario generator).
    pub fn render(&self, camera: &Camera, vehicle_pose: &Pose, scene: &GroundScene) -> GrayImage {
        let w = camera.intrinsics.width;
        let h = camera.intrinsics.height;
        let mut image = GrayImage::new(w, h);
        let ss = self.config.supersampling.max(1) as usize;
        let rays = FrameRays::new(camera, vehicle_pose, ss);
        let markers: Vec<PlacedMarker> = scene
            .markers
            .iter()
            .map(|marker| self.place(marker))
            .collect();
        let mut texture = GroundTexture::new(&scene.ground);
        for y in 0..h {
            for x in 0..w {
                let mut sum = 0.0f32;
                for sy in 0..ss {
                    for sx in 0..ss {
                        let ray = rays.ray(x * ss + sx, y * ss + sy);
                        sum += self.shade_ray(&ray, scene, &markers, &mut texture);
                    }
                }
                image.set(x, y, sum / (ss * ss) as f32);
            }
        }
        image
    }

    /// Luminance seen along the ray through a single (sub)pixel.
    fn shade_ray(
        &self,
        ray: &Ray,
        scene: &GroundScene,
        markers: &[PlacedMarker],
        texture: &mut GroundTexture,
    ) -> f32 {
        let Some(t) = ray.intersect_horizontal_plane(scene.ground.ground_z) else {
            return self.config.sky_luminance;
        };
        let hit = ray.point_at(t);
        let ground_point = Vec2::new(hit.x, hit.y);
        let mut lum = texture.luminance(ground_point);
        // Markers are painted on top of the terrain (last marker wins if they
        // overlap, which scenario generation avoids).
        for marker in markers {
            if let Some(marker_lum) = marker.luminance(ground_point) {
                lum = marker_lum;
            }
        }
        // Shadows multiply whatever is underneath, markers included.
        for shadow in &scene.shadows {
            let d = ground_point.distance(shadow.center);
            if d <= shadow.radius {
                // Soft edge over the outer 20 % of the radius.
                let edge_start = shadow.radius * 0.8;
                let strength = if d <= edge_start || shadow.radius <= edge_start {
                    1.0
                } else {
                    1.0 - ((d - edge_start) / (shadow.radius - edge_start)) as f32
                };
                lum *= 1.0 - shadow.darkness * strength;
            }
        }
        lum.clamp(0.0, 1.0)
    }

    /// A marker's per-frame constants.
    fn place(&self, marker: &MarkerPlacement) -> PlacedMarker {
        let (sin, cos) = (-marker.yaw).sin_cos();
        let half = marker.size / 2.0;
        let quiet = marker.size * self.config.quiet_zone_fraction;
        // Unknown ids render as a blank white square (decoy marker).
        let cells = self
            .dictionary
            .cells(marker.id)
            .unwrap_or([[1.0; MARKER_CELLS]; MARKER_CELLS])
            .map(|row| {
                row.map(|value| {
                    if value > 0.5 {
                        self.config.marker_white
                    } else {
                        self.config.marker_black
                    }
                })
            });
        PlacedMarker {
            center: marker.center,
            sin,
            cos,
            half,
            outer: half + quiet,
            cell_size: marker.size / MARKER_CELLS as f64,
            white: self.config.marker_white,
            cells,
        }
    }
}

/// The world ray through every (sub)pixel of one frame, from constants
/// built once per frame: the camera-frame x of every column and sub-column,
/// the camera-frame y of every row and sub-row, and the body-to-world
/// rotation. [`FrameRays::ray`] is [`Camera::pixel_ray`] with those parts
/// hoisted, bit for bit.
struct FrameRays<'a> {
    camera: &'a Camera,
    origin: Vec3,
    rotation: [[f64; 3]; 3],
    /// Camera-frame x of sub-column `x * ss + sx`.
    cols: Vec<f64>,
    /// Camera-frame y of sub-row `y * ss + sy`.
    rows: Vec<f64>,
}

impl<'a> FrameRays<'a> {
    fn new(camera: &'a Camera, vehicle_pose: &Pose, ss: usize) -> Self {
        let inv_ss = 1.0 / ss as f64;
        // The sub-pixel centre, then `CameraIntrinsics::unproject`'s offset
        // and division, in their op order.
        let axis = |len: usize, c: f64, f: f64| -> Vec<f64> {
            (0..len * ss)
                .map(|i| ((i / ss) as f64 + ((i % ss) as f64 + 0.5) * inv_ss - c) / f)
                .collect()
        };
        let k = &camera.intrinsics;
        Self {
            camera,
            origin: vehicle_pose.position,
            rotation: vehicle_pose.attitude.rotation_matrix(),
            cols: axis(k.width, k.cx, k.fx),
            rows: axis(k.height, k.cy, k.fy),
        }
    }

    /// The world ray through sub-column `col` and sub-row `row`.
    fn ray(&self, col: usize, row: usize) -> Ray {
        let dir_cam = Vec3::new(self.cols[col], self.rows[row], 1.0).normalized_or_x();
        let dir_world = apply_rotation(&self.rotation, self.camera.camera_to_body(dir_cam));
        Ray::new(self.origin, dir_world)
    }
}

/// A marker's per-frame constants: the trig of its yaw, its extents and the
/// luminance of each of its cells.
struct PlacedMarker {
    center: Vec2,
    /// Sine and cosine of `-yaw`, which maps the ground into the marker
    /// frame.
    sin: f64,
    cos: f64,
    half: f64,
    /// Half-size plus the quiet zone.
    outer: f64,
    cell_size: f64,
    white: f32,
    cells: [[f32; MARKER_CELLS]; MARKER_CELLS],
}

impl PlacedMarker {
    /// Luminance contributed by the marker at a ground point, or `None` when
    /// the point is outside the marker (and its quiet zone).
    fn luminance(&self, p: Vec2) -> Option<f32> {
        // Transform into the marker's local frame.
        let local = (p - self.center).rotated_sin_cos(self.sin, self.cos);
        let (half, outer) = (self.half, self.outer);
        if local.x.abs() > outer || local.y.abs() > outer {
            return None;
        }
        if local.x.abs() > half || local.y.abs() > half {
            // Quiet zone: white paper around the printed pattern.
            return Some(self.white);
        }
        // Inside the printed pattern: which cell?
        let col = (((local.x + half) / self.cell_size).floor() as i64)
            .clamp(0, MARKER_CELLS as i64 - 1) as usize;
        let row = (((half - local.y) / self.cell_size).floor() as i64)
            .clamp(0, MARKER_CELLS as i64 - 1) as usize;
        Some(self.cells[row][col])
    }
}

/// Procedural terrain luminance (deterministic), remembering the noise at
/// the four corners of the last texture cell it shaded: neighbouring rays
/// mostly land in the same cell.
struct GroundTexture {
    ground: GroundAppearance,
    scale: f64,
    /// Lattice corner `(x0, y0)` and its noise `[n00, n10, n01, n11]`.
    cell: Option<(i64, i64, [f32; 4])>,
}

impl GroundTexture {
    fn new(ground: &GroundAppearance) -> Self {
        Self {
            ground: *ground,
            scale: ground.texture_scale.max(1e-3),
            cell: None,
        }
    }

    fn luminance(&mut self, p: Vec2) -> f32 {
        let gx = p.x / self.scale;
        let gy = p.y / self.scale;
        let x0 = gx.floor();
        let y0 = gy.floor();
        let fx = (gx - x0) as f32;
        let fy = (gy - y0) as f32;
        let (ix, iy) = (x0 as i64, y0 as i64);
        let [n00, n10, n01, n11] = match self.cell {
            Some((cx, cy, noise)) if (cx, cy) == (ix, iy) => noise,
            _ => {
                let noise = [
                    hash_noise(ix, iy),
                    hash_noise(ix + 1, iy),
                    hash_noise(ix, iy + 1),
                    hash_noise(ix + 1, iy + 1),
                ];
                self.cell = Some((ix, iy, noise));
                noise
            }
        };
        let top = n00 * (1.0 - fx) + n10 * fx;
        let bottom = n01 * (1.0 - fx) + n11 * fx;
        let noise = top * (1.0 - fy) + bottom * fy;
        self.ground.base_luminance + self.ground.texture_amplitude * (noise - 0.5) * 2.0
    }
}

/// Deterministic per-cell noise in `[0, 1]` from integer coordinates.
fn hash_noise(x: i64, y: i64) -> f32 {
    let mut h = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (y as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h & 0xFFFF) as f32 / 65535.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mls_geom::Vec3;

    fn setup() -> (MarkerRenderer, Camera, Pose) {
        let renderer = MarkerRenderer::new(MarkerDictionary::standard());
        let camera = Camera::downward();
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 6.0), 0.0);
        (renderer, camera, pose)
    }

    #[test]
    fn renders_expected_dimensions() {
        let (renderer, camera, pose) = setup();
        let frame = renderer.render(&camera, &pose, &GroundScene::new());
        assert_eq!(frame.width(), camera.intrinsics.width);
        assert_eq!(frame.height(), camera.intrinsics.height);
    }

    #[test]
    fn empty_scene_is_textured_ground() {
        let (renderer, camera, pose) = setup();
        let frame = renderer.render(&camera, &pose, &GroundScene::new());
        let mean = frame.mean();
        assert!(mean > 0.3 && mean < 0.55, "ground mean {mean} out of range");
        // The procedural texture must produce some variation but no extremes.
        let (lo, hi) = frame.min_max();
        assert!(hi - lo > 0.01, "texture should vary");
        assert!(lo > 0.2 && hi < 0.7);
    }

    #[test]
    fn marker_under_vehicle_creates_dark_and_bright_pixels() {
        let (renderer, camera, pose) = setup();
        let scene = GroundScene::new().with_marker(MarkerPlacement::new(0, Vec2::ZERO, 1.2, 0.0));
        let frame = renderer.render(&camera, &pose, &scene);
        let (lo, hi) = frame.min_max();
        assert!(lo < 0.15, "black marker cells should be visible, min {lo}");
        assert!(hi > 0.8, "white marker cells should be visible, max {hi}");
    }

    #[test]
    fn marker_center_pixel_differs_from_plain_ground() {
        let (renderer, camera, pose) = setup();
        let without = renderer.render(&camera, &pose, &GroundScene::new());
        let with = renderer.render(
            &camera,
            &pose,
            &GroundScene::new().with_marker(MarkerPlacement::new(3, Vec2::ZERO, 1.2, 0.4)),
        );
        let cx = camera.intrinsics.width / 2;
        let cy = camera.intrinsics.height / 2;
        // A reasonably sized patch around the image center must change.
        let mut diff = 0.0f32;
        for dy in 0..10 {
            for dx in 0..10 {
                diff += (with.get(cx - 5 + dx, cy - 5 + dy)
                    - without.get(cx - 5 + dx, cy - 5 + dy))
                .abs();
            }
        }
        assert!(
            diff > 1.0,
            "marker should alter the image center, diff {diff}"
        );
    }

    #[test]
    fn shadow_darkens_region() {
        let (renderer, camera, pose) = setup();
        let plain = renderer.render(&camera, &pose, &GroundScene::new());
        let shadowed_scene = GroundScene::new().with_shadow(ShadowDisc {
            center: Vec2::ZERO,
            radius: 2.0,
            darkness: 0.8,
        });
        let shadowed = renderer.render(&camera, &pose, &shadowed_scene);
        let cx = camera.intrinsics.width / 2;
        let cy = camera.intrinsics.height / 2;
        assert!(shadowed.get(cx, cy) < plain.get(cx, cy) * 0.5);
    }

    #[test]
    fn sky_is_rendered_when_camera_points_up() {
        let renderer = MarkerRenderer::new(MarkerDictionary::standard());
        let camera = Camera::downward();
        // Roll the vehicle fully upside down: the downward camera now sees sky.
        let pose = Pose::new(
            Vec3::new(0.0, 0.0, 5.0),
            mls_geom::Attitude::new(std::f64::consts::PI, 0.0, 0.0),
        );
        let frame = renderer.render(&camera, &pose, &GroundScene::new());
        assert!((frame.mean() - renderer.config().sky_luminance).abs() < 0.05);
    }

    #[test]
    fn unknown_marker_id_renders_as_blank_square() {
        let (renderer, camera, pose) = setup();
        let scene =
            GroundScene::new().with_marker(MarkerPlacement::new(9999, Vec2::ZERO, 1.2, 0.0));
        let frame = renderer.render(&camera, &pose, &scene);
        // Center of the image should be bright (white square), never panic.
        let cx = camera.intrinsics.width / 2;
        let cy = camera.intrinsics.height / 2;
        assert!(frame.get(cx, cy) > 0.8);
    }

    #[test]
    fn higher_altitude_shrinks_marker_footprint() {
        let renderer = MarkerRenderer::new(MarkerDictionary::standard());
        let camera = Camera::downward();
        let scene = GroundScene::new().with_marker(MarkerPlacement::new(0, Vec2::ZERO, 1.0, 0.0));
        let count_dark = |altitude: f64| {
            let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, altitude), 0.0);
            let frame = renderer.render(&camera, &pose, &scene);
            frame.data().iter().filter(|&&v| v < 0.15).count()
        };
        let low = count_dark(4.0);
        let high = count_dark(16.0);
        assert!(
            low > high * 4,
            "marker should cover many more pixels at low altitude ({low} vs {high})"
        );
    }

    #[test]
    fn hoisted_rays_match_pixel_ray_bit_for_bit() {
        let camera = Camera::downward();
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        for (i, attitude) in [
            mls_geom::Attitude::new(0.0, 0.0, 0.15),
            mls_geom::Attitude::new(0.12, -0.09, 0.7),
            mls_geom::Attitude::new(-0.35, 0.28, -2.1),
            mls_geom::Attitude::new(std::f64::consts::PI, 0.0, 1.0),
            mls_geom::Attitude::new(0.05, 1.35, 0.4),
        ]
        .into_iter()
        .enumerate()
        {
            let pose = Pose::new(Vec3::new(0.3 * i as f64, -0.7, 4.0 + i as f64), attitude);
            for ss in [1, 2, 3] {
                let rays = FrameRays::new(&camera, &pose, ss);
                let inv_ss = 1.0 / ss as f64;
                for y in (0..camera.intrinsics.height).step_by(7) {
                    for x in (0..camera.intrinsics.width).step_by(5) {
                        for (sx, sy) in [(0, 0), (ss - 1, 0), (0, ss - 1)] {
                            let pixel = Vec2::new(
                                x as f64 + (sx as f64 + 0.5) * inv_ss,
                                y as f64 + (sy as f64 + 0.5) * inv_ss,
                            );
                            let want = camera.pixel_ray(&pose, pixel);
                            let got = rays.ray(x * ss + sx, y * ss + sy);
                            assert_eq!(bits(got.origin), bits(want.origin));
                            assert_eq!(bits(got.direction), bits(want.direction), "{pose:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hash_noise_is_deterministic_and_bounded() {
        for x in -20..20 {
            for y in -20..20 {
                let n = hash_noise(x, y);
                assert!((0.0..=1.0).contains(&n));
                assert_eq!(n, hash_noise(x, y));
            }
        }
    }
}
