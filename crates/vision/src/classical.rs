//! Classical (OpenCV-ArUco-style) marker detection pipeline.
//!
//! This is a from-scratch re-implementation of the fixed-algorithm detector
//! the paper's MLS-V1 uses: adaptive thresholding, connected-component / quad
//! extraction, perspective unwarping, cell-grid bit sampling and dictionary
//! matching with limited Hamming-distance error correction.
//!
//! The pipeline intentionally keeps OpenCV's strictness (hard binarisation,
//! all-black border requirement, single-bit error correction) so it exhibits
//! the failure modes the paper documents for the first-generation system:
//! markers that are small in the image (high-altitude flight), partially
//! occluded, washed out by sun glare, or blurred by motion are frequently
//! missed.

use mls_geom::Vec2;
use serde::{Deserialize, Serialize};

use crate::detection::order_corners;
use crate::{Detection, GrayImage, Homography, MarkerDetector, MarkerDictionary, MARKER_CELLS};

/// Configuration of the classical detection pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassicalDetectorConfig {
    /// Half-size (pixels) of the window used for the adaptive local mean.
    pub adaptive_window: usize,
    /// Constant subtracted from the local mean; pixels darker than
    /// `mean - adaptive_constant` are classified as marker-border candidates.
    pub adaptive_constant: f32,
    /// Minimum connected-component area (pixels) considered a candidate.
    pub min_component_area: usize,
    /// Maximum component area as a fraction of the image area.
    pub max_component_area_fraction: f64,
    /// Minimum quad side length in pixels.
    pub min_quad_side: f64,
    /// Maximum allowed ratio between the longest and shortest quad side.
    pub max_side_ratio: f64,
    /// Per-axis sub-samples taken inside each marker cell.
    pub cell_subsamples: usize,
    /// Minimum contrast (max cell mean − min cell mean) required to decode.
    pub min_cell_contrast: f32,
    /// Fraction of border cells that must decode as black.
    pub min_border_fraction: f64,
    /// Maximum number of payload bits the dictionary matcher may correct.
    pub max_bit_corrections: u32,
}

impl Default for ClassicalDetectorConfig {
    fn default() -> Self {
        Self {
            adaptive_window: 8,
            adaptive_constant: 0.08,
            min_component_area: 24,
            max_component_area_fraction: 0.4,
            min_quad_side: 6.0,
            max_side_ratio: 2.2,
            cell_subsamples: 3,
            min_cell_contrast: 0.15,
            min_border_fraction: 0.95,
            max_bit_corrections: 1,
        }
    }
}

/// The MLS-V1 marker detector (OpenCV-ArUco equivalent).
///
/// # Examples
///
/// ```
/// use mls_geom::{Pose, Vec2, Vec3};
/// use mls_vision::{
///     Camera, ClassicalDetector, GroundScene, MarkerDetector, MarkerDictionary,
///     MarkerPlacement, MarkerRenderer,
/// };
///
/// let dict = MarkerDictionary::standard();
/// let renderer = MarkerRenderer::new(dict.clone());
/// let scene = GroundScene::new().with_marker(MarkerPlacement::new(2, Vec2::ZERO, 1.2, 0.4));
/// let pose = Pose::from_position_yaw(Vec3::new(0.3, -0.2, 7.0), 0.1);
/// let frame = renderer.render(&Camera::downward(), &pose, &scene);
/// let detector = ClassicalDetector::new(dict);
/// let detections = detector.detect(&frame);
/// assert_eq!(detections[0].id, 2);
/// ```
#[derive(Debug, Clone)]
pub struct ClassicalDetector {
    dictionary: MarkerDictionary,
    config: ClassicalDetectorConfig,
}

impl ClassicalDetector {
    /// Creates a detector with the default configuration.
    pub fn new(dictionary: MarkerDictionary) -> Self {
        Self::with_config(dictionary, ClassicalDetectorConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    pub fn with_config(dictionary: MarkerDictionary, config: ClassicalDetectorConfig) -> Self {
        Self { dictionary, config }
    }

    /// The dictionary markers are decoded against.
    pub fn dictionary(&self) -> &MarkerDictionary {
        &self.dictionary
    }

    /// The active configuration.
    pub fn config(&self) -> &ClassicalDetectorConfig {
        &self.config
    }

    /// Runs the full pipeline on one frame.
    fn run(&self, image: &GrayImage) -> Vec<Detection> {
        let cfg = &self.config;
        let mask = adaptive_dark_mask(image, cfg.adaptive_window, cfg.adaptive_constant);
        let components = connected_components(
            &mask,
            image.width(),
            image.height(),
            cfg.min_component_area,
            (cfg.max_component_area_fraction * (image.width() * image.height()) as f64) as usize,
        );

        let mut detections = Vec::new();
        for component in &components {
            let Some(corners) = quad_from_points(component) else {
                continue;
            };
            if !quad_is_plausible(&corners, cfg.min_quad_side, cfg.max_side_ratio) {
                continue;
            }
            let Some(cells) = sample_cells(image, &corners, cfg.cell_subsamples) else {
                continue;
            };
            let Some(decoded) =
                decode_cells(&cells, cfg.min_cell_contrast, cfg.min_border_fraction)
            else {
                continue;
            };
            let Some(matched) = self
                .dictionary
                .match_code(decoded.payload, cfg.max_bit_corrections)
            else {
                continue;
            };
            let confidence = (decoded.contrast as f64).min(1.0)
                * (1.0 - matched.hamming_distance as f64 * 0.25)
                * decoded.border_black_fraction;
            let orientation =
                quad_orientation(&corners) + matched.rotation as f64 * std::f64::consts::FRAC_PI_2;
            let detection =
                Detection::from_corners(matched.id, corners, confidence.clamp(0.05, 1.0))
                    .with_orientation(mls_geom::wrap_angle(orientation));
            detections.push(detection);
        }
        detections.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        dedupe_detections(detections)
    }
}

impl MarkerDetector for ClassicalDetector {
    fn detect(&self, image: &GrayImage) -> Vec<Detection> {
        self.run(image)
    }

    fn name(&self) -> &str {
        "opencv-aruco"
    }

    fn relative_cost(&self) -> f64 {
        1.0
    }
}

/// Result of decoding a 6x6 cell grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedCells {
    /// Row-major 16-bit payload (white = 1).
    pub payload: u16,
    /// Cell contrast (max mean − min mean) used as a confidence proxy.
    pub contrast: f32,
    /// Fraction of border cells that decoded black.
    pub border_black_fraction: f64,
}

/// Binary mask of pixels darker than their local neighbourhood.
pub(crate) fn adaptive_dark_mask(image: &GrayImage, window: usize, constant: f32) -> Vec<bool> {
    let w = image.width();
    let h = image.height();
    let integral = image.integral();
    let mut mask = vec![false; w * h];
    let r = window as i64;
    for y in 0..h {
        for x in 0..w {
            let local_mean =
                integral.region_mean(x as i64 - r, y as i64 - r, x as i64 + r, y as i64 + r);
            if image.get(x, y) < local_mean - constant {
                mask[y * w + x] = true;
            }
        }
    }
    mask
}

/// Extracts 8-connected components of the mask whose pixel count is within
/// the given bounds. Each component is returned as its pixel centre points.
pub(crate) fn connected_components(
    mask: &[bool],
    width: usize,
    height: usize,
    min_area: usize,
    max_area: usize,
) -> Vec<Vec<Vec2>> {
    let mut visited = vec![false; mask.len()];
    let mut components = Vec::new();
    let mut stack = Vec::new();
    for start in 0..mask.len() {
        if !mask[start] || visited[start] {
            continue;
        }
        let mut pixels = Vec::new();
        visited[start] = true;
        stack.push(start);
        while let Some(idx) = stack.pop() {
            let x = (idx % width) as i64;
            let y = (idx / width) as i64;
            pixels.push(Vec2::new(x as f64, y as f64));
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let nx = x + dx;
                    let ny = y + dy;
                    if nx < 0 || ny < 0 || nx >= width as i64 || ny >= height as i64 {
                        continue;
                    }
                    let nidx = ny as usize * width + nx as usize;
                    if mask[nidx] && !visited[nidx] {
                        visited[nidx] = true;
                        stack.push(nidx);
                    }
                }
            }
        }
        if pixels.len() >= min_area && pixels.len() <= max_area {
            components.push(pixels);
        }
    }
    components
}

/// Convex hull (Andrew's monotone chain); returns points in counter-clockwise
/// order for a y-down image coordinate system.
pub(crate) fn convex_hull(points: &[Vec2]) -> Vec<Vec2> {
    if points.len() < 3 {
        return points.to_vec();
    }
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| {
        a.x.partial_cmp(&b.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.y.partial_cmp(&b.y).unwrap_or(std::cmp::Ordering::Equal))
    });
    pts.dedup_by(|a, b| (a.x - b.x).abs() < 1e-12 && (a.y - b.y).abs() < 1e-12);
    if pts.len() < 3 {
        return pts;
    }
    let cross = |o: Vec2, a: Vec2, b: Vec2| (a - o).cross(b - o);
    let mut lower: Vec<Vec2> = Vec::new();
    for &p in &pts {
        while lower.len() >= 2 && cross(lower[lower.len() - 2], lower[lower.len() - 1], p) <= 0.0 {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<Vec2> = Vec::new();
    for &p in pts.iter().rev() {
        while upper.len() >= 2 && cross(upper[upper.len() - 2], upper[upper.len() - 1], p) <= 0.0 {
            upper.pop();
        }
        upper.push(p);
    }
    lower.pop();
    upper.pop();
    lower.extend(upper);
    lower
}

/// Fits a quadrilateral to a point cloud that is roughly a filled square.
///
/// Returns `None` when the points are too few or degenerate. The corners are
/// returned ordered by angle around their centroid.
pub(crate) fn quad_from_points(points: &[Vec2]) -> Option<[Vec2; 4]> {
    let hull = convex_hull(points);
    if hull.len() < 4 {
        return None;
    }
    // Corner 1: farthest from the centroid.
    let cx = hull.iter().map(|p| p.x).sum::<f64>() / hull.len() as f64;
    let cy = hull.iter().map(|p| p.y).sum::<f64>() / hull.len() as f64;
    let centroid = Vec2::new(cx, cy);
    let a = *hull.iter().max_by(|p, q| {
        p.distance(centroid)
            .partial_cmp(&q.distance(centroid))
            .unwrap_or(std::cmp::Ordering::Equal)
    })?;
    // Corner 2: farthest from corner 1 (the opposite diagonal corner).
    let b = *hull.iter().max_by(|p, q| {
        p.distance(a)
            .partial_cmp(&q.distance(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    })?;
    // Corners 3 and 4: extreme signed distance to the diagonal a-b on either
    // side.
    let dir = (b - a).normalized()?;
    let signed = |p: Vec2| dir.cross(p - a);
    let c = *hull.iter().max_by(|p, q| {
        signed(**p)
            .partial_cmp(&signed(**q))
            .unwrap_or(std::cmp::Ordering::Equal)
    })?;
    let d = *hull.iter().min_by(|p, q| {
        signed(**p)
            .partial_cmp(&signed(**q))
            .unwrap_or(std::cmp::Ordering::Equal)
    })?;
    if signed(c).abs() < 1.0 || signed(d).abs() < 1.0 {
        // Degenerate: all hull points essentially collinear.
        return None;
    }
    Some(order_corners([a, b, c, d]))
}

/// Sanity checks on the quad geometry.
pub(crate) fn quad_is_plausible(corners: &[Vec2; 4], min_side: f64, max_side_ratio: f64) -> bool {
    let mut min_len = f64::INFINITY;
    let mut max_len: f64 = 0.0;
    for i in 0..4 {
        let len = corners[i].distance(corners[(i + 1) % 4]);
        min_len = min_len.min(len);
        max_len = max_len.max(len);
    }
    if min_len < min_side {
        return false;
    }
    if max_len / min_len.max(1e-9) > max_side_ratio {
        return false;
    }
    // Convexity: all cross products of consecutive edges share a sign.
    let mut sign = 0.0f64;
    for i in 0..4 {
        let p0 = corners[i];
        let p1 = corners[(i + 1) % 4];
        let p2 = corners[(i + 2) % 4];
        let cross = (p1 - p0).cross(p2 - p1);
        if cross.abs() < 1e-9 {
            return false;
        }
        if sign == 0.0 {
            sign = cross.signum();
        } else if cross.signum() != sign {
            return false;
        }
    }
    true
}

/// Samples the 6x6 marker-cell means inside the quad using a homography from
/// canonical marker coordinates to image coordinates.
#[allow(clippy::needless_range_loop)] // row/col index a fixed 2-D cell grid
pub(crate) fn sample_cells(
    image: &GrayImage,
    corners: &[Vec2; 4],
    subsamples: usize,
) -> Option<[[f32; MARKER_CELLS]; MARKER_CELLS]> {
    let n = MARKER_CELLS as f64;
    let canonical = [
        Vec2::new(0.0, 0.0),
        Vec2::new(n, 0.0),
        Vec2::new(n, n),
        Vec2::new(0.0, n),
    ];
    let homography = Homography::from_correspondences(&canonical, corners).ok()?;
    let ss = subsamples.max(1);
    // Sub-sample coordinates along either axis: cell `c`'s `s`-th sample
    // sits at `c + (s + 0.5) / ss`. The detector golden fixture pins the
    // bits this exact expression produces.
    let coords: Vec<f64> = (0..MARKER_CELLS)
        .flat_map(|c| (0..ss).map(move |s| c as f64 + (s as f64 + 0.5) / ss as f64))
        .collect();
    let points = homography.apply_grid(&coords, &coords);
    let stride = coords.len();
    let mut cells = [[0.0f32; MARKER_CELLS]; MARKER_CELLS];
    for row in 0..MARKER_CELLS {
        for col in 0..MARKER_CELLS {
            let mut sum = 0.0f32;
            for sy in 0..ss {
                let first = (row * ss + sy) * stride + col * ss;
                for p in &points[first..first + ss] {
                    sum += image.sample_bilinear(p.x, p.y);
                }
            }
            cells[row][col] = sum / (ss * ss) as f32;
        }
    }
    Some(cells)
}

/// Hard-decodes a 6x6 cell grid: checks contrast, checks the black border,
/// and extracts the 16-bit payload.
#[allow(clippy::needless_range_loop)] // row/col index a fixed 2-D cell grid
pub(crate) fn decode_cells(
    cells: &[[f32; MARKER_CELLS]; MARKER_CELLS],
    min_contrast: f32,
    min_border_fraction: f64,
) -> Option<DecodedCells> {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for row in cells {
        for &v in row {
            min = min.min(v);
            max = max.max(v);
        }
    }
    let contrast = max - min;
    if contrast < min_contrast {
        return None;
    }
    let threshold = (min + max) / 2.0;

    let mut border_cells = 0usize;
    let mut border_black = 0usize;
    for row in 0..MARKER_CELLS {
        for col in 0..MARKER_CELLS {
            let is_border =
                row == 0 || col == 0 || row == MARKER_CELLS - 1 || col == MARKER_CELLS - 1;
            if is_border {
                border_cells += 1;
                if cells[row][col] < threshold {
                    border_black += 1;
                }
            }
        }
    }
    let border_black_fraction = border_black as f64 / border_cells as f64;
    if border_black_fraction < min_border_fraction {
        return None;
    }

    let mut payload: u16 = 0;
    for row in 0..MARKER_CELLS - 2 {
        for col in 0..MARKER_CELLS - 2 {
            if cells[row + 1][col + 1] >= threshold {
                payload |= 1 << (row * (MARKER_CELLS - 2) + col);
            }
        }
    }
    Some(DecodedCells {
        payload,
        contrast,
        border_black_fraction,
    })
}

/// In-plane orientation of the quad: the angle of its first edge.
pub(crate) fn quad_orientation(corners: &[Vec2; 4]) -> f64 {
    let e = corners[1] - corners[0];
    e.y.atan2(e.x)
}

/// Removes overlapping duplicate detections (keeps the higher-confidence one).
pub(crate) fn dedupe_detections(detections: Vec<Detection>) -> Vec<Detection> {
    let mut kept: Vec<Detection> = Vec::new();
    for d in detections {
        let overlaps = kept
            .iter()
            .any(|k| k.center.distance(d.center) < 0.5 * (k.apparent_size + d.apparent_size) * 0.5);
        if !overlaps {
            kept.push(d);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Camera, GroundScene, MarkerPlacement, MarkerRenderer, ShadowDisc};
    use mls_geom::{Pose, Vec3};

    fn render(id: u32, altitude: f64, marker_size: f64, yaw: f64) -> GrayImage {
        let dict = MarkerDictionary::standard();
        let renderer = MarkerRenderer::new(dict);
        let scene = GroundScene::new().with_marker(MarkerPlacement::new(
            id,
            Vec2::new(0.0, 0.0),
            marker_size,
            yaw,
        ));
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, altitude), 0.0);
        renderer.render(&Camera::downward(), &pose, &scene)
    }

    fn detector() -> ClassicalDetector {
        ClassicalDetector::new(MarkerDictionary::standard())
    }

    #[test]
    fn detects_marker_at_low_altitude() {
        let frame = render(4, 6.0, 1.0, 0.0);
        let detections = detector().detect(&frame);
        assert_eq!(detections.len(), 1, "expected exactly one detection");
        assert_eq!(detections[0].id, 4);
        assert!(detections[0].confidence > 0.2);
        assert!(detections[0].orientation.is_some());
    }

    #[test]
    fn detects_rotated_marker_and_reports_orientation() {
        let yaw = 0.6;
        let frame = render(7, 6.0, 1.2, yaw);
        let detections = detector().detect(&frame);
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].id, 7);
        assert!(detections[0].orientation.is_some());
    }

    #[test]
    fn detection_center_tracks_marker_offset() {
        let dict = MarkerDictionary::standard();
        let renderer = MarkerRenderer::new(dict.clone());
        let scene =
            GroundScene::new().with_marker(MarkerPlacement::new(1, Vec2::new(1.5, 1.0), 1.2, 0.0));
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 7.0), 0.0);
        let camera = Camera::downward();
        let frame = renderer.render(&camera, &pose, &scene);
        let detections = ClassicalDetector::new(dict).detect(&frame);
        assert_eq!(detections.len(), 1);
        // Lift back to the world: it should land near (1.5, 1.0).
        let obs = crate::MarkerObservation::from_detection(&camera, &pose, &detections[0], 0.0)
            .expect("must hit the ground");
        assert!(
            obs.world_position
                .horizontal_distance(Vec3::new(1.5, 1.0, 0.0))
                < 0.3,
            "lifted position {:?} too far from truth",
            obs.world_position
        );
    }

    #[test]
    fn misses_marker_at_high_altitude() {
        // At 40 m a 1 m marker covers only a couple of pixels: the classical
        // pipeline cannot decode it (the paper's high-altitude failure mode).
        let frame = render(4, 40.0, 1.0, 0.0);
        let detections = detector().detect(&frame);
        assert!(detections.is_empty());
    }

    #[test]
    fn empty_scene_produces_no_detections() {
        let dict = MarkerDictionary::standard();
        let renderer = MarkerRenderer::new(dict.clone());
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.0);
        let frame = renderer.render(&Camera::downward(), &pose, &GroundScene::new());
        assert!(ClassicalDetector::new(dict).detect(&frame).is_empty());
    }

    #[test]
    fn heavy_shadow_occlusion_causes_false_negative() {
        let dict = MarkerDictionary::standard();
        let renderer = MarkerRenderer::new(dict.clone());
        let scene = GroundScene::new()
            .with_marker(MarkerPlacement::new(4, Vec2::ZERO, 1.0, 0.0))
            // A hard shadow covering half the marker destroys the border test.
            .with_shadow(ShadowDisc {
                center: Vec2::new(0.5, 0.0),
                radius: 0.8,
                darkness: 0.9,
            });
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.0);
        let frame = renderer.render(&Camera::downward(), &pose, &scene);
        let detections = ClassicalDetector::new(dict).detect(&frame);
        assert!(
            detections.iter().all(|d| d.id != 4) || detections.is_empty(),
            "a half-shadowed marker should not decode cleanly in the classical pipeline"
        );
    }

    #[test]
    fn convex_hull_of_square_has_four_corners() {
        let mut pts = Vec::new();
        for y in 0..10 {
            for x in 0..10 {
                pts.push(Vec2::new(x as f64, y as f64));
            }
        }
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
    }

    #[test]
    fn quad_from_points_recovers_square_corners() {
        let mut pts = Vec::new();
        for y in 0..20 {
            for x in 0..20 {
                pts.push(Vec2::new(x as f64, y as f64));
            }
        }
        let quad = quad_from_points(&pts).expect("square should fit a quad");
        for expected in [
            Vec2::new(0.0, 0.0),
            Vec2::new(19.0, 0.0),
            Vec2::new(19.0, 19.0),
            Vec2::new(0.0, 19.0),
        ] {
            assert!(
                quad.iter().any(|c| c.distance(expected) < 1.5),
                "missing corner near {expected:?} in {quad:?}"
            );
        }
    }

    #[test]
    fn quad_from_collinear_points_is_rejected() {
        let pts: Vec<Vec2> = (0..30).map(|i| Vec2::new(i as f64, 2.0)).collect();
        assert!(quad_from_points(&pts).is_none());
    }

    #[test]
    fn quad_plausibility_rejects_slivers() {
        let sliver = [
            Vec2::new(0.0, 0.0),
            Vec2::new(30.0, 0.0),
            Vec2::new(30.0, 2.0),
            Vec2::new(0.0, 2.0),
        ];
        assert!(!quad_is_plausible(&sliver, 6.0, 2.2));
        let square = [
            Vec2::new(0.0, 0.0),
            Vec2::new(20.0, 0.0),
            Vec2::new(20.0, 20.0),
            Vec2::new(0.0, 20.0),
        ];
        assert!(quad_is_plausible(&square, 6.0, 2.2));
    }

    #[test]
    fn decode_cells_requires_contrast_and_border() {
        // Flat grey grid: no contrast.
        let flat = [[0.5f32; MARKER_CELLS]; MARKER_CELLS];
        assert!(decode_cells(&flat, 0.1, 0.9).is_none());

        // Proper marker-like grid: black border, known payload.
        let dict = MarkerDictionary::standard();
        let cells = dict.cells(3).unwrap();
        let decoded = decode_cells(&cells, 0.1, 0.9).expect("clean cells decode");
        assert_eq!(decoded.payload, dict.code(3).unwrap());
        assert!(decoded.border_black_fraction > 0.99);

        // Breaking the border (white frame) must fail.
        let mut broken = cells;
        broken[0] = [1.0; MARKER_CELLS];
        broken[MARKER_CELLS - 1] = [1.0; MARKER_CELLS];
        assert!(decode_cells(&broken, 0.1, 0.9).is_none());
    }

    #[test]
    fn adaptive_mask_marks_dark_square() {
        let mut img = GrayImage::filled(40, 40, 0.9);
        for y in 15..25 {
            for x in 15..25 {
                img.set(x, y, 0.1);
            }
        }
        let mask = adaptive_dark_mask(&img, 8, 0.08);
        assert!(mask[20 * 40 + 20]);
        assert!(!mask[5 * 40 + 5]);
    }

    #[test]
    fn connected_components_filters_by_area() {
        let width = 20;
        let height = 20;
        let mut mask = vec![false; width * height];
        // A 5x5 blob and a single stray pixel.
        for y in 2..7 {
            for x in 2..7 {
                mask[y * width + x] = true;
            }
        }
        mask[15 * width + 15] = true;
        let comps = connected_components(&mask, width, height, 4, 1000);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 25);
    }

    #[test]
    fn dedupe_keeps_highest_confidence() {
        let a = Detection::from_corners(
            1,
            [
                Vec2::new(0.0, 0.0),
                Vec2::new(10.0, 0.0),
                Vec2::new(10.0, 10.0),
                Vec2::new(0.0, 10.0),
            ],
            0.9,
        );
        let b = Detection::from_corners(
            1,
            [
                Vec2::new(1.0, 1.0),
                Vec2::new(11.0, 1.0),
                Vec2::new(11.0, 11.0),
                Vec2::new(1.0, 11.0),
            ],
            0.5,
        );
        let out = dedupe_detections(vec![a.clone(), b]);
        assert_eq!(out.len(), 1);
        assert!((out[0].confidence - 0.9).abs() < 1e-9);
    }
}
