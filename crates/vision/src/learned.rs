//! Learned-detector surrogate for TPH-YOLO.
//!
//! The paper replaces the OpenCV ArUco pipeline with TPH-YOLO — a YOLOv5
//! variant with transformer prediction heads — trained on a synthetic AirSim
//! dataset with brightness/contrast/noise augmentation. Training a deep
//! network is out of scope for this reproduction, so this module provides a
//! *trained-model surrogate* that preserves the property the paper measures:
//! markedly higher detection robustness under degraded imaging (fog, glare,
//! low light, motion blur, partial occlusion, small apparent marker size)
//! at a much higher computational cost per frame.
//!
//! The surrogate works like a modern detector head rather than a hard-coded
//! decoder:
//!
//! 1. local contrast normalisation of the whole frame (the "backbone"),
//! 2. permissive candidate proposal from dark connected components
//!    (the "region proposals"),
//! 3. corner refinement by hill-climbing on the decode score
//!    (the "regression head"),
//! 4. soft-bit decoding: every cell contributes a weighted vote against every
//!    dictionary code in all four rotations (the "classification head"),
//! 5. an acceptance threshold on the soft score that is *calibrated offline*
//!    by [`crate::training`] on synthetic degraded imagery (the "training").
//!
//! # Bit-exactness of the soft-decode kernel
//!
//! Soft decoding is the hottest code in a V2/V3 mission: every plausible
//! candidate is decoded 65 times (once, then 2 refinement iterations × 4
//! corners × 8 offsets), and every decision downstream depends on the exact
//! scores. The kernel is therefore optimised only in ways that keep every
//! output bit, and `tests/detector_golden.rs` at the workspace root pins
//! those bits. Changes to it must keep this contract:
//!
//! * floating-point operations happen in the same order with the same
//!   operands: cell means sum their sub-samples in `(sy, sx)` order, each
//!   rotation's payload sum adds its 16 cell terms in cell order, and the
//!   per-cell terms are `w * 1.0 + (1.0 - w) * 0.5` (agree) and
//!   `w * 0.0 + (1.0 - w) * 0.5` (disagree), written out as such;
//! * a division stays a division: no reciprocal multiplied in its place,
//!   neither in [`crate::Homography::apply`] nor in the score
//!   normalisations;
//! * an intermediate result may be computed once and reused wherever its
//!   operands are the same:
//!   - the payload sum's first 8 additions depend only on the agreement
//!     bits of cells 0–7, so each decode tabulates all 256 partial sums
//!     `((0 + t0) + t1) + … + t7` once, and each (code, rotation) adds
//!     cells 8–15 to its table entry;
//!   - the sub-sample grid is separable, so each homogeneous coordinate's
//!     column term `m[r][0] * u` is computed once per grid column and its
//!     row term `m[r][1] * v` once per grid row, then summed per sample as
//!     `(column + row) + m[r][2]` and divided per sample, through the one
//!     expression [`crate::Homography::apply`] uses too;
//! * a branch may be skipped where it provably does nothing: inside the
//!   image (`0 <= x < width - 1`, `0 <= y < height - 1`) the bilinear
//!   sampler's clamps are no-ops and `floor` is truncation, so it reads the
//!   four neighbours directly with the same interpolation expression;
//! * integer work may be restructured freely when its results are equal:
//!   rotated code masks are precomputed per detector, the top-two code
//!   selection is a single pass with the tie rules of a stable sort, and the
//!   bilinear sampler's general path floors by truncation plus a correction
//!   instead of calling `f64::floor` (a libm call on baseline x86-64).

use mls_geom::Vec2;
use serde::{Deserialize, Serialize};

use crate::classical::{
    adaptive_dark_mask, connected_components, dedupe_detections, quad_from_points,
    quad_is_plausible, sample_cells,
};
use crate::{
    Detection, GrayImage, MarkerCode, MarkerDetector, MarkerDictionary, MARKER_CELLS, PAYLOAD_CELLS,
};

/// Configuration of the learned-detector surrogate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedDetectorConfig {
    /// Half-size (pixels) of the local-normalisation window.
    pub normalization_window: usize,
    /// Adaptive-threshold constant used for candidate proposal (much more
    /// permissive than the classical pipeline).
    pub proposal_constant: f32,
    /// Minimum proposal area in pixels.
    pub min_component_area: usize,
    /// Maximum proposal area as a fraction of the image.
    pub max_component_area_fraction: f64,
    /// Minimum quad side length in pixels (the surrogate decodes smaller
    /// markers than the classical pipeline).
    pub min_quad_side: f64,
    /// Maximum allowed ratio between the longest and shortest quad side.
    pub max_side_ratio: f64,
    /// Per-axis sub-samples per marker cell.
    pub cell_subsamples: usize,
    /// Corner-refinement hill-climbing iterations.
    pub refinement_iterations: usize,
    /// Corner-refinement step in pixels.
    pub refinement_step: f64,
    /// Soft-score acceptance threshold in `[0, 1]`; calibrated by training.
    pub acceptance_threshold: f64,
    /// Required margin between the best and second-best dictionary code.
    pub min_margin: f64,
    /// Relative inference cost versus the classical pipeline (TensorRT-
    /// optimised TPH-YOLO is still far heavier than ArUco decoding).
    pub relative_cost: f64,
}

impl Default for LearnedDetectorConfig {
    fn default() -> Self {
        Self {
            normalization_window: 10,
            proposal_constant: 0.035,
            min_component_area: 16,
            max_component_area_fraction: 0.5,
            min_quad_side: 4.0,
            max_side_ratio: 2.6,
            cell_subsamples: 4,
            refinement_iterations: 2,
            refinement_step: 0.75,
            acceptance_threshold: 0.72,
            min_margin: 0.08,
            relative_cost: 35.0,
        }
    }
}

/// A scored marker hypothesis produced before thresholding.
///
/// [`crate::training`] uses these raw scores to calibrate the acceptance
/// threshold; [`LearnedDetector::detect`] simply filters them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredCandidate {
    /// Best-matching dictionary id.
    pub id: u32,
    /// Refined quad corners.
    pub corners: [Vec2; 4],
    /// Candidate centre in pixels.
    pub center: Vec2,
    /// Soft match score in `[0, 1]`.
    pub score: f64,
    /// Margin to the second-best dictionary code.
    pub margin: f64,
}

/// The MLS-V2/V3 marker detector (TPH-YOLO surrogate).
///
/// # Examples
///
/// ```
/// use mls_geom::{Pose, Vec2, Vec3};
/// use mls_vision::{
///     Camera, GroundScene, LearnedDetector, MarkerDetector, MarkerDictionary,
///     MarkerPlacement, MarkerRenderer,
/// };
///
/// let dict = MarkerDictionary::standard();
/// let renderer = MarkerRenderer::new(dict.clone());
/// let scene = GroundScene::new().with_marker(MarkerPlacement::new(9, Vec2::ZERO, 1.0, 0.2));
/// let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 9.0), 0.0);
/// let frame = renderer.render(&Camera::downward(), &pose, &scene);
/// let detections = LearnedDetector::new(dict).detect(&frame);
/// assert_eq!(detections[0].id, 9);
/// ```
#[derive(Debug, Clone)]
pub struct LearnedDetector {
    dictionary: MarkerDictionary,
    config: LearnedDetectorConfig,
    /// Each code's payload under the four rotations, in observation
    /// coordinates: bit `row * PAYLOAD_CELLS + col` of `rotated_codes[id][r]`
    /// is the code bit that observed cell `(row, col)` is compared with at
    /// rotation `r`.
    rotated_codes: Vec<[MarkerCode; 4]>,
}

impl LearnedDetector {
    /// Creates a detector with the default (pre-calibrated) configuration.
    pub fn new(dictionary: MarkerDictionary) -> Self {
        Self::with_config(dictionary, LearnedDetectorConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    pub fn with_config(dictionary: MarkerDictionary, config: LearnedDetectorConfig) -> Self {
        let rotated_codes = dictionary
            .iter()
            .map(|(_, code)| {
                std::array::from_fn(|rotation| {
                    let mut mask: MarkerCode = 0;
                    for row in 0..PAYLOAD_CELLS {
                        for col in 0..PAYLOAD_CELLS {
                            let (r, c) = rotate_cell(row, col, rotation, PAYLOAD_CELLS);
                            if code & (1 << (r * PAYLOAD_CELLS + c)) != 0 {
                                mask |= 1 << (row * PAYLOAD_CELLS + col);
                            }
                        }
                    }
                    mask
                })
            })
            .collect();
        Self {
            dictionary,
            config,
            rotated_codes,
        }
    }

    /// The dictionary markers are decoded against.
    pub fn dictionary(&self) -> &MarkerDictionary {
        &self.dictionary
    }

    /// The active configuration.
    pub fn config(&self) -> &LearnedDetectorConfig {
        &self.config
    }

    /// Replaces the acceptance threshold (used by offline calibration).
    pub fn set_acceptance_threshold(&mut self, threshold: f64) {
        self.config.acceptance_threshold = threshold.clamp(0.0, 1.0);
    }

    /// Produces every scored hypothesis for a frame, *without* applying the
    /// acceptance threshold. Sorted by descending score.
    pub fn score_candidates(&self, image: &GrayImage) -> Vec<ScoredCandidate> {
        let cfg = &self.config;
        let normalized = normalize_local_contrast(image, cfg.normalization_window);
        let mask = adaptive_dark_mask(&normalized, cfg.normalization_window, cfg.proposal_constant);
        let components = connected_components(
            &mask,
            image.width(),
            image.height(),
            cfg.min_component_area,
            (cfg.max_component_area_fraction * (image.width() * image.height()) as f64) as usize,
        );

        let mut candidates = Vec::new();
        for component in &components {
            let Some(mut corners) = quad_from_points(component) else {
                continue;
            };
            if !quad_is_plausible(&corners, cfg.min_quad_side, cfg.max_side_ratio) {
                continue;
            }
            // Corner refinement: hill-climb each corner to maximise the soft
            // decode score on the *normalised* image.
            let mut best = self.soft_score(&normalized, &corners);
            for _ in 0..cfg.refinement_iterations {
                let mut improved = false;
                for i in 0..4 {
                    let original = corners[i];
                    let mut best_offset = original;
                    for (dx, dy) in [
                        (-1.0, 0.0),
                        (1.0, 0.0),
                        (0.0, -1.0),
                        (0.0, 1.0),
                        (-1.0, -1.0),
                        (1.0, 1.0),
                        (-1.0, 1.0),
                        (1.0, -1.0),
                    ] {
                        corners[i] = Vec2::new(
                            original.x + dx * cfg.refinement_step,
                            original.y + dy * cfg.refinement_step,
                        );
                        if let Some(s) = self.soft_score(&normalized, &corners) {
                            if best.as_ref().map(|b| s.score > b.score).unwrap_or(true) {
                                best_offset = corners[i];
                                best = Some(s);
                                improved = true;
                            }
                        }
                    }
                    corners[i] = best_offset;
                }
                if !improved {
                    break;
                }
            }
            if let Some(scored) = best {
                candidates.push(scored);
            }
        }
        candidates.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        candidates
    }

    /// Soft-decodes the quad against the whole dictionary.
    fn soft_score(&self, image: &GrayImage, corners: &[Vec2; 4]) -> Option<ScoredCandidate> {
        let cells = sample_cells(image, corners, self.config.cell_subsamples)?;
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for row in &cells {
            for &v in row {
                min = min.min(v);
                max = max.max(v);
            }
        }
        let contrast = (max - min).max(1e-4);
        let threshold = (min + max) / 2.0;

        // Per-cell soft bit and confidence weight.
        let bit = |row: usize, col: usize| -> (f64, f64) {
            let v = cells[row][col];
            let value = if v >= threshold { 1.0 } else { 0.0 };
            let weight = (((v - threshold).abs() / (contrast / 2.0)) as f64).clamp(0.0, 1.0);
            (value, weight)
        };

        // Border score: border cells should be black.
        let mut border_score = 0.0;
        let mut border_cells = 0.0;
        for row in 0..MARKER_CELLS {
            for col in 0..MARKER_CELLS {
                let is_border =
                    row == 0 || col == 0 || row == MARKER_CELLS - 1 || col == MARKER_CELLS - 1;
                if is_border {
                    let (value, weight) = bit(row, col);
                    let agreement = if value < 0.5 { 1.0 } else { 0.0 };
                    border_score += weight * agreement + (1.0 - weight) * 0.5;
                    border_cells += 1.0;
                }
            }
        }
        border_score /= border_cells;

        // Payload score against every code and rotation. Each observed cell
        // contributes its `hit` term where a rotated code agrees with the
        // observed bit and its `miss` term where it does not.
        let mut observed: MarkerCode = 0;
        let mut terms = [[0.0f64; 2]; PAYLOAD_CELLS * PAYLOAD_CELLS];
        for row in 0..PAYLOAD_CELLS {
            for col in 0..PAYLOAD_CELLS {
                let (value, w) = bit(row + 1, col + 1);
                let i = row * PAYLOAD_CELLS + col;
                if value == 1.0 {
                    observed |= 1 << i;
                }
                let miss = w * 0.0 + (1.0 - w) * 0.5;
                let hit = w * 1.0 + (1.0 - w) * 0.5;
                terms[i] = [miss, hit];
            }
        }
        let cell_count = terms.len() as f64;
        let sums = PayloadSums::new(&terms);
        let code_scores = self.rotated_codes.iter().enumerate().map(|(id, masks)| {
            let best_rotation = sums
                .rotations(masks.map(|mask| !(mask ^ observed)))
                .iter()
                .fold(0.0f64, |best, sum| best.max(sum / cell_count));
            (id as u32, best_rotation)
        });
        let (id, payload_score, second) = top_two(code_scores)?;
        let contrast_factor = ((contrast as f64) / 0.12).clamp(0.0, 1.0);
        let score = (0.6 * payload_score + 0.4 * border_score) * (0.4 + 0.6 * contrast_factor);
        Some(ScoredCandidate {
            id,
            corners: *corners,
            center: Vec2::new(
                corners.iter().map(|c| c.x).sum::<f64>() / 4.0,
                corners.iter().map(|c| c.y).sum::<f64>() / 4.0,
            ),
            score,
            margin: payload_score - second,
        })
    }
}

impl MarkerDetector for LearnedDetector {
    fn detect(&self, image: &GrayImage) -> Vec<Detection> {
        let cfg = &self.config;
        let detections: Vec<Detection> = self
            .score_candidates(image)
            .into_iter()
            .filter(|c| c.score >= cfg.acceptance_threshold && c.margin >= cfg.min_margin)
            .map(|c| {
                // Like the paper's TPH-YOLO, the surrogate does not estimate
                // marker orientation.
                Detection::from_corners(c.id, c.corners, c.score)
            })
            .collect();
        dedupe_detections(detections)
    }

    fn name(&self) -> &str {
        "tph-yolo-surrogate"
    }

    fn relative_cost(&self) -> f64 {
        self.config.relative_cost
    }
}

/// Payload cells whose partial sums [`PayloadSums`] tabulates.
const PREFIX_CELLS: usize = 8;

/// A payload's soft-match sums for any agreement pattern, built once per
/// decode.
///
/// The sum for agreement mask `agree` adds, in cell order starting from
/// `0.0`, cell `i`'s `terms[i][1]` where bit `i` of `agree` is set and its
/// `terms[i][0]` where it is clear. The first [`PREFIX_CELLS`] additions
/// depend only on the mask's low byte, so every partial sum
/// `((0 + t0) + t1) + … + t7` is tabulated once (510 additions) and each
/// (code, rotation) adds the remaining cells to its table entry: the same
/// chain of additions as accumulating cell by cell.
struct PayloadSums {
    prefix: [f64; 1 << PREFIX_CELLS],
    terms: [[f64; 2]; PAYLOAD_CELLS * PAYLOAD_CELLS],
}

impl PayloadSums {
    fn new(terms: &[[f64; 2]; PAYLOAD_CELLS * PAYLOAD_CELLS]) -> Self {
        // After pass `i`, entry `p < 2^(i+1)` holds the sum over cells
        // `0..=i` for the pattern `p` of their agreement bits.
        let mut prefix = [0.0f64; 1 << PREFIX_CELLS];
        for (i, [miss, hit]) in terms.iter().take(PREFIX_CELLS).enumerate() {
            let half = 1 << i;
            for p in 0..half {
                let base = prefix[p];
                prefix[p] = base + miss;
                prefix[p | half] = base + hit;
            }
        }
        Self {
            prefix,
            terms: *terms,
        }
    }

    /// The payload sums under the four rotations' agreement masks,
    /// accumulated side by side.
    #[inline]
    fn rotations(&self, agree: [MarkerCode; 4]) -> [f64; 4] {
        let low = |a: MarkerCode| usize::from(a) & ((1 << PREFIX_CELLS) - 1);
        let mut sums = agree.map(|a| self.prefix[low(a)]);
        for (i, term) in self.terms.iter().enumerate().skip(PREFIX_CELLS) {
            for (sum, a) in sums.iter_mut().zip(agree) {
                *sum += term[usize::from((a >> i) & 1)];
            }
        }
        sums
    }
}

/// The best-scoring code and the runner-up score, as `(id, best, second)`.
///
/// Equivalent to a stable descending sort of `(id, score)` pairs followed by
/// reading the first two entries: among equal maxima the first (lowest) id
/// wins, the second score is the maximum of all the others (equal to the
/// best on a tie), and with a single code the second score is `0.0`. `None`
/// for an empty dictionary. Scores are sums of non-negative finite terms, so
/// never NaN.
fn top_two(scores: impl Iterator<Item = (u32, f64)>) -> Option<(u32, f64, f64)> {
    let mut best: Option<(u32, f64)> = None;
    let mut second: Option<f64> = None;
    for (id, score) in scores {
        match best {
            Some((_, top)) if score <= top => {
                second = Some(second.map_or(score, |s| s.max(score)));
            }
            _ => {
                second = best.map(|(_, top)| top);
                best = Some((id, score));
            }
        }
    }
    best.map(|(id, top)| (id, top, second.unwrap_or(0.0)))
}

/// Rotates payload cell coordinates by `rotation` clockwise quarter turns.
fn rotate_cell(row: usize, col: usize, rotation: usize, n: usize) -> (usize, usize) {
    match rotation % 4 {
        0 => (row, col),
        1 => (col, n - 1 - row),
        2 => (n - 1 - row, n - 1 - col),
        _ => (n - 1 - col, row),
    }
}

/// Subtracts the local mean and re-expands the local contrast of a frame,
/// producing an image whose marker/background separation survives fog, glare
/// and low light much better than the raw luminance.
pub(crate) fn normalize_local_contrast(image: &GrayImage, window: usize) -> GrayImage {
    let w = image.width();
    let h = image.height();
    let integral = image.integral();
    let mut out = GrayImage::new(w, h);
    let r = window as i64;
    // First pass: local mean removal.
    let mut centred = vec![0.0f32; w * h];
    let mut max_abs = 1e-4f32;
    for y in 0..h {
        for x in 0..w {
            let mean = integral.region_mean(x as i64 - r, y as i64 - r, x as i64 + r, y as i64 + r);
            let v = image.get(x, y) - mean;
            centred[y * w + x] = v;
            max_abs = max_abs.max(v.abs());
        }
    }
    // Second pass: re-expand into [0, 1] around 0.5.
    for y in 0..h {
        for x in 0..w {
            out.set(x, y, 0.5 + 0.5 * centred[y * w + x] / max_abs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Camera, ClassicalDetector, DegradationConfig, GroundScene, ImageDegrader,
        LightingCondition, MarkerPlacement, MarkerRenderer, WeatherKind,
    };
    use mls_geom::{Pose, Vec3};

    fn render(id: u32, altitude: f64, size: f64, yaw: f64) -> GrayImage {
        let dict = MarkerDictionary::standard();
        let renderer = MarkerRenderer::new(dict);
        let scene = GroundScene::new().with_marker(MarkerPlacement::new(id, Vec2::ZERO, size, yaw));
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, altitude), 0.0);
        renderer.render(&Camera::downward(), &pose, &scene)
    }

    #[test]
    fn detects_clean_marker() {
        let frame = render(9, 8.0, 1.0, 0.3);
        let detections = LearnedDetector::new(MarkerDictionary::standard()).detect(&frame);
        assert!(!detections.is_empty());
        assert_eq!(detections[0].id, 9);
        // The surrogate, like TPH-YOLO, does not report orientation.
        assert!(detections[0].orientation.is_none());
    }

    #[test]
    fn more_robust_than_classical_under_degradation() {
        // Sweep a handful of degraded conditions; the learned surrogate must
        // detect in at least as many conditions as the classical detector,
        // and strictly more across the sweep (the Table II property).
        let dict = MarkerDictionary::standard();
        let classical = ClassicalDetector::new(dict.clone());
        let learned = LearnedDetector::new(dict);
        let mut classical_hits = 0;
        let mut learned_hits = 0;
        let mut cases = 0;
        for (i, weather) in WeatherKind::ALL.iter().enumerate() {
            for (j, lighting) in LightingCondition::ALL.iter().enumerate() {
                for (k, altitude) in [7.0, 10.0, 13.0].iter().enumerate() {
                    let frame = render(5, *altitude, 1.5, 0.2);
                    let cfg = DegradationConfig::for_conditions(*weather, *lighting);
                    let seed = (i * 100 + j * 10 + k) as u64;
                    let degraded = ImageDegrader::new(cfg, seed).apply(&frame);
                    cases += 1;
                    if classical.detect(&degraded).iter().any(|d| d.id == 5) {
                        classical_hits += 1;
                    }
                    if learned.detect(&degraded).iter().any(|d| d.id == 5) {
                        learned_hits += 1;
                    }
                }
            }
        }
        assert!(
            learned_hits > classical_hits,
            "learned {learned_hits}/{cases} should beat classical {classical_hits}/{cases}"
        );
        assert!(
            learned_hits as f64 >= 0.6 * cases as f64,
            "learned should detect in most conditions, got {learned_hits}/{cases}"
        );
    }

    #[test]
    fn no_detection_on_empty_scene() {
        let dict = MarkerDictionary::standard();
        let renderer = MarkerRenderer::new(dict.clone());
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 10.0), 0.0);
        let frame = renderer.render(&Camera::downward(), &pose, &GroundScene::new());
        assert!(LearnedDetector::new(dict).detect(&frame).is_empty());
    }

    #[test]
    fn score_candidates_reports_scores_in_unit_range() {
        let frame = render(3, 9.0, 1.0, 0.0);
        let detector = LearnedDetector::new(MarkerDictionary::standard());
        let candidates = detector.score_candidates(&frame);
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert!((0.0..=1.0).contains(&c.score), "score {}", c.score);
        }
        // Best candidate should identify the true marker.
        assert_eq!(candidates[0].id, 3);
    }

    #[test]
    fn threshold_can_be_recalibrated() {
        let mut detector = LearnedDetector::new(MarkerDictionary::standard());
        detector.set_acceptance_threshold(0.99);
        let frame = render(3, 9.0, 1.0, 0.0);
        // With an absurd threshold nothing passes.
        assert!(detector.detect(&frame).is_empty());
        detector.set_acceptance_threshold(0.5);
        assert!(!detector.detect(&frame).is_empty());
    }

    /// The selection `top_two` replaced: a stable descending sort.
    fn sorted_top_two(scores: &[f64]) -> Option<(u32, f64, f64)> {
        let mut sorted: Vec<(u32, f64)> = (0u32..).zip(scores.iter().copied()).collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let (id, best) = *sorted.first()?;
        Some((id, best, sorted.get(1).map(|s| s.1).unwrap_or(0.0)))
    }

    #[test]
    fn top_two_matches_a_stable_sort() {
        let cases: [&[f64]; 9] = [
            &[],
            &[0.7],
            &[0.5, 0.5],
            &[0.25, 0.75, 0.75, 0.5],
            &[0.9, 0.1, 0.9],
            &[0.1, 0.2, 0.3, 0.4],
            &[0.4, 0.3, 0.2, 0.1],
            &[0.3, 0.8, 0.3, 0.6, 0.8, 0.7],
            &[0.0, 0.0, 0.0],
        ];
        for scores in cases {
            let got = top_two((0u32..).zip(scores.iter().copied()));
            assert_eq!(got, sorted_top_two(scores), "scores {scores:?}");
        }
        // Ties go to the lowest id with a zero margin; a lone code is its own
        // runner-up at 0; an empty dictionary decodes nothing.
        assert_eq!(
            top_two([(0, 0.5), (1, 0.75), (2, 0.75)].into_iter()),
            Some((1, 0.75, 0.75))
        );
        assert_eq!(top_two([(0, 0.7)].into_iter()), Some((0, 0.7, 0.0)));
        assert_eq!(top_two(std::iter::empty()), None);
    }

    /// The per-cell accumulation `PayloadSums` replaced.
    fn per_cell_sum(terms: &[[f64; 2]; PAYLOAD_CELLS * PAYLOAD_CELLS], agree: MarkerCode) -> f64 {
        let mut sum = 0.0f64;
        for (i, term) in terms.iter().enumerate() {
            sum += term[usize::from((agree >> i) & 1)];
        }
        sum
    }

    #[test]
    fn payload_sums_match_per_cell_accumulation_for_every_mask() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(16);
        for round in 0..6 {
            // Terms as `soft_score` forms them from a random confidence
            // weight, plus rounds of arbitrary magnitudes whose sums round
            // differently in every order.
            let terms: [[f64; 2]; PAYLOAD_CELLS * PAYLOAD_CELLS] = std::array::from_fn(|_| {
                if round < 3 {
                    let w = rng.random_range(0.0..=1.0f64);
                    [w * 0.0 + (1.0 - w) * 0.5, w * 1.0 + (1.0 - w) * 0.5]
                } else {
                    let scale = 10f64.powi(rng.random_range(-8..8));
                    [rng.random::<f64>() * scale, rng.random::<f64>() * scale]
                }
            });
            let sums = PayloadSums::new(&terms);
            for agree in 0..=MarkerCode::MAX {
                // Every mask passes through every lane over the sweep.
                let lanes = [agree, agree.rotate_left(4), !agree, agree ^ 0xa5c3];
                for (lane, got) in lanes.into_iter().zip(sums.rotations(lanes)) {
                    assert_eq!(
                        got.to_bits(),
                        per_cell_sum(&terms, lane).to_bits(),
                        "round {round}, mask {lane:#06x}"
                    );
                }
            }
        }
    }

    #[test]
    fn rotate_cell_is_a_bijection() {
        for rotation in 0..4 {
            let mut seen = [[false; 4]; 4];
            for row in 0..4 {
                for col in 0..4 {
                    let (r, c) = rotate_cell(row, col, rotation, 4);
                    assert!(!seen[r][c]);
                    seen[r][c] = true;
                }
            }
        }
    }

    #[test]
    fn normalization_recovers_contrast_under_fog() {
        let frame = render(5, 8.0, 1.0, 0.0);
        let cfg = DegradationConfig::for_conditions(WeatherKind::Fog, LightingCondition::LowLight);
        let degraded = ImageDegrader::new(cfg, 3).apply(&frame);
        let normalized = normalize_local_contrast(&degraded, 10);
        let (dmin, dmax) = degraded.min_max();
        let (nmin, nmax) = normalized.min_max();
        assert!(nmax - nmin > (dmax - dmin) * 0.9);
    }

    #[test]
    fn relative_cost_reflects_heavier_model() {
        let detector = LearnedDetector::new(MarkerDictionary::standard());
        assert!(detector.relative_cost() > 10.0);
    }
}
