//! Image degradation pipeline.
//!
//! The paper evaluates marker detection "across diverse environments and
//! weather conditions" and reports that fog, sun glare, shadows, motion blur
//! and low marker resolution hurt the classical detector far more than the
//! learned one. This module models those effects as deterministic-per-seed
//! transforms applied to rendered frames, so the same physical scene can be
//! observed under Clear/Fog/Rain/Glare conditions in the Table II sweep and
//! during full mission simulation.

use mls_geom::Vec2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::GrayImage;

/// Coarse weather class used by the standalone detection sweeps.
///
/// Full mission simulation builds a [`DegradationConfig`] directly from the
/// world's continuous weather state; these variants exist so the Table II
/// style sweeps can name their conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeatherKind {
    /// Clear sky, good contrast.
    Clear,
    /// Overcast: slightly reduced contrast, no glare.
    Overcast,
    /// Fog: strong contrast compression and added haze luminance.
    Fog,
    /// Rain: droplet noise, mild blur, darker scene.
    Rain,
    /// Direct sun glare on the ground near the marker.
    SunGlare,
}

impl WeatherKind {
    /// All weather kinds, in a stable order (useful for sweeps).
    pub const ALL: [WeatherKind; 5] = [
        WeatherKind::Clear,
        WeatherKind::Overcast,
        WeatherKind::Fog,
        WeatherKind::Rain,
        WeatherKind::SunGlare,
    ];

    /// `true` for the conditions the paper classes as "adverse weather".
    pub fn is_adverse(self) -> bool {
        !matches!(self, WeatherKind::Clear | WeatherKind::Overcast)
    }
}

/// Scene lighting level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LightingCondition {
    /// Bright midday light.
    Bright,
    /// Normal daylight.
    Normal,
    /// Low light (dawn/dusk): reduced contrast, more sensor noise.
    LowLight,
    /// Harsh low sun: long hard shadows across the scene.
    HarshShadows,
}

impl LightingCondition {
    /// All lighting conditions, in a stable order.
    pub const ALL: [LightingCondition; 4] = [
        LightingCondition::Bright,
        LightingCondition::Normal,
        LightingCondition::LowLight,
        LightingCondition::HarshShadows,
    ];
}

/// A localized glare spot (specular sun reflection) in normalized image
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GlareSpot {
    /// Center of the glare in normalized `[0, 1] x [0, 1]` image coordinates.
    pub center: Vec2,
    /// Radius as a fraction of the image diagonal.
    pub radius: f64,
    /// Peak added luminance at the center.
    pub intensity: f32,
}

/// A rectangular occluding patch (e.g. a shadow band or partial obstruction)
/// in normalized image coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OcclusionPatch {
    /// Minimum corner in normalized image coordinates.
    pub min: Vec2,
    /// Maximum corner in normalized image coordinates.
    pub max: Vec2,
    /// Luminance the patch is blended towards.
    pub luminance: f32,
    /// Blend strength in `[0, 1]`; 1 fully replaces the underlying pixels.
    pub opacity: f32,
}

/// Parameters of the degradation applied to a rendered frame.
///
/// All effects are optional; [`DegradationConfig::clear`] performs only the
/// (tiny) baseline sensor noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Multiplicative contrast around 0.5 (1 = unchanged, <1 compresses).
    pub contrast: f32,
    /// Additive brightness offset.
    pub brightness: f32,
    /// Standard deviation of zero-mean Gaussian sensor noise.
    pub noise_sigma: f32,
    /// Box-blur radius in pixels modelling defocus / rain smear.
    pub blur_radius: usize,
    /// Horizontal motion-blur length in pixels (vehicle translation during
    /// exposure).
    pub motion_blur: usize,
    /// Fog strength in `[0, 1]`: blends the frame towards haze luminance.
    pub fog: f32,
    /// Haze luminance used by the fog blend.
    pub haze_luminance: f32,
    /// Optional glare spot.
    pub glare: Option<GlareSpot>,
    /// Optional occluding patch.
    pub occlusion: Option<OcclusionPatch>,
    /// Vignette strength in `[0, 1]` (darkening towards the corners).
    pub vignette: f32,
    /// Probability that a pixel is dropped to black (transmission artefacts).
    pub dropout: f32,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self::clear()
    }
}

impl DegradationConfig {
    /// Baseline configuration: only mild sensor noise.
    pub fn clear() -> Self {
        Self {
            contrast: 1.0,
            brightness: 0.0,
            noise_sigma: 0.01,
            blur_radius: 0,
            motion_blur: 0,
            fog: 0.0,
            haze_luminance: 0.8,
            glare: None,
            occlusion: None,
            vignette: 0.0,
            dropout: 0.0,
        }
    }

    /// A configuration named after a coarse weather and lighting class.
    ///
    /// The numeric values are chosen so that the classical detector starts to
    /// fail noticeably under the adverse classes while the learned surrogate
    /// mostly keeps working — the qualitative behaviour Table II reports.
    pub fn for_conditions(weather: WeatherKind, lighting: LightingCondition) -> Self {
        let mut cfg = Self::clear();
        match weather {
            WeatherKind::Clear => {}
            WeatherKind::Overcast => {
                cfg.contrast = 0.85;
                cfg.noise_sigma = 0.015;
            }
            WeatherKind::Fog => {
                cfg.fog = 0.55;
                cfg.contrast = 0.6;
                cfg.noise_sigma = 0.02;
                cfg.blur_radius = 1;
            }
            WeatherKind::Rain => {
                cfg.contrast = 0.75;
                cfg.brightness = -0.08;
                cfg.noise_sigma = 0.035;
                cfg.blur_radius = 1;
                cfg.dropout = 0.01;
            }
            WeatherKind::SunGlare => {
                cfg.glare = Some(GlareSpot {
                    center: Vec2::new(0.55, 0.45),
                    radius: 0.35,
                    intensity: 0.65,
                });
                cfg.contrast = 0.9;
                cfg.noise_sigma = 0.015;
            }
        }
        match lighting {
            LightingCondition::Bright => {
                cfg.brightness += 0.08;
            }
            LightingCondition::Normal => {}
            LightingCondition::LowLight => {
                cfg.brightness -= 0.18;
                cfg.contrast *= 0.75;
                cfg.noise_sigma += 0.025;
            }
            LightingCondition::HarshShadows => {
                cfg.occlusion = Some(OcclusionPatch {
                    min: Vec2::new(0.0, 0.35),
                    max: Vec2::new(1.0, 0.7),
                    luminance: 0.12,
                    opacity: 0.75,
                });
            }
        }
        cfg
    }

    /// Builds a configuration from continuous environmental intensities in
    /// `[0, 1]`, used by the mission simulation where weather is a continuous
    /// state rather than a named class.
    pub fn from_intensities(
        fog: f64,
        rain: f64,
        glare: f64,
        low_light: f64,
        motion_blur_px: f64,
    ) -> Self {
        let mut cfg = Self::clear();
        let fog = fog.clamp(0.0, 1.0) as f32;
        let rain = rain.clamp(0.0, 1.0) as f32;
        let glare = glare.clamp(0.0, 1.0);
        let low_light = low_light.clamp(0.0, 1.0) as f32;
        cfg.fog = 0.65 * fog;
        cfg.contrast = 1.0 - 0.4 * fog - 0.25 * rain - 0.25 * low_light;
        cfg.brightness = -0.1 * rain - 0.2 * low_light;
        cfg.noise_sigma = 0.01 + 0.03 * rain + 0.025 * low_light;
        cfg.blur_radius = if fog > 0.5 || rain > 0.5 { 1 } else { 0 };
        cfg.motion_blur = motion_blur_px.clamp(0.0, 6.0).round() as usize;
        cfg.dropout = 0.012 * rain;
        if glare > 0.05 {
            cfg.glare = Some(GlareSpot {
                center: Vec2::new(0.55, 0.45),
                radius: 0.2 + 0.2 * glare,
                intensity: (0.7 * glare) as f32,
            });
        }
        cfg
    }

    /// A rough scalar "severity" of the configuration in `[0, 1]`, used by
    /// reports to bucket results by condition difficulty.
    pub fn severity(&self) -> f64 {
        let glare = self.glare.map(|g| g.intensity as f64).unwrap_or(0.0);
        let occ = self
            .occlusion
            .map(|o| o.opacity as f64 * 0.5)
            .unwrap_or(0.0);
        let v = (1.0 - self.contrast as f64) * 0.8
            + self.fog as f64 * 0.8
            + self.noise_sigma as f64 * 4.0
            + self.blur_radius as f64 * 0.1
            + self.motion_blur as f64 * 0.05
            + glare * 0.5
            + occ
            + self.brightness.abs() as f64 * 0.5;
        v.clamp(0.0, 1.0)
    }
}

/// Applies a [`DegradationConfig`] to rendered frames.
///
/// The degrader owns its RNG so repeated calls produce independent noise
/// realisations while remaining reproducible from the seed.
#[derive(Debug, Clone)]
pub struct ImageDegrader {
    config: DegradationConfig,
    rng: StdRng,
}

impl ImageDegrader {
    /// Creates a degrader with an explicit seed.
    pub fn new(config: DegradationConfig, seed: u64) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configuration being applied.
    pub fn config(&self) -> &DegradationConfig {
        &self.config
    }

    /// Applies the degradation to a frame, returning a new image.
    pub fn apply(&mut self, image: &GrayImage) -> GrayImage {
        let cfg = self.config.clone();
        let mut out = image.clone();

        if cfg.blur_radius > 0 {
            out = out.box_blurred(cfg.blur_radius);
        }
        if cfg.motion_blur > 1 {
            out = horizontal_blur(&out, cfg.motion_blur);
        }

        let w = out.width();
        let h = out.height();
        let diag = ((w * w + h * h) as f64).sqrt();
        // Glare centre and radius in pixels.
        let glare = cfg.glare.map(|glare| {
            let gx = glare.center.x * w as f64;
            let gy = glare.center.y * h as f64;
            (glare.intensity, gx, gy, glare.radius * diag)
        });
        for y in 0..h {
            for x in 0..w {
                let mut v = out.get(x, y);

                // Contrast / brightness around mid-grey.
                v = 0.5 + (v - 0.5) * cfg.contrast + cfg.brightness;

                // Fog: blend towards haze.
                if cfg.fog > 0.0 {
                    v = v * (1.0 - cfg.fog) + cfg.haze_luminance * cfg.fog;
                }

                // Glare: additive radial falloff.
                if let Some((intensity, gx, gy, r)) = glare {
                    let d = ((x as f64 - gx).powi(2) + (y as f64 - gy).powi(2)).sqrt();
                    if d < r {
                        let falloff = (1.0 - d / r) as f32;
                        v += intensity * falloff * falloff;
                    }
                }

                // Occlusion patch.
                if let Some(occ) = cfg.occlusion {
                    let nx = x as f64 / w as f64;
                    let ny = y as f64 / h as f64;
                    if nx >= occ.min.x && nx <= occ.max.x && ny >= occ.min.y && ny <= occ.max.y {
                        v = v * (1.0 - occ.opacity) + occ.luminance * occ.opacity;
                    }
                }

                // Vignette.
                if cfg.vignette > 0.0 {
                    let dx = (x as f64 / w as f64 - 0.5) * 2.0;
                    let dy = (y as f64 / h as f64 - 0.5) * 2.0;
                    let d2 = (dx * dx + dy * dy) as f32 / 2.0;
                    v *= 1.0 - cfg.vignette * d2;
                }

                // Sensor noise.
                if cfg.noise_sigma > 0.0 {
                    v += gaussian(&mut self.rng) * cfg.noise_sigma;
                }

                // Dropout.
                if cfg.dropout > 0.0 && self.rng.random::<f32>() < cfg.dropout {
                    v = 0.0;
                }

                out.set(x, y, v.clamp(0.0, 1.0));
            }
        }
        out
    }
}

/// Horizontal motion blur of the given kernel length.
fn horizontal_blur(image: &GrayImage, length: usize) -> GrayImage {
    let w = image.width();
    let h = image.height();
    let mut out = GrayImage::new(w, h);
    let half = (length / 2) as i64;
    for y in 0..h {
        for x in 0..w {
            let mut sum = 0.0f32;
            let mut n = 0.0f32;
            for k in -half..=half {
                sum += image.get_clamped(x as i64 + k, y as i64);
                n += 1.0;
            }
            out.set(x, y, sum / n);
        }
    }
    out
}

/// A single standard-normal sample (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> GrayImage {
        let mut img = GrayImage::filled(64, 48, 0.5);
        // A dark square in the middle so contrast effects are visible.
        for y in 16..32 {
            for x in 24..40 {
                img.set(x, y, 0.1);
            }
        }
        img
    }

    #[test]
    fn clear_config_changes_image_only_slightly() {
        let img = test_image();
        let mut degrader = ImageDegrader::new(DegradationConfig::clear(), 7);
        let out = degrader.apply(&img);
        let mut max_diff = 0.0f32;
        for (a, b) in img.data().iter().zip(out.data()) {
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(
            max_diff < 0.08,
            "clear weather should be almost noise-free, got {max_diff}"
        );
    }

    #[test]
    fn fog_compresses_contrast() {
        let img = test_image();
        let mut degrader = ImageDegrader::new(
            DegradationConfig::for_conditions(WeatherKind::Fog, LightingCondition::Normal),
            7,
        );
        let out = degrader.apply(&img);
        let (in_min, in_max) = img.min_max();
        let (out_min, out_max) = out.min_max();
        assert!(out_max - out_min < (in_max - in_min) * 0.8);
        // Fog raises the luminance of the dark square.
        assert!(out.get(30, 20) > img.get(30, 20));
    }

    #[test]
    fn glare_brightens_affected_region() {
        let img = GrayImage::filled(64, 48, 0.4);
        let mut cfg = DegradationConfig::clear();
        cfg.noise_sigma = 0.0;
        cfg.glare = Some(GlareSpot {
            center: Vec2::new(0.5, 0.5),
            radius: 0.3,
            intensity: 0.5,
        });
        let mut degrader = ImageDegrader::new(cfg, 1);
        let out = degrader.apply(&img);
        assert!(out.get(32, 24) > 0.6);
        assert!((out.get(1, 1) - 0.4).abs() < 1e-3);
    }

    #[test]
    fn occlusion_replaces_band() {
        let img = GrayImage::filled(64, 48, 0.9);
        let mut cfg = DegradationConfig::clear();
        cfg.noise_sigma = 0.0;
        cfg.occlusion = Some(OcclusionPatch {
            min: Vec2::new(0.0, 0.0),
            max: Vec2::new(1.0, 0.5),
            luminance: 0.1,
            opacity: 1.0,
        });
        let mut degrader = ImageDegrader::new(cfg, 1);
        let out = degrader.apply(&img);
        assert!(out.get(10, 5) < 0.15);
        assert!(out.get(10, 40) > 0.85);
    }

    #[test]
    fn degradation_is_deterministic_per_seed() {
        let img = test_image();
        let cfg = DegradationConfig::for_conditions(WeatherKind::Rain, LightingCondition::LowLight);
        let a = ImageDegrader::new(cfg.clone(), 42).apply(&img);
        let b = ImageDegrader::new(cfg.clone(), 42).apply(&img);
        let c = ImageDegrader::new(cfg, 43).apply(&img);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn severity_orders_conditions_sensibly() {
        let clear = DegradationConfig::clear().severity();
        let fog = DegradationConfig::for_conditions(WeatherKind::Fog, LightingCondition::Normal)
            .severity();
        let fog_low =
            DegradationConfig::for_conditions(WeatherKind::Fog, LightingCondition::LowLight)
                .severity();
        assert!(clear < fog);
        assert!(fog < fog_low);
    }

    #[test]
    fn adverse_classification_matches_paper_split() {
        assert!(!WeatherKind::Clear.is_adverse());
        assert!(!WeatherKind::Overcast.is_adverse());
        assert!(WeatherKind::Fog.is_adverse());
        assert!(WeatherKind::Rain.is_adverse());
        assert!(WeatherKind::SunGlare.is_adverse());
    }

    #[test]
    fn intensities_map_to_bounded_config() {
        let cfg = DegradationConfig::from_intensities(1.0, 1.0, 1.0, 1.0, 10.0);
        assert!(cfg.contrast > 0.0);
        assert!(cfg.motion_blur <= 6);
        assert!(cfg.glare.is_some());
        assert!(cfg.severity() <= 1.0);
        let clear = DegradationConfig::from_intensities(0.0, 0.0, 0.0, 0.0, 0.0);
        assert!(clear.glare.is_none());
        assert!(clear.severity() < cfg.severity());
    }
}
