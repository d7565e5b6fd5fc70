//! Benchmark scenarios: a map, a weather condition, a start position, a
//! nominal GPS landing target and the true marker placement.
//!
//! The paper's benchmark is "10 simulation maps ... for each map, we
//! generated 10 distinct test scenarios, equally divided between normal and
//! adverse weather conditions", with "the target marker, along with false
//! positive markers ... placed within a defined radius of the target" and the
//! drone starting from the map origin.
//!
//! On top of the open benchmark, [`ScenarioFamily`] names *constrained-pad*
//! variants of the suite: the paper's Fig. 6 failure mode (inflated bounding
//! boxes "swallowing" the free space next to buildings) only shows up in
//! mission outcomes when the pad actually sits next to structure, so the
//! constrained families deterministically build that hard geometry around
//! every pad — a wall-adjacent pad, a street-canyon corridor, a rooftop-style
//! well — instead of hoping the procedural map produces it.

use mls_geom::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::generator::{MapGenerator, MapGeneratorConfig};
use crate::map::{MapStyle, MarkerSite, WorldMap};
use crate::obstacle::Obstacle;
use crate::weather::Weather;
use crate::SimWorldError;

/// Number of marker ids available in the shared detection dictionary
/// (`mls_vision::MarkerDictionary::standard()` generates this many codes).
/// Scenario generation only needs the id *range*, not the dictionary itself.
pub const DICTIONARY_SIZE: u32 = 50;

/// Where a benchmark suite places its landing pads relative to structure.
///
/// The open family is the paper's original benchmark: pads on a clear disc,
/// well away from buildings. The constrained families rebuild the pad's
/// immediate surroundings deterministically (from the scenario seed) so the
/// geometry-sensitive failure modes — descent corridors swallowed by
/// obstacle inflation, approach paths squeezed between walls — are present
/// in *every* scenario instead of by procedural accident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioFamily {
    /// The paper's benchmark: a clear disc of `target_clear_radius` around
    /// the pad (no obstacle nearby).
    Open,
    /// A wall-adjacent pad: one building face 1.5–2.5 m from the pad centre
    /// plus a flanking pole, the Fig. 6 "swallowed free space" geometry.
    ConstrainedPad,
    /// A street canyon: the pad sits between two parallel building walls
    /// ~5–7 m apart, so the only approaches are along the corridor or from
    /// directly above.
    UrbanCanyon,
    /// A rooftop-style well: tall structure on three sides of the pad (one
    /// side open), approximating a rooftop pad between parapets — descent
    /// must thread the well from above.
    Rooftop,
}

impl ScenarioFamily {
    /// Every family, in a stable reporting order.
    pub const ALL: [ScenarioFamily; 4] = [
        ScenarioFamily::Open,
        ScenarioFamily::ConstrainedPad,
        ScenarioFamily::UrbanCanyon,
        ScenarioFamily::Rooftop,
    ];

    /// Pad clearance kept obstacle-free for the constrained families,
    /// metres: tight enough that structure crowds the descent, wide enough
    /// that the airframe physically fits.
    pub const CONSTRAINED_PAD_CLEARANCE: f64 = 1.2;

    /// Short label used in reports, trace headers and scenario names.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioFamily::Open => "open",
            ScenarioFamily::ConstrainedPad => "constrained-pad",
            ScenarioFamily::UrbanCanyon => "urban-canyon",
            ScenarioFamily::Rooftop => "rooftop",
        }
    }

    /// Parses a report label back into a family.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.label() == label)
    }

    /// Radius around the pad guaranteed free of obstacles, metres.
    pub fn pad_clear_radius(self, config: &ScenarioConfig) -> f64 {
        match self {
            ScenarioFamily::Open => config.target_clear_radius,
            _ => Self::CONSTRAINED_PAD_CLEARANCE,
        }
    }

    /// Upper bound on the distance from the pad to the nearest obstacle,
    /// metres — the invariant that makes a family "constrained". `None` for
    /// the open family (no obstacle is required near the pad).
    pub fn max_obstacle_distance(self) -> Option<f64> {
        match self {
            ScenarioFamily::Open => None,
            ScenarioFamily::ConstrainedPad => Some(3.0),
            ScenarioFamily::UrbanCanyon | ScenarioFamily::Rooftop => Some(4.5),
        }
    }
}

/// Parameters of benchmark scenario generation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioConfig {
    /// Pad-placement family of the suite (see [`ScenarioFamily`]).
    pub family: ScenarioFamily,
    /// Number of maps in the benchmark.
    pub maps: usize,
    /// Scenarios generated per map (half normal weather, half adverse).
    pub scenarios_per_map: usize,
    /// Physical marker side length, metres.
    pub marker_size: f64,
    /// Horizontal distance range from the origin to the landing target.
    pub target_distance: (f64, f64),
    /// Radius of the clear disc enforced around the target marker.
    pub target_clear_radius: f64,
    /// Horizontal error range of the nominal GPS target versus the true
    /// marker position.
    pub gps_target_error: (f64, f64),
    /// Number of false-positive markers scattered near the target.
    pub decoys: (usize, usize),
    /// Radius around the target within which decoys are placed.
    pub decoy_radius: f64,
    /// Map-generation parameters.
    pub map_config: MapGeneratorConfig,
}

impl serde::Deserialize for ScenarioConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            // Configs persisted before scenario families existed have no
            // family key and described the open benchmark.
            family: match value.get("family") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => ScenarioFamily::Open,
            },
            maps: serde::de_field(value, "maps")?,
            scenarios_per_map: serde::de_field(value, "scenarios_per_map")?,
            marker_size: serde::de_field(value, "marker_size")?,
            target_distance: serde::de_field(value, "target_distance")?,
            target_clear_radius: serde::de_field(value, "target_clear_radius")?,
            gps_target_error: serde::de_field(value, "gps_target_error")?,
            decoys: serde::de_field(value, "decoys")?,
            decoy_radius: serde::de_field(value, "decoy_radius")?,
            map_config: serde::de_field(value, "map_config")?,
        })
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            family: ScenarioFamily::Open,
            maps: 10,
            scenarios_per_map: 10,
            marker_size: 1.5,
            target_distance: (30.0, 60.0),
            target_clear_radius: 3.0,
            gps_target_error: (1.0, 5.0),
            decoys: (1, 3),
            decoy_radius: 18.0,
            map_config: MapGeneratorConfig::default(),
        }
    }
}

/// One benchmark scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    /// Sequential scenario identifier within its benchmark.
    pub id: usize,
    /// The pad-placement family the scenario was generated under.
    pub family: ScenarioFamily,
    /// Human-readable name ("urban-02/s07-rain").
    pub name: String,
    /// The world the mission flies in (markers already placed).
    pub map: WorldMap,
    /// Environmental conditions.
    pub weather: Weather,
    /// Take-off position (on the ground at the map origin).
    pub start: Vec3,
    /// The nominal GPS landing target handed to the mission (offset from the
    /// true marker by a few metres of survey/GNSS error).
    pub gps_target: Vec3,
    /// Dictionary id of the genuine landing marker.
    pub target_marker_id: u32,
    /// Physical marker side length, metres.
    pub marker_size: f64,
    /// Seed from which every stochastic element of the scenario derives.
    pub seed: u64,
}

impl serde::Deserialize for Scenario {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            id: serde::de_field(value, "id")?,
            // Scenarios persisted before families existed were all open.
            family: match value.get("family") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => ScenarioFamily::Open,
            },
            name: serde::de_field(value, "name")?,
            map: serde::de_field(value, "map")?,
            weather: serde::de_field(value, "weather")?,
            start: serde::de_field(value, "start")?,
            gps_target: serde::de_field(value, "gps_target")?,
            target_marker_id: serde::de_field(value, "target_marker_id")?,
            marker_size: serde::de_field(value, "marker_size")?,
            seed: serde::de_field(value, "seed")?,
        })
    }
}

impl Scenario {
    /// True position of the genuine landing marker.
    ///
    /// # Errors
    ///
    /// Returns [`SimWorldError::MissingTarget`] when no target marker has
    /// been placed. Scenarios produced by [`ScenarioGenerator`] always carry
    /// one; hand-built scenarios (tests, custom harnesses) may not.
    pub fn true_target(&self) -> Result<Vec3, SimWorldError> {
        self.map
            .target_marker()
            .map(|m| m.position)
            .ok_or_else(|| SimWorldError::MissingTarget {
                scenario: self.name.clone(),
            })
    }

    /// `true` when the scenario's weather is classified adverse.
    pub fn is_adverse(&self) -> bool {
        self.weather.is_adverse()
    }

    /// Distance from the pad (probed slightly above the marker) to the
    /// nearest obstacle surface, or `None` when the map has no obstacles or
    /// no target marker.
    pub fn pad_obstacle_distance(&self) -> Option<f64> {
        let probe = self.true_target().ok()? + Vec3::new(0.0, 0.0, 0.5);
        self.map
            .obstacles
            .iter()
            .map(|o| o.distance_to(probe))
            .min_by(f64::total_cmp)
    }
}

/// Generates reproducible benchmark scenario suites.
#[derive(Debug, Clone)]
pub struct ScenarioGenerator {
    config: ScenarioConfig,
}

impl Default for ScenarioGenerator {
    fn default() -> Self {
        Self::new(ScenarioConfig::default())
    }
}

impl ScenarioGenerator {
    /// Creates a generator with an explicit configuration.
    pub fn new(config: ScenarioConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Generates the full paper benchmark: `maps × scenarios_per_map`
    /// scenarios, half under normal weather and half under adverse weather.
    ///
    /// # Errors
    ///
    /// Returns [`SimWorldError::InvalidConfig`] when the configuration asks
    /// for zero maps or zero scenarios per map.
    pub fn generate_benchmark(&self, seed: u64) -> Result<Vec<Scenario>, SimWorldError> {
        if self.config.maps == 0 || self.config.scenarios_per_map == 0 {
            return Err(SimWorldError::InvalidConfig {
                reason: "benchmark needs at least one map and one scenario per map".to_string(),
            });
        }
        let mut scenarios = Vec::with_capacity(self.config.maps * self.config.scenarios_per_map);
        let mut id = 0usize;
        for map_index in 0..self.config.maps {
            // Cycle styles so the benchmark covers rural, suburban and urban.
            let style = MapStyle::ALL[map_index % MapStyle::ALL.len()];
            // The map layout depends only on the benchmark seed and the map
            // index: all scenarios of a map share obstacles, matching the
            // paper's fixed ten maps.
            let map_seed = seed ^ ((map_index as u64 + 1) << 17);
            for slot in 0..self.config.scenarios_per_map {
                let adverse = slot >= self.config.scenarios_per_map / 2;
                let scenario_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(((map_index as u64) << 32) | slot as u64);
                scenarios.push(self.generate_scenario(
                    id,
                    map_index,
                    style,
                    adverse,
                    scenario_seed,
                    map_seed,
                )?);
                id += 1;
            }
        }
        Ok(scenarios)
    }

    /// Generates a single scenario with explicit style and weather class.
    ///
    /// `map_seed` fixes the obstacle layout (scenarios sharing a `map_seed`
    /// fly over identical worlds); `seed` drives everything that varies per
    /// scenario (weather jitter, marker placement, GPS error).
    pub fn generate_scenario(
        &self,
        id: usize,
        map_index: usize,
        style: MapStyle,
        adverse: bool,
        seed: u64,
        map_seed: u64,
    ) -> Result<Scenario, SimWorldError> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(seed);
        let map_name = format!("{}-{:02}", style.label(), map_index);
        let generator = MapGenerator::new(cfg.map_config.clone());
        let mut map = generator.generate(&map_name, style, map_seed);

        let weather = if adverse {
            Weather::sample_adverse(&mut rng)
        } else {
            Weather::sample_normal(&mut rng)
        };

        // Choose the true landing target. The open family keeps the paper's
        // clear disc; the constrained families carve a tight pad site and
        // deterministically build hard geometry around it.
        let target = match cfg.family {
            ScenarioFamily::Open => self.sample_target_position(&mut rng, &map)?,
            family => self.place_constrained_pad(&mut rng, &mut map, family)?,
        };
        let target_marker_id = rng.random_range(0..DICTIONARY_SIZE);
        let marker_yaw = rng.random_range(-std::f64::consts::PI..std::f64::consts::PI);
        map.markers.push(MarkerSite::target(
            target_marker_id,
            target,
            cfg.marker_size,
            marker_yaw,
        ));

        // Scatter decoys: some use other valid ids, some are blank squares
        // (ids outside the dictionary).
        let n_decoys = rng.random_range(cfg.decoys.0..=cfg.decoys.1);
        for _ in 0..n_decoys {
            let mut attempts = 0;
            let position = loop {
                attempts += 1;
                let angle = rng.random_range(0.0..std::f64::consts::TAU);
                let radius = rng.random_range(6.0..cfg.decoy_radius);
                let p = target + Vec3::new(angle.cos() * radius, angle.sin() * radius, 0.0);
                // Probe above the pad: `has_clearance` also enforces ground
                // distance, so a probe at marker height would always fail.
                if (map.has_clearance(p + Vec3::new(0.0, 0.0, 2.0), 1.5)
                    && map.bounds.contains(p + Vec3::new(0.0, 0.0, 1.0)))
                    || attempts > 40
                {
                    break p;
                }
            };
            let decoy_id = if rng.random::<f64>() < 0.5 {
                // A different valid marker id.
                (target_marker_id + rng.random_range(1..DICTIONARY_SIZE)) % DICTIONARY_SIZE
            } else {
                // A blank white square (out-of-dictionary id).
                DICTIONARY_SIZE + rng.random_range(0..50)
            };
            map.markers.push(MarkerSite::decoy(
                decoy_id,
                position,
                cfg.marker_size,
                rng.random_range(-std::f64::consts::PI..std::f64::consts::PI),
            ));
        }

        // The GPS target the mission is given: true target plus survey
        // error. Near walls the nominal target must still name reachable
        // air, so constrained families resample the error vector (shrinking
        // it as attempts run out) until it clears the structure.
        let mut error = rng.random_range(cfg.gps_target_error.0..=cfg.gps_target_error.1);
        let mut gps_target = target;
        for attempt in 0..24 {
            let angle = rng.random_range(0.0..std::f64::consts::TAU);
            let magnitude = error * (1.0 - attempt as f64 / 32.0);
            let candidate =
                target + Vec3::new(angle.cos() * magnitude, angle.sin() * magnitude, 0.0);
            let clear = cfg.family == ScenarioFamily::Open
                || map
                    .obstacles
                    .iter()
                    .all(|o| o.distance_to(candidate + Vec3::new(0.0, 0.0, 0.5)) >= 1.0);
            if clear {
                gps_target = candidate;
                break;
            }
            error = magnitude;
        }

        let weather_label = weather.label.clone();
        let family_suffix = match cfg.family {
            ScenarioFamily::Open => String::new(),
            family => format!("-{}", family.label()),
        };
        Ok(Scenario {
            id,
            family: cfg.family,
            name: format!(
                "{map_name}/s{:02}-{}{}",
                id % cfg.scenarios_per_map.max(1),
                weather_label,
                family_suffix
            ),
            map,
            weather,
            start: Vec3::ZERO,
            gps_target,
            target_marker_id,
            marker_size: cfg.marker_size,
            seed,
        })
    }

    /// Samples a target marker position with the required clearance,
    /// clearing a small disc of obstacles if no clear spot exists.
    fn sample_target_position(
        &self,
        rng: &mut StdRng,
        map: &WorldMap,
    ) -> Result<Vec3, SimWorldError> {
        let cfg = &self.config;
        for _ in 0..200 {
            let angle = rng.random_range(0.0..std::f64::consts::TAU);
            let distance = rng.random_range(cfg.target_distance.0..=cfg.target_distance.1);
            let p = Vec3::new(angle.cos() * distance, angle.sin() * distance, 0.0);
            if !map.bounds.contains(p + Vec3::new(0.0, 0.0, 1.0)) {
                continue;
            }
            let probe = p + Vec3::new(0.0, 0.0, 0.5);
            if map
                .obstacles
                .iter()
                .all(|o| o.distance_to(probe) >= cfg.target_clear_radius)
            {
                return Ok(p);
            }
        }
        Err(SimWorldError::TargetPlacement {
            map: map.name.clone(),
        })
    }

    /// Places a constrained pad: samples a site, carves the pad clearance
    /// disc out of the procedural obstacles, then builds the family's hard
    /// geometry around it — all from the scenario RNG stream, so the same
    /// (seed, family) reproduces the same micro-site byte for byte.
    ///
    /// The constructed geometry guarantees the family invariants: no
    /// obstacle within [`ScenarioFamily::CONSTRAINED_PAD_CLEARANCE`] of the
    /// pad, at least one obstacle within
    /// [`ScenarioFamily::max_obstacle_distance`].
    fn place_constrained_pad(
        &self,
        rng: &mut StdRng,
        map: &mut WorldMap,
        family: ScenarioFamily,
    ) -> Result<Vec3, SimWorldError> {
        let cfg = &self.config;
        let clear = ScenarioFamily::CONSTRAINED_PAD_CLEARANCE;
        // Keep the whole micro-site (walls included) inside the map bounds.
        let margin = 16.0;
        let limit = map.bounds.max().x - margin;
        let mut site = None;
        for _ in 0..200 {
            let angle = rng.random_range(0.0..std::f64::consts::TAU);
            let distance = rng.random_range(cfg.target_distance.0..=cfg.target_distance.1);
            let p = Vec3::new(angle.cos() * distance, angle.sin() * distance, 0.0);
            if p.x.abs() <= limit && p.y.abs() <= limit {
                site = Some(p);
                break;
            }
        }
        let Some(pad) = site else {
            return Err(SimWorldError::TargetPlacement {
                map: map.name.clone(),
            });
        };

        // Carve the pad clearance disc: procedural obstacles intruding into
        // it are removed (the constrained micro-site replaces them), so the
        // pad itself is always physically landable.
        let probe = pad + Vec3::new(0.0, 0.0, 0.5);
        map.obstacles.retain(|o| o.distance_to(probe) >= clear);

        // Axis-aligned wall directions (obstacles are AABBs).
        const SIDES: [(f64, f64); 4] = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)];
        let wall = |pad: Vec3, dir: (f64, f64), face: f64, length: f64, height: f64| {
            let depth = 1.0;
            let center = pad + Vec3::new(dir.0, dir.1, 0.0) * (face + depth / 2.0);
            let (width, depth) = if dir.0 != 0.0 {
                (depth, length)
            } else {
                (length, depth)
            };
            Obstacle::building(center, width, depth, height)
        };

        match family {
            ScenarioFamily::Open => unreachable!("open pads use the clear-disc sampler"),
            ScenarioFamily::ConstrainedPad => {
                // One wall face 1.5–2.5 m from the pad, plus a pole flanking
                // an adjacent side: tight clear radius, wall-adjacent pad.
                let side = rng.random_range(0..4usize);
                let face = rng.random_range(1.5..2.5);
                let height = rng.random_range(6.0..9.0);
                map.obstacles
                    .push(wall(pad, SIDES[side], face, 12.0, height));
                let pole_side = SIDES[(side + 1) % 4];
                let pole_distance = rng.random_range(2.0..3.0);
                map.obstacles.push(Obstacle::pole(
                    pad + Vec3::new(pole_side.0, pole_side.1, 0.0) * pole_distance,
                    rng.random_range(4.0..7.0),
                ));
            }
            ScenarioFamily::UrbanCanyon => {
                // Two parallel walls flanking the pad: the approach corridor
                // runs along the canyon axis (or straight down).
                let along_x = rng.random::<bool>();
                let half_gap = rng.random_range(2.5..3.5);
                let height = rng.random_range(8.0..11.0);
                let (a, b) = if along_x {
                    ((0.0, 1.0), (0.0, -1.0))
                } else {
                    ((1.0, 0.0), (-1.0, 0.0))
                };
                map.obstacles.push(wall(pad, a, half_gap, 24.0, height));
                map.obstacles.push(wall(pad, b, half_gap, 24.0, height));
            }
            ScenarioFamily::Rooftop => {
                // Three tall walls forming a well around the pad, one side
                // open: a rooftop pad between parapets, approached from
                // above.
                let open_side = rng.random_range(0..4usize);
                let height = rng.random_range(10.0..13.0);
                for (index, side) in SIDES.iter().enumerate() {
                    if index == open_side {
                        continue;
                    }
                    let face = rng.random_range(2.0..3.0);
                    map.obstacles.push(wall(pad, *side, face, 9.0, height));
                }
            }
        }
        Ok(pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ScenarioConfig {
        ScenarioConfig {
            maps: 3,
            scenarios_per_map: 4,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn benchmark_has_expected_size_and_weather_split() {
        let generator = ScenarioGenerator::new(small_config());
        let scenarios = generator.generate_benchmark(7).unwrap();
        assert_eq!(scenarios.len(), 12);
        let adverse = scenarios.iter().filter(|s| s.is_adverse()).count();
        // Half of every map's scenarios are drawn from the adverse presets;
        // jitter can occasionally flip a borderline case, so allow slack.
        assert!((4..=8).contains(&adverse), "adverse count {adverse}");
    }

    #[test]
    fn full_paper_benchmark_is_100_scenarios() {
        let scenarios = ScenarioGenerator::default()
            .generate_benchmark(2025)
            .unwrap();
        assert_eq!(scenarios.len(), 100);
        // Every scenario has a target marker and at least one decoy or none,
        // and the GPS target is within the configured error of the truth.
        for s in &scenarios {
            let truth = s.true_target().unwrap();
            let err = s.gps_target.horizontal_distance(truth);
            assert!(err <= 5.0 + 1e-9, "gps error {err}");
            assert!(s.map.target_marker().is_some());
            assert!(truth.horizontal_distance(s.start) >= 29.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let generator = ScenarioGenerator::new(small_config());
        let a = generator.generate_benchmark(11).unwrap();
        let b = generator.generate_benchmark(11).unwrap();
        assert_eq!(a, b);
        let c = generator.generate_benchmark(12).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn scenarios_of_a_map_share_obstacles() {
        let generator = ScenarioGenerator::new(small_config());
        let scenarios = generator.generate_benchmark(5).unwrap();
        // Scenarios 0..4 belong to map 0: identical obstacle lists.
        let first = &scenarios[0].map.obstacles;
        for s in &scenarios[1..4] {
            assert_eq!(&s.map.obstacles, first);
        }
        // A different map has a different layout.
        assert_ne!(&scenarios[4].map.obstacles, first);
    }

    #[test]
    fn target_area_is_clear_of_obstacles() {
        let scenarios = ScenarioGenerator::new(small_config())
            .generate_benchmark(3)
            .unwrap();
        for s in &scenarios {
            let t = s.true_target().unwrap() + Vec3::new(0.0, 0.0, 0.5);
            for o in &s.map.obstacles {
                assert!(
                    o.distance_to(t) >= 2.9,
                    "obstacle too close to target in {}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = small_config();
        cfg.maps = 0;
        assert!(matches!(
            ScenarioGenerator::new(cfg).generate_benchmark(1),
            Err(SimWorldError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn missing_target_is_a_checked_error() {
        let generator = ScenarioGenerator::new(small_config());
        let mut scenario = generator.generate_benchmark(4).unwrap().remove(0);
        assert!(scenario.true_target().is_ok());
        scenario.map.markers.retain(|m| !m.is_target);
        assert!(matches!(
            scenario.true_target(),
            Err(SimWorldError::MissingTarget { .. })
        ));
        assert_eq!(scenario.pad_obstacle_distance(), None);
    }

    #[test]
    fn family_labels_round_trip() {
        for family in ScenarioFamily::ALL {
            assert_eq!(ScenarioFamily::from_label(family.label()), Some(family));
        }
        assert_eq!(ScenarioFamily::from_label("nonsense"), None);
    }

    fn family_config(family: ScenarioFamily) -> ScenarioConfig {
        ScenarioConfig {
            family,
            maps: 3,
            scenarios_per_map: 4,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn constrained_families_satisfy_their_clearance_invariants() {
        for family in ScenarioFamily::ALL {
            let config = family_config(family);
            for seed in [1u64, 7, 42] {
                let scenarios = ScenarioGenerator::new(config.clone())
                    .generate_benchmark(seed)
                    .unwrap();
                for s in &scenarios {
                    assert_eq!(s.family, family);
                    let nearest = s
                        .pad_obstacle_distance()
                        .expect("every benchmark map has obstacles");
                    let min_clear = family.pad_clear_radius(&config);
                    assert!(
                        nearest >= min_clear - 1e-9,
                        "{} pad crowded to {nearest:.2} m in {} (min {min_clear})",
                        family.label(),
                        s.name
                    );
                    if let Some(max) = family.max_obstacle_distance() {
                        assert!(
                            nearest <= max + 1e-9,
                            "{} pad unconstrained at {nearest:.2} m in {} (max {max})",
                            family.label(),
                            s.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn family_generation_is_deterministic_per_seed_and_family() {
        for family in ScenarioFamily::ALL {
            let generator = ScenarioGenerator::new(family_config(family));
            let a = generator.generate_benchmark(11).unwrap();
            let b = generator.generate_benchmark(11).unwrap();
            assert_eq!(a, b, "{} must be seed-pure", family.label());
            // Byte-identical, not just structurally equal.
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
        }
        // Families diverge from the same seed.
        let open = ScenarioGenerator::new(family_config(ScenarioFamily::Open))
            .generate_benchmark(11)
            .unwrap();
        let constrained = ScenarioGenerator::new(family_config(ScenarioFamily::ConstrainedPad))
            .generate_benchmark(11)
            .unwrap();
        assert_ne!(open, constrained);
    }

    #[test]
    fn constrained_names_carry_the_family_and_gps_targets_stay_clear() {
        let scenarios = ScenarioGenerator::new(family_config(ScenarioFamily::UrbanCanyon))
            .generate_benchmark(9)
            .unwrap();
        for s in &scenarios {
            assert!(s.name.contains("urban-canyon"), "{}", s.name);
            let probe = s.gps_target + Vec3::new(0.0, 0.0, 0.5);
            let nearest = s
                .map
                .obstacles
                .iter()
                .map(|o| o.distance_to(probe))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest >= 0.99,
                "nominal GPS target {nearest:.2} m from structure in {}",
                s.name
            );
        }
    }

    #[test]
    fn legacy_scenario_json_without_family_parses_as_open() {
        let scenario = ScenarioGenerator::new(small_config())
            .generate_benchmark(2)
            .unwrap()
            .remove(0);
        let json = serde_json::to_string(&scenario).unwrap();
        let serde::Value::Object(mut fields) = serde_json::parse(&json).unwrap() else {
            panic!("scenario serialises to an object");
        };
        fields.retain(|(key, _)| key != "family");
        let legacy = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let parsed: Scenario = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.family, ScenarioFamily::Open);
        assert_eq!(parsed.id, scenario.id);

        // The config falls back the same way.
        let config_json = serde_json::to_string(&small_config()).unwrap();
        let serde::Value::Object(mut fields) = serde_json::parse(&config_json).unwrap() else {
            panic!("config serialises to an object");
        };
        fields.retain(|(key, _)| key != "family");
        let legacy = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let parsed: ScenarioConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.family, ScenarioFamily::Open);
    }

    #[test]
    fn legacy_json_with_cruise_altitude_still_parses() {
        // Scenarios and configs once carried a `cruise_altitude` that no
        // mission read (missions climb to `LandingConfig::cruise_altitude`);
        // JSON persisted with it parses to the same values.
        fn with_cruise_altitude(json: &str, after: &str) -> String {
            let serde::Value::Object(mut fields) = serde_json::parse(json).unwrap() else {
                panic!("serialises to an object");
            };
            let at = fields.iter().position(|(key, _)| key == after).unwrap() + 1;
            let altitude = serde_json::parse("12.0").unwrap();
            fields.insert(at, ("cruise_altitude".to_string(), altitude));
            serde_json::to_string(&serde::Value::Object(fields)).unwrap()
        }

        let scenario = ScenarioGenerator::new(small_config())
            .generate_benchmark(2)
            .unwrap()
            .remove(0);
        let json = serde_json::to_string(&scenario).unwrap();
        let legacy = with_cruise_altitude(&json, "start");
        assert!(legacy.contains("\"cruise_altitude\":12"), "{legacy}");
        let parsed: Scenario = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed, scenario);

        let config = small_config();
        let json = serde_json::to_string(&config).unwrap();
        let legacy = with_cruise_altitude(&json, "decoy_radius");
        let parsed: ScenarioConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn decoy_ids_differ_from_target_or_are_blank() {
        let scenarios = ScenarioGenerator::new(small_config())
            .generate_benchmark(9)
            .unwrap();
        for s in &scenarios {
            for decoy in s.map.decoy_markers() {
                assert!(
                    decoy.id != s.target_marker_id,
                    "decoy id equals target id in {}",
                    s.name
                );
            }
        }
    }
}
