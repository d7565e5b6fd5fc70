//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] describes a full dependability sweep — scenario suite ×
//! system variants × compute profiles × fault plans — as plain serializable
//! data, so campaigns can be versioned, diffed and replayed. The spec itself
//! never runs anything; the [`runner`](crate::runner) expands it into
//! missions with per-mission deterministic seeds.

use mls_compute::ComputeProfile;
use mls_core::{ExecutorConfig, LandingConfig, SystemVariant};
use mls_sim_world::ScenarioFamily;
use mls_trace::TracePolicy;
use serde::{Deserialize, Serialize};

use crate::faults::{FaultKind, FaultPlan};
use crate::CampaignError;

/// Early-stopping policy for probe evaluation: a cell's remaining missions
/// are cancelled once the missions already flown decide pass/fail against
/// `threshold`.
///
/// The decision is the **exact** bound, a pure function of the mission
/// outcomes *in job order* (so the decision — and therefore the report —
/// is independent of the worker-thread count): with `s` successes among
/// the first `n` of `N` missions, the final rate is bracketed by
/// `[s/N, (s + N − n)/N]`; once the bracket falls entirely on one side of
/// the threshold the verdict cannot change, and the cell's classification
/// is guaranteed identical to flying every mission. Only the *recorded*
/// success rate changes: it becomes the rate over the missions actually
/// flown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStopPolicy {
    /// The success-rate threshold the cell is decided against.
    pub threshold: f64,
}

impl EarlyStopPolicy {
    /// An exact-bound policy: decisions are guaranteed to match full
    /// evaluation.
    pub fn exact(threshold: f64) -> Self {
        Self { threshold }
    }

    /// The verdict (`true` = pass, success rate ≥ threshold) after `flown`
    /// of `planned` missions produced `successes`, or `None` while the
    /// remaining missions could still swing the cell.
    pub fn decide(&self, successes: usize, flown: usize, planned: usize) -> Option<bool> {
        if flown == 0 || planned == 0 {
            return None;
        }
        let s = successes as f64;
        let n = flown as f64;
        let total = planned as f64;
        if (s + (total - n)) / total < self.threshold {
            return Some(false);
        }
        if s / total >= self.threshold {
            return Some(true);
        }
        None
    }

    /// Validates the policy's parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidSpec`] when a parameter is out of
    /// range.
    pub fn validate(&self) -> Result<(), CampaignError> {
        // 1.0 is meaningful (a single failed mission decides "fail", a
        // pass needs a perfect cell); 0 or below would decide "pass"
        // unconditionally and above 1 "fail" unconditionally.
        if !(self.threshold > 0.0 && self.threshold <= 1.0) {
            return Err(CampaignError::InvalidSpec {
                reason: "early-stop threshold must lie in (0, 1]".to_string(),
            });
        }
        Ok(())
    }
}

/// A declarative fault-injection campaign.
///
/// `Deserialize` is implemented by hand so spec JSONs written before the
/// trace subsystem (no `capture` key), the falsification subsystem (no
/// `combos` key) or scenario families (no `families` key) still parse with
/// the old semantics — the vendored serde has no `#[serde(default)]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignSpec {
    /// Campaign name, embedded in reports.
    pub name: String,
    /// Master seed every mission seed derives from.
    pub seed: u64,
    /// Number of benchmark maps.
    pub maps: usize,
    /// Scenarios generated per map (half normal, half adverse weather).
    pub scenarios_per_map: usize,
    /// Scenario families swept as a grid axis: each family gets its own
    /// deterministic scenario suite (derived via [`CampaignSpec::suite_seed`])
    /// and its own block of cells, so open-vs-constrained contrasts come out
    /// of one campaign report.
    pub families: Vec<ScenarioFamily>,
    /// Repetitions of every scenario per cell.
    pub repeats: usize,
    /// System generations under test.
    pub variants: Vec<SystemVariant>,
    /// Compute platforms under test.
    pub profiles: Vec<ComputeProfile>,
    /// Whether a fault-free baseline cell is included per (variant, profile).
    pub baseline: bool,
    /// Single-fault plans swept per (variant, profile): one cell each.
    pub faults: Vec<FaultPlan>,
    /// Multi-fault combinations swept per (variant, profile): one cell each,
    /// all plans of a combo active concurrently in every mission of the cell
    /// — a *point* of a multi-dimensional fault space
    /// ([`crate::faults::FaultSpace`]).
    pub combos: Vec<Vec<FaultPlan>>,
    /// Landing-system configuration flown in every mission.
    pub landing: LandingConfig,
    /// Mission-executor configuration.
    pub executor: ExecutorConfig,
    /// Which missions fly with a flight recorder attached and keep their
    /// traces ([`TracePolicy::Off`] records nothing).
    pub capture: TracePolicy,
    /// Early-stopping policy for the cells' mission schedules: `None`
    /// (the default for campaigns) flies every mission; `Some` cancels a
    /// cell's remaining missions once the flown prefix decides pass/fail
    /// against the policy's threshold. The falsification engine turns this
    /// on for its probe campaigns.
    pub probe_early_stop: Option<EarlyStopPolicy>,
}

impl serde::Deserialize for CampaignSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            name: serde::de_field(value, "name")?,
            seed: serde::de_field(value, "seed")?,
            maps: serde::de_field(value, "maps")?,
            scenarios_per_map: serde::de_field(value, "scenarios_per_map")?,
            // Specs predating scenario families swept the open suite only.
            families: match value.get("families") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => vec![ScenarioFamily::Open],
            },
            repeats: serde::de_field(value, "repeats")?,
            variants: serde::de_field(value, "variants")?,
            profiles: serde::de_field(value, "profiles")?,
            baseline: serde::de_field(value, "baseline")?,
            faults: serde::de_field(value, "faults")?,
            // Specs predating the falsification subsystem have no combos.
            combos: match value.get("combos") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => Vec::new(),
            },
            landing: serde::de_field(value, "landing")?,
            executor: serde::de_field(value, "executor")?,
            // Specs predating the trace subsystem have no capture key.
            capture: match value.get("capture") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => TracePolicy::Off,
            },
            // Specs predating batched probe evaluation flew every mission.
            probe_early_stop: match value.get("probe_early_stop") {
                Some(inner) => {
                    // Policies once carried a Hoeffding `confidence`; a
                    // spec that engaged it asked for inexact decisions
                    // this engine no longer makes.
                    if inner
                        .get("confidence")
                        .is_some_and(|c| c.as_f64() != Some(0.0))
                    {
                        return Err(serde::Error::new(
                            "probe_early_stop.confidence is no longer supported: \
                             only 0 (the exact bound) parses",
                        ));
                    }
                    serde::Deserialize::from_value(inner)?
                }
                None => None,
            },
        })
    }
}

/// One cell of the campaign grid: a (family, variant, profile, fault point)
/// combination flown over the family's scenario suite.
///
/// `Deserialize` is implemented by hand so cells persisted before scenario
/// families existed (no `family` / `suite_index` keys) still parse as open
/// cells — the vendored serde has no `#[serde(default)]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignCell {
    /// Position of the cell in the expanded grid.
    pub index: usize,
    /// Scenario family whose suite the cell flies over.
    pub family: ScenarioFamily,
    /// Index into [`CampaignSpec::families`] (the runner keeps one scenario
    /// suite per family).
    pub suite_index: usize,
    /// System generation.
    pub variant: SystemVariant,
    /// Index into [`CampaignSpec::profiles`].
    pub profile_index: usize,
    /// Profile name (for reports).
    pub profile: String,
    /// The fault plans active concurrently in every mission of the cell;
    /// empty for the baseline cell, one entry for a classic single-fault
    /// sweep cell, several for a multi-dimensional fault-space point.
    pub faults: Vec<FaultPlan>,
}

impl serde::Deserialize for CampaignCell {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            index: serde::de_field(value, "index")?,
            // Cells persisted before scenario families were all open.
            family: match value.get("family") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => ScenarioFamily::Open,
            },
            suite_index: match value.get("suite_index") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => 0,
            },
            variant: serde::de_field(value, "variant")?,
            profile_index: serde::de_field(value, "profile_index")?,
            profile: serde::de_field(value, "profile")?,
            faults: serde::de_field(value, "faults")?,
        })
    }
}

impl CampaignCell {
    /// Stable row label (`MLS-V3/jetson-nano-maxn/gps-bias@0.500`,
    /// multi-fault plans joined with `+`). Non-open families are prefixed
    /// (`constrained-pad/MLS-V2/desktop-sil/baseline`), so legacy labels are
    /// unchanged.
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/{}",
            self.variant.label(),
            self.profile,
            fault_point_label(&self.faults)
        );
        match self.family {
            ScenarioFamily::Open => base,
            family => format!("{}/{base}", family.label()),
        }
    }
}

/// Renders a fault point for report rows: `baseline` when empty, plan
/// labels joined with `+` otherwise.
pub fn fault_point_label(faults: &[FaultPlan]) -> String {
    if faults.is_empty() {
        "baseline".to_string()
    } else {
        faults
            .iter()
            .map(FaultPlan::label)
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            name: "campaign".to_string(),
            seed: 2025,
            maps: 3,
            scenarios_per_map: 4,
            families: vec![ScenarioFamily::Open],
            repeats: 1,
            variants: SystemVariant::ALL.to_vec(),
            profiles: vec![ComputeProfile::desktop_sil()],
            baseline: true,
            faults: Vec::new(),
            combos: Vec::new(),
            landing: LandingConfig::default(),
            executor: ExecutorConfig::default(),
            capture: TracePolicy::Off,
            probe_early_stop: None,
        }
    }
}

impl CampaignSpec {
    /// A minimal smoke campaign: one map, two scenarios, three variants,
    /// three fault kinds at a single mid intensity — small enough for tests
    /// and examples, broad enough to exercise every engine stage.
    pub fn smoke() -> Self {
        Self {
            name: "smoke".to_string(),
            maps: 1,
            scenarios_per_map: 2,
            faults: vec![
                FaultPlan::new(FaultKind::MarkerOcclusion, 0.6),
                FaultPlan::new(FaultKind::GpsBias, 0.6),
                FaultPlan::new(FaultKind::ComputeThrottle, 0.6),
            ],
            ..Self::default()
        }
    }

    /// The paper-scale fault study: the full 10×10 benchmark, every variant,
    /// SIL and HIL compute profiles, every fault kind at three intensities.
    pub fn full_fault_study() -> Self {
        let mut faults = Vec::new();
        for kind in FaultKind::ALL {
            for intensity in [0.25, 0.5, 1.0] {
                faults.push(FaultPlan::new(kind, intensity));
            }
        }
        Self {
            name: "full-fault-study".to_string(),
            maps: 10,
            scenarios_per_map: 10,
            profiles: vec![
                ComputeProfile::desktop_sil(),
                ComputeProfile::jetson_nano_maxn(),
            ],
            faults,
            ..Self::default()
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidSpec`] when the grid is empty or a
    /// parameter is out of range.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let reject = |reason: &str| {
            Err(CampaignError::InvalidSpec {
                reason: reason.to_string(),
            })
        };
        if self.maps == 0 || self.scenarios_per_map == 0 || self.repeats == 0 {
            return reject("maps, scenarios_per_map and repeats must be positive");
        }
        if self.variants.is_empty() {
            return reject("at least one system variant is required");
        }
        if self.families.is_empty() {
            return reject("at least one scenario family is required");
        }
        for (i, family) in self.families.iter().enumerate() {
            if self.families[..i].contains(family) {
                return reject("a scenario family must not be listed twice");
            }
        }
        if self.profiles.is_empty() {
            return reject("at least one compute profile is required");
        }
        if !self.baseline && self.faults.is_empty() && self.combos.is_empty() {
            return reject("a campaign needs a baseline cell or at least one fault plan");
        }
        for profile in &self.profiles {
            profile
                .validate()
                .map_err(|err| CampaignError::InvalidSpec {
                    reason: format!("profile {}: {err}", profile.name),
                })?;
        }
        for fault in &self.faults {
            if !(0.0..=1.0).contains(&fault.intensity) {
                return reject("fault intensities must lie in [0, 1]");
            }
        }
        for combo in &self.combos {
            if combo.is_empty() {
                return reject("a fault combo needs at least one plan");
            }
            for (i, fault) in combo.iter().enumerate() {
                if !(0.0..=1.0).contains(&fault.intensity) {
                    return reject("fault intensities must lie in [0, 1]");
                }
                if combo[..i].iter().any(|other| other.kind == fault.kind) {
                    return reject("a fault combo must not list the same kind twice");
                }
            }
        }
        if let Some(policy) = &self.probe_early_stop {
            policy.validate()?;
        }
        Ok(())
    }

    /// Expands the grid into its cells, in deterministic order:
    /// family-major, then variant, then profile, then baseline followed by
    /// the single-fault list followed by the combo list. Single-family specs
    /// expand exactly as they did before families existed.
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut cells = Vec::new();
        for (suite_index, family) in self.families.iter().enumerate() {
            for variant in &self.variants {
                for (profile_index, profile) in self.profiles.iter().enumerate() {
                    let points = self
                        .baseline
                        .then(Vec::new)
                        .into_iter()
                        .chain(self.faults.iter().map(|&plan| vec![plan]))
                        .chain(self.combos.iter().cloned());
                    for faults in points {
                        cells.push(CampaignCell {
                            index: cells.len(),
                            family: *family,
                            suite_index,
                            variant: *variant,
                            profile_index,
                            profile: profile.name.clone(),
                            faults,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The deterministic seed a family's scenario suite is generated from.
    ///
    /// The open family keeps the campaign seed itself (so single-family
    /// specs regenerate exactly the pre-family suites); every other family
    /// mixes the campaign seed with a hash of the family label, making the
    /// derivation a pure function of (seed, family) — independent of the
    /// family's position in [`CampaignSpec::families`].
    pub fn suite_seed(&self, family: ScenarioFamily) -> u64 {
        match family {
            ScenarioFamily::Open => self.seed,
            family => self.seed ^ mls_trace::config_hash(family.label()),
        }
    }

    /// Missions flown per cell.
    pub fn missions_per_cell(&self) -> usize {
        self.maps * self.scenarios_per_map * self.repeats
    }

    /// Total missions in the campaign.
    pub fn total_missions(&self) -> usize {
        self.missions_per_cell() * self.cells().len()
    }

    /// The deterministic seed of one mission, a pure function of the
    /// campaign seed and the (scenario, repeat) coordinates — independent of
    /// execution order and thread count.
    ///
    /// Deliberately *not* a function of the cell: every cell flies the same
    /// scenario with the same vehicle/sensor noise streams (common random
    /// numbers), so variant-vs-variant, profile-vs-profile and
    /// baseline-vs-fault contrasts are paired comparisons, exactly like the
    /// paper's benchmark reruns.
    pub fn mission_seed(&self, scenario_id: usize, repeat: usize) -> u64 {
        let mut state = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for salt in [scenario_id as u64, repeat as u64] {
            state ^= salt
                .wrapping_add(0x2545_F491_4F6C_DD1D)
                .wrapping_mul(state | 1);
            state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            state ^= state >> 27;
        }
        state
    }

    /// FNV-1a hash of the spec's canonical JSON, embedded in trace headers
    /// so a replay against a drifted spec is rejected instead of silently
    /// diverging.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Serialize`] when serde rejects the value.
    pub fn config_hash(&self) -> Result<u64, CampaignError> {
        Ok(mls_trace::config_hash(&self.to_json()?))
    }

    /// Serialises the spec as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Serialize`] when serde rejects the value.
    pub fn to_json(&self) -> Result<String, CampaignError> {
        serde_json::to_string_pretty(self).map_err(|e| CampaignError::Serialize(e.to_string()))
    }

    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Serialize`] when the JSON does not describe a
    /// valid spec.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        serde_json::from_str(text).map_err(|e| CampaignError::Serialize(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_spec_validates_and_expands() {
        let spec = CampaignSpec::smoke();
        spec.validate().unwrap();
        let cells = spec.cells();
        // 3 variants × 1 profile × (baseline + 3 faults).
        assert_eq!(cells.len(), 12);
        assert_eq!(spec.total_missions(), 12 * 2);
        assert!(cells[0].faults.is_empty(), "baseline cell comes first");
        assert_eq!(cells[0].index, 0);
        assert!(cells[0].label().ends_with("baseline"));
        assert!(cells[1].label().contains("marker-occlusion"));
    }

    #[test]
    fn combos_expand_into_multi_fault_cells_after_the_singles() {
        let mut spec = CampaignSpec::smoke();
        spec.variants = vec![SystemVariant::MlsV1];
        spec.combos = vec![vec![
            FaultPlan::new(FaultKind::MarkerOcclusion, 0.4),
            FaultPlan::new(FaultKind::GpsBias, 0.6),
        ]];
        spec.validate().unwrap();
        let cells = spec.cells();
        // baseline + 3 singles + 1 combo.
        assert_eq!(cells.len(), 5);
        let combo_cell = &cells[4];
        assert_eq!(combo_cell.faults.len(), 2);
        assert_eq!(
            combo_cell.label(),
            "MLS-V1/desktop-sil/marker-occlusion@0.400+gps-bias@0.600"
        );
    }

    #[test]
    fn degenerate_combos_are_rejected() {
        let mut spec = CampaignSpec::smoke();
        spec.combos = vec![vec![]];
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::smoke();
        spec.combos = vec![vec![
            FaultPlan::new(FaultKind::GpsBias, 0.3),
            FaultPlan::new(FaultKind::GpsBias, 0.7),
        ]];
        assert!(spec.validate().is_err());

        // A combo-only campaign (no baseline, no singles) is legal.
        let mut spec = CampaignSpec::smoke();
        spec.baseline = false;
        spec.faults.clear();
        spec.combos = vec![vec![FaultPlan::new(FaultKind::WindGust, 0.5)]];
        spec.validate().unwrap();
    }

    #[test]
    fn specs_without_a_combos_key_parse_with_no_combos() {
        let spec = CampaignSpec::smoke();
        let json = spec.to_json().unwrap();
        let serde::Value::Object(mut fields) = serde_json::parse(&json).unwrap() else {
            panic!("spec serialises to an object");
        };
        fields.retain(|(key, _)| key != "combos");
        let legacy = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let parsed = CampaignSpec::from_json(&legacy).unwrap();
        assert!(parsed.combos.is_empty());
        assert_eq!(parsed.faults, spec.faults);
    }

    #[test]
    fn validation_rejects_empty_grids() {
        let mut spec = CampaignSpec::smoke();
        spec.variants.clear();
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::smoke();
        spec.maps = 0;
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::smoke();
        spec.baseline = false;
        spec.faults.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn mission_seeds_are_coordinate_pure_and_distinct() {
        let spec = CampaignSpec::smoke();
        let a = spec.mission_seed(3, 1);
        assert_eq!(a, spec.mission_seed(3, 1));
        let mut seeds = std::collections::HashSet::new();
        for scenario in 0..100 {
            for repeat in 0..3 {
                seeds.insert(spec.mission_seed(scenario, repeat));
            }
        }
        assert_eq!(seeds.len(), 100 * 3, "seed collisions");
        // Common random numbers: the seed does not depend on the spec's
        // grid, only on (campaign seed, scenario, repeat).
        let reseeded = CampaignSpec {
            seed: spec.seed + 1,
            ..spec.clone()
        };
        assert_ne!(spec.mission_seed(3, 1), reseeded.mission_seed(3, 1));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec::smoke();
        let json = spec.to_json().unwrap();
        let parsed = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(spec, parsed);
    }

    #[test]
    fn specs_without_a_capture_key_parse_with_capture_off() {
        let mut spec = CampaignSpec::smoke();
        spec.capture = TracePolicy::All;
        // Strip the capture key, as any spec JSON written before the trace
        // subsystem would lack it.
        let json = spec.to_json().unwrap();
        let serde::Value::Object(mut fields) = serde_json::parse(&json).unwrap() else {
            panic!("spec serialises to an object");
        };
        fields.retain(|(key, _)| key != "capture");
        let legacy = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let parsed = CampaignSpec::from_json(&legacy).unwrap();
        assert_eq!(parsed.capture, TracePolicy::Off);
        assert_eq!(parsed.maps, spec.maps);
    }

    #[test]
    fn specs_without_a_families_key_parse_as_open_only() {
        let spec = CampaignSpec::smoke();
        let json = spec.to_json().unwrap();
        let serde::Value::Object(mut fields) = serde_json::parse(&json).unwrap() else {
            panic!("spec serialises to an object");
        };
        fields.retain(|(key, _)| key != "families");
        let legacy = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let parsed = CampaignSpec::from_json(&legacy).unwrap();
        assert_eq!(parsed.families, vec![ScenarioFamily::Open]);
        assert_eq!(parsed.cells().len(), spec.cells().len());
    }

    #[test]
    fn family_axis_expands_family_major_and_prefixes_labels() {
        let mut spec = CampaignSpec::smoke();
        spec.variants = vec![SystemVariant::MlsV2];
        spec.faults.clear();
        spec.families = vec![ScenarioFamily::Open, ScenarioFamily::ConstrainedPad];
        spec.validate().unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].family, ScenarioFamily::Open);
        assert_eq!(cells[0].suite_index, 0);
        assert_eq!(cells[0].label(), "MLS-V2/desktop-sil/baseline");
        assert_eq!(cells[1].family, ScenarioFamily::ConstrainedPad);
        assert_eq!(cells[1].suite_index, 1);
        assert_eq!(
            cells[1].label(),
            "constrained-pad/MLS-V2/desktop-sil/baseline"
        );
        assert_eq!(spec.total_missions(), 2 * spec.missions_per_cell());
    }

    #[test]
    fn duplicate_families_are_rejected() {
        let mut spec = CampaignSpec::smoke();
        spec.families = vec![ScenarioFamily::Rooftop, ScenarioFamily::Rooftop];
        assert!(spec.validate().is_err());
        spec.families.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn suite_seeds_are_family_pure_and_open_keeps_the_campaign_seed() {
        let spec = CampaignSpec::smoke();
        assert_eq!(spec.suite_seed(ScenarioFamily::Open), spec.seed);
        let constrained = spec.suite_seed(ScenarioFamily::ConstrainedPad);
        assert_ne!(constrained, spec.seed);
        assert_eq!(constrained, spec.suite_seed(ScenarioFamily::ConstrainedPad));
        // Distinct families derive distinct suites.
        assert_ne!(constrained, spec.suite_seed(ScenarioFamily::UrbanCanyon));
        // A reordered families list does not move the seeds.
        let reordered = CampaignSpec {
            families: vec![ScenarioFamily::ConstrainedPad, ScenarioFamily::Open],
            ..spec.clone()
        };
        assert_eq!(
            reordered.suite_seed(ScenarioFamily::ConstrainedPad),
            constrained
        );
    }

    #[test]
    fn legacy_cell_json_without_family_parses_as_open() {
        let cell = CampaignSpec::smoke().cells().remove(1);
        let json = serde_json::to_string(&cell).unwrap();
        let serde::Value::Object(mut fields) = serde_json::parse(&json).unwrap() else {
            panic!("cell serialises to an object");
        };
        fields.retain(|(key, _)| key != "family" && key != "suite_index");
        let legacy = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let parsed: CampaignCell = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.family, ScenarioFamily::Open);
        assert_eq!(parsed.suite_index, 0);
        assert_eq!(parsed, cell);
    }

    #[test]
    fn early_stop_exact_bound_decides_only_when_certain() {
        let policy = EarlyStopPolicy::exact(0.75);
        // 8 planned: two failures keep the bracket open, three close it.
        assert_eq!(policy.decide(0, 2, 8), None);
        assert_eq!(policy.decide(0, 3, 8), Some(false));
        // A clean streak decides pass exactly when s/N clears the bar.
        assert_eq!(policy.decide(5, 5, 8), None);
        assert_eq!(policy.decide(6, 6, 8), Some(true));
        // Fully flown cells always decide.
        assert_eq!(policy.decide(5, 8, 8), Some(false));
        assert_eq!(policy.decide(6, 8, 8), Some(true));
        // Degenerate inputs never decide.
        assert_eq!(policy.decide(0, 0, 8), None);
    }

    #[test]
    fn early_stop_policies_validate_their_ranges() {
        assert!(EarlyStopPolicy::exact(0.5).validate().is_ok());
        assert!(EarlyStopPolicy::exact(1.0).validate().is_ok());
        assert!(EarlyStopPolicy::exact(0.0).validate().is_err());
        assert!(EarlyStopPolicy::exact(1.5).validate().is_err());
        let mut spec = CampaignSpec::smoke();
        spec.probe_early_stop = Some(EarlyStopPolicy::exact(2.0));
        assert!(spec.validate().is_err());
        spec.probe_early_stop = Some(EarlyStopPolicy::exact(0.75));
        spec.validate().unwrap();
    }

    #[test]
    fn specs_without_an_early_stop_key_parse_with_none() {
        let mut spec = CampaignSpec::smoke();
        spec.probe_early_stop = Some(EarlyStopPolicy::exact(0.75));
        let json = spec.to_json().unwrap();
        assert_eq!(CampaignSpec::from_json(&json).unwrap(), spec);
        let serde::Value::Object(mut fields) = serde_json::parse(&json).unwrap() else {
            panic!("spec serialises to an object");
        };
        fields.retain(|(key, _)| key != "probe_early_stop");
        let legacy = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let parsed = CampaignSpec::from_json(&legacy).unwrap();
        assert_eq!(parsed.probe_early_stop, None);
    }

    #[test]
    fn specs_with_a_nonzero_early_stop_confidence_are_rejected() {
        let mut spec = CampaignSpec::smoke();
        spec.probe_early_stop = Some(EarlyStopPolicy::exact(0.75));
        let json = serde_json::to_string(&spec).unwrap();
        let with_confidence = |confidence: &str| {
            json.replace(
                "\"threshold\":0.75",
                &format!("\"threshold\":0.75,\"confidence\":{confidence}"),
            )
        };
        assert_ne!(with_confidence("0.0"), json, "the key was not injected");
        assert_eq!(
            CampaignSpec::from_json(&with_confidence("0.0")).unwrap(),
            spec
        );
        let err = CampaignSpec::from_json(&with_confidence("0.2")).unwrap_err();
        assert!(err.to_string().contains("confidence"), "{err}");
    }

    #[test]
    fn full_fault_study_covers_every_kind() {
        let spec = CampaignSpec::full_fault_study();
        spec.validate().unwrap();
        // 8 fault kinds × 3 intensities.
        assert_eq!(spec.faults.len(), 24);
        // 3 variants × 2 profiles × (1 + 24) cells.
        assert_eq!(spec.cells().len(), 3 * 2 * 25);
    }
}
