//! Multi-dimensional falsification search with replayable counterexamples.
//!
//! Fixed benchmark grids answer "how often does the system land under fault
//! X at intensity Y"; falsification asks the sharper dependability question —
//! *what is the smallest perturbation that makes landing fail?* The paper's
//! core lesson is that failures live at the *intersection* of stressors
//! (marker occlusion during GPS drift, wind on a starved planner), so the
//! search domain here is a [`FaultSpace`]: named intensity axes searched
//! jointly, following the optimization-based approach of "Falsification of a
//! Vision-based Automatic Landing System" (arXiv:2307.01925).
//!
//! The engine has three stages, all driven through one memoised oracle (a
//! deterministic mini-campaign per probe, so the whole search reproduces
//! from one seed):
//!
//! 1. **Search** — a pluggable [`Searcher`] hunts a failing point in the
//!    normalized unit cube: [`Searcher::GridRefinement`] sweeps a coarse
//!    lattice and recursively refines around the lowest-severity failure;
//!    [`Searcher::CmaEs`] runs a small, self-contained (diagonal) CMA-ES on
//!    the workspace's deterministic RNG.
//! 2. **Minimization** — coordinate-descent shrinking: each axis of the
//!    failing point is bisected toward zero while the failure persists, for
//!    several passes, leaving a point *on the failure frontier* (lowering
//!    any single axis further makes the system pass again).
//! 3. **Capture** — the minimal point is re-flown with the flight recorder
//!    on; the first failing mission's trace is persisted, triaged against
//!    the Fig. 5 taxonomy, linked into the result and replay-verified
//!    byte-for-byte. A minimal counterexample ships as a file, not a number.
//!
//! # Ask/tell batching
//!
//! Searchers do not pull probes one at a time: each emits its whole next
//! *generation* (a full lattice sweep, a full CMA-ES population) through an
//! ask/tell interface, the oracle flies the uncached points of the
//! generation as one campaign with a cell per point, so their missions
//! share the persistent [`MissionExecutor`] concurrently
//! ([`ProbeExecution::Batched`]), and the measured success rates are told
//! back in deterministic point order. Because every searcher decision is a
//! pure function of the told rates, counterexamples, probe logs and
//! minimizer trajectories are byte-identical to sequential evaluation
//! ([`ProbeExecution::Sequential`]) at any thread count — the batched mode
//! merely keeps the machine saturated while a generation flies.
//!
//! Probe campaigns default to early-stopped mission schedules
//! ([`FalsificationConfig::probe_early_stop`]): a probe's remaining repeats
//! are cancelled once the exact [`EarlyStopPolicy`] bound already decides
//! pass/fail against the failure threshold, which cuts the dominant cost of
//! a search — missions whose outcome can no longer change the verdict.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mls_compute::ComputeProfile;
use mls_core::{ExecutorConfig, LandingConfig, SystemVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::executor::MissionExecutor;
use crate::faults::{FaultKind, FaultPlan, FaultSpace};
use crate::report::TraceLink;
use crate::runner::CampaignRunner;
use crate::spec::{CampaignSpec, EarlyStopPolicy};
use crate::CampaignError;

/// Cached search instruments (see [`crate::obs_util`]).
mod instruments {
    use crate::obs_util::cached_counter;

    cached_counter!(oracle_hits, "mls_search_oracle_hits_total");
    cached_counter!(oracle_misses, "mls_search_oracle_misses_total");
    cached_counter!(generations, "mls_search_generations_total");
    cached_counter!(
        minimizer_bisections,
        "mls_search_minimizer_bisections_total"
    );
}

/// Configuration of a falsification search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FalsificationConfig {
    /// Master seed (probes derive their campaign seeds from it).
    pub seed: u64,
    /// Maps per probe campaign.
    pub maps: usize,
    /// Scenarios per map per probe campaign.
    pub scenarios_per_map: usize,
    /// Scenario family every probe campaign flies over: the constrained
    /// families give the search a measurably harder space (failures appear
    /// at lower fault severities than over open pads).
    pub family: mls_sim_world::ScenarioFamily,
    /// Repetitions per scenario per probe.
    pub repeats: usize,
    /// A probe "fails" when its success rate drops below this threshold.
    pub failure_threshold: f64,
    /// Coordinate-descent passes of the counterexample minimizer.
    pub minimizer_passes: usize,
    /// Bisection steps per axis per minimizer pass (5 steps resolve an axis
    /// to ~3 % of its span).
    pub minimizer_bisections: usize,
    /// Whether probe campaigns early-stop their mission schedules once the
    /// exact bound decides pass/fail against `failure_threshold` (on by
    /// default for search probes; plain campaigns default off). The decided
    /// verdict is recorded alongside the missions actually flown, and
    /// pass/fail classifications are guaranteed identical to flying every
    /// mission.
    pub probe_early_stop: bool,
    /// Compute platform the probes fly on.
    pub profile: ComputeProfile,
    /// Landing-system configuration.
    pub landing: LandingConfig,
    /// Mission-executor configuration.
    pub executor: ExecutorConfig,
}

impl Default for FalsificationConfig {
    fn default() -> Self {
        Self {
            seed: 2025,
            maps: 2,
            scenarios_per_map: 4,
            family: mls_sim_world::ScenarioFamily::Open,
            repeats: 1,
            failure_threshold: 0.5,
            minimizer_passes: 2,
            minimizer_bisections: 5,
            probe_early_stop: true,
            profile: ComputeProfile::desktop_sil(),
            landing: LandingConfig::default(),
            executor: ExecutorConfig::default(),
        }
    }
}

/// How the oracle evaluates the uncached points of a searcher generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeExecution {
    /// One probe campaign at a time, each internally sharded — the
    /// pre-batching behaviour, kept as the perf baseline and the
    /// equivalence reference.
    Sequential,
    /// The whole generation flies as one campaign, one cell per point
    /// ([`CampaignRunner::run_with_shared_suites`]), so the pool stays
    /// saturated even when each probe flies only a handful of missions.
    /// Mission seeds and early stop are per cell, so results are identical
    /// to [`ProbeExecution::Sequential`].
    Batched,
}

/// Coarse-to-fine lattice refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridRefinementConfig {
    /// Lattice points per axis (≥ 2); 3 probes each axis at 0, ½ and 1.
    pub resolution: usize,
    /// Refinement rounds after the initial lattice; each halves the span of
    /// the lattice around the lowest-severity failure.
    pub rounds: usize,
}

impl Default for GridRefinementConfig {
    fn default() -> Self {
        Self {
            resolution: 3,
            rounds: 2,
        }
    }
}

/// A small, self-contained (μ/μ-weighted, λ) evolution strategy with
/// diagonal covariance adaptation — the CMA-ES variant that needs no
/// eigendecomposition, which keeps it dependency-free on the vendored RNG.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CmaEsConfig {
    /// Candidates per generation (λ).
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Initial global step size σ, in normalized axis units.
    pub initial_step: f64,
    /// RNG seed of the sampler (independent of the campaign seed, so the
    /// same probe suite can be searched with different exploration streams).
    pub seed: u64,
}

impl Default for CmaEsConfig {
    fn default() -> Self {
        Self {
            population: 8,
            generations: 8,
            initial_step: 0.3,
            seed: 7,
        }
    }
}

/// The pluggable search strategy hunting a failing point in `[0, 1]^d`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Searcher {
    /// Coarse lattice sweep with recursive refinement around the
    /// lowest-severity failure.
    GridRefinement(GridRefinementConfig),
    /// Diagonal CMA-ES steered toward low-success, low-severity points.
    CmaEs(CmaEsConfig),
}

impl Searcher {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Searcher::GridRefinement(_) => "grid-refinement",
            Searcher::CmaEs(_) => "cma-es",
        }
    }
}

/// One evaluated point of the search, in evaluation order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbePoint {
    /// Normalized coordinates in `[0, 1]^d` (one per space axis).
    pub point: Vec<f64>,
    /// Landing success rate observed at that point.
    pub success_rate: f64,
}

/// A minimal failing point of a fault space, with its replayable artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counterexample {
    /// Normalized coordinates of the minimized failing point.
    pub point: Vec<f64>,
    /// The concrete fault plans the point maps onto (axis intensities).
    pub plans: Vec<FaultPlan>,
    /// Success rate measured at the minimized point — below the failure
    /// threshold, except in the degenerate case of a failing baseline on a
    /// space whose floored axes make even the origin a genuine injection.
    pub success_rate: f64,
    /// The first failing mission's persisted trace, with its triage class.
    pub trace: Option<TraceLink>,
    /// Whether the trace replayed byte-identically when re-executed from
    /// its (seed, spec); `None` when no trace was captured.
    pub replay_identical: Option<bool>,
}

/// The outcome of falsifying one (variant, fault space) pair.
///
/// `Deserialize` is implemented by hand so result JSONs persisted before
/// scenario families existed (no `family` key) or before mission
/// accounting (no `missions_flown` key) still parse — the vendored serde
/// has no `#[serde(default)]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpaceFalsification {
    /// The fault space searched.
    pub space: FaultSpace,
    /// System generation probed.
    pub variant: SystemVariant,
    /// Scenario family the probe campaigns flew over.
    pub family: mls_sim_world::ScenarioFamily,
    /// Label of the searcher used.
    pub searcher: String,
    /// Success rate with no fault injected.
    pub baseline_success_rate: f64,
    /// The minimized counterexample, or `None` when no point of the space
    /// falsified the system (not even the all-axes-at-max corner).
    pub counterexample: Option<Counterexample>,
    /// Every distinct point evaluated, in evaluation order (memoised
    /// re-visits are not repeated).
    pub probes: Vec<ProbePoint>,
    /// Missions actually flown across the whole run (baseline, probes,
    /// capture and replay verification) — the wall-clock currency early
    /// stopping saves.
    pub missions_flown: usize,
}

impl serde::Deserialize for SpaceFalsification {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            space: serde::de_field(value, "space")?,
            variant: serde::de_field(value, "variant")?,
            // Results persisted before scenario families searched open pads.
            family: match value.get("family") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => mls_sim_world::ScenarioFamily::Open,
            },
            searcher: serde::de_field(value, "searcher")?,
            baseline_success_rate: serde::de_field(value, "baseline_success_rate")?,
            counterexample: serde::de_field(value, "counterexample")?,
            probes: serde::de_field(value, "probes")?,
            // Results persisted before mission accounting carry no count.
            missions_flown: match value.get("missions_flown") {
                Some(inner) => serde::Deserialize::from_value(inner)?,
                None => 0,
            },
        })
    }
}

/// A complete falsification study over several (variant, space) pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FalsificationReport {
    /// One result per searched (variant, space) pair, in input order.
    pub results: Vec<SpaceFalsification>,
}

impl FalsificationReport {
    /// Serialises the report as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Serialize`] when serde rejects the value.
    pub fn to_json(&self) -> Result<String, CampaignError> {
        serde_json::to_string_pretty(self).map_err(|e| CampaignError::Serialize(e.to_string()))
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Serialize`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        serde_json::from_str(text).map_err(|e| CampaignError::Serialize(e.to_string()))
    }

    /// Renders the headline columns as CSV (one row per searched space).
    /// String fields are escaped per RFC 4180
    /// ([`crate::report::csv_escape`]), so labels carrying commas or quotes
    /// cannot shift columns.
    pub fn to_csv(&self) -> String {
        let escape = crate::report::csv_escape;
        let mut out = String::from(
            "space,variant,family,searcher,axes,baseline_success_rate,probes,falsified,\
             counterexample,success_at_counterexample,triage,replay_identical,trace,\
             missions_flown\n",
        );
        for result in &self.results {
            let (counterexample, success, triage, replay, trace) = match &result.counterexample {
                Some(ce) => (
                    crate::spec::fault_point_label(&ce.plans),
                    format!("{:.4}", ce.success_rate),
                    ce.trace
                        .as_ref()
                        .and_then(|t| t.triage.clone())
                        .unwrap_or_default(),
                    ce.replay_identical
                        .map(|ok| ok.to_string())
                        .unwrap_or_default(),
                    ce.trace
                        .as_ref()
                        .map(|t| t.path.clone())
                        .unwrap_or_default(),
                ),
                None => Default::default(),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{:.4},{},{},{},{},{},{},{},{}\n",
                escape(&result.space.name),
                escape(result.variant.label()),
                result.family.label(),
                escape(&result.searcher),
                result.space.dim(),
                result.baseline_success_rate,
                result.probes.len(),
                result.counterexample.is_some(),
                escape(&counterexample),
                success,
                escape(&triage),
                replay,
                escape(&trace),
                result.missions_flown,
            ));
        }
        out
    }
}

/// Upper bound on fault-space dimensionality: one axis per distinct
/// [`FaultKind`] (spaces repeating a kind are rejected by
/// [`FaultSpace::validate`]).
const MAX_SPACE_AXES: usize = FaultKind::ALL.len();

/// Fixed-size, allocation-free memo key: coordinates quantized to 1e-9
/// (far below any searcher's resolution), so float jitter cannot double-fly
/// a probe — and a cache hit in a hot loop (the minimizer probes one point
/// per bisection step) allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PointKey {
    coords: [u64; MAX_SPACE_AXES],
    dim: u8,
}

impl PointKey {
    fn of(point: &[f64]) -> Self {
        assert!(
            point.len() <= MAX_SPACE_AXES,
            "a fault space has at most one axis per fault kind"
        );
        let mut coords = [0u64; MAX_SPACE_AXES];
        for (slot, &x) in coords.iter_mut().zip(point) {
            *slot = (x * 1e9).round() as u64;
        }
        Self {
            coords,
            dim: point.len() as u8,
        }
    }
}

/// The probe evaluation a searcher generation is fanned out through:
/// normalized points → success rates, in order.
type BatchProbeFn<'a> = Box<dyn FnMut(&[Vec<f64>]) -> Result<Vec<f64>, CampaignError> + 'a>;

/// The memoised probe oracle: maps normalized points onto landing success
/// rates, evaluating each distinct point at most once and recording every
/// fresh evaluation in deterministic point order.
struct Oracle<'a> {
    evaluate: BatchProbeFn<'a>,
    cache: HashMap<PointKey, f64>,
    probes: Vec<ProbePoint>,
}

impl<'a> Oracle<'a> {
    /// An oracle over a one-point-at-a-time evaluator (unit tests and
    /// synthetic oracles).
    #[cfg(test)]
    fn new(mut evaluate: impl FnMut(&[f64]) -> Result<f64, CampaignError> + 'a) -> Self {
        Self::new_batch(move |points: &[Vec<f64>]| {
            points.iter().map(|point| evaluate(point)).collect()
        })
    }

    /// An oracle over a generation-at-a-time evaluator.
    fn new_batch(
        evaluate: impl FnMut(&[Vec<f64>]) -> Result<Vec<f64>, CampaignError> + 'a,
    ) -> Self {
        Self {
            evaluate: Box::new(evaluate),
            cache: HashMap::new(),
            probes: Vec::new(),
        }
    }

    /// Seeds the cache with an externally measured rate (the baseline
    /// campaign standing in for the all-no-op origin probe).
    fn prime(&mut self, point: &[f64], success_rate: f64) {
        self.cache.insert(PointKey::of(point), success_rate);
    }

    /// Success rates for a whole generation, in point order. Cached points
    /// and within-generation duplicates are not re-flown; the fresh points
    /// are evaluated in first-occurrence order (concurrently, when the
    /// evaluator batches) and logged in exactly the order a sequential
    /// evaluation would have produced.
    fn success_rates(&mut self, points: &[Vec<f64>]) -> Result<Vec<f64>, CampaignError> {
        let keys: Vec<PointKey> = points.iter().map(|point| PointKey::of(point)).collect();
        let mut fresh: Vec<usize> = Vec::new();
        let mut seen: std::collections::HashSet<PointKey> = std::collections::HashSet::new();
        for (index, key) in keys.iter().enumerate() {
            if !self.cache.contains_key(key) && seen.insert(*key) {
                fresh.push(index);
            }
        }
        if mls_obs::enabled() {
            // Within-generation duplicates beyond the first occurrence are
            // hits too: they never fly.
            instruments::oracle_misses().add(fresh.len() as u64);
            instruments::oracle_hits().add((points.len() - fresh.len()) as u64);
        }
        if !fresh.is_empty() {
            let unique: Vec<Vec<f64>> = fresh.iter().map(|&index| points[index].clone()).collect();
            let measured = (self.evaluate)(&unique)?;
            if measured.len() != unique.len() {
                return Err(CampaignError::InvalidSpec {
                    reason: format!(
                        "the probe evaluator returned {} rates for {} points",
                        measured.len(),
                        unique.len()
                    ),
                });
            }
            for (&index, rate) in fresh.iter().zip(measured) {
                self.cache.insert(keys[index], rate);
                self.probes.push(ProbePoint {
                    point: points[index].clone(),
                    success_rate: rate,
                });
            }
        }
        Ok(keys.iter().map(|key| self.cache[key]).collect())
    }

    /// Success rate of one point; a cache hit allocates nothing.
    fn success_rate(&mut self, point: &[f64]) -> Result<f64, CampaignError> {
        let key = PointKey::of(point);
        if let Some(&rate) = self.cache.get(&key) {
            if mls_obs::enabled() {
                instruments::oracle_hits().inc();
            }
            return Ok(rate);
        }
        if mls_obs::enabled() {
            instruments::oracle_misses().inc();
        }
        let measured = (self.evaluate)(&[point.to_vec()])?;
        let rate = *measured.first().ok_or_else(|| CampaignError::InvalidSpec {
            reason: "the probe evaluator returned no rate for one point".to_string(),
        })?;
        self.cache.insert(key, rate);
        self.probes.push(ProbePoint {
            point: point.to_vec(),
            success_rate: rate,
        });
        Ok(rate)
    }

    fn fails(&mut self, point: &[f64], threshold: f64) -> Result<bool, CampaignError> {
        Ok(self.success_rate(point)? < threshold)
    }
}

/// Euclidean norm of a normalized point — the severity order the searchers
/// and the minimizer prefer lower values of.
fn severity(point: &[f64]) -> f64 {
    point.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The ask/tell state machine behind a [`Searcher`]: `ask` emits the next
/// whole generation of points, `tell` feeds their success rates back (in
/// the same order). An empty generation ends the search.
trait SearchState {
    fn ask(&mut self) -> Vec<Vec<f64>>;
    fn tell(&mut self, points: &[Vec<f64>], rates: &[f64]);
    fn take_best(&mut self) -> Option<Vec<f64>>;
}

/// Drives an ask/tell state against the oracle until it stops emitting
/// generations.
fn drive(
    state: &mut dyn SearchState,
    oracle: &mut Oracle,
) -> Result<Option<Vec<f64>>, CampaignError> {
    let mut generation_index = 0usize;
    loop {
        let generation = state.ask();
        if generation.is_empty() {
            return Ok(state.take_best());
        }
        let mut span = mls_obs::span("search_generation");
        if span.is_enabled() {
            span.field("generation", generation_index)
                .field("points", generation.len());
            instruments::generations().inc();
        }
        let rates = oracle.success_rates(&generation)?;
        drop(span);
        state.tell(&generation, &rates);
        generation_index += 1;
    }
}

impl Searcher {
    /// Hunts a failing point in `[0, 1]^dim`, preferring low severity.
    fn find_failure(
        &self,
        dim: usize,
        threshold: f64,
        oracle: &mut Oracle,
    ) -> Result<Option<Vec<f64>>, CampaignError> {
        match self {
            Searcher::GridRefinement(config) => {
                drive(&mut GridState::new(config, dim, threshold), oracle)
            }
            Searcher::CmaEs(config) => drive(&mut CmaState::new(config, dim, threshold), oracle),
        }
    }
}

/// All points of a `resolution^dim` lattice over the box
/// `center ± span/2`, clamped to the unit cube, in odometer order. One
/// scratch buffer builds every point; the returned generation owns its
/// points (the ask/tell contract).
fn lattice_points(center: &[f64], span: f64, resolution: usize) -> Vec<Vec<f64>> {
    let dim = center.len();
    let resolution = resolution.max(2);
    let mut points = Vec::with_capacity(resolution.pow(dim as u32));
    let mut index = vec![0usize; dim];
    let mut scratch = vec![0.0; dim];
    loop {
        for (slot, (&i, &c)) in scratch.iter_mut().zip(index.iter().zip(center)) {
            let offset = i as f64 / (resolution - 1) as f64 - 0.5;
            *slot = (c + offset * span).clamp(0.0, 1.0);
        }
        points.push(scratch.clone());
        // Odometer increment over the lattice indices.
        let mut axis = 0;
        loop {
            if axis == dim {
                return points;
            }
            index[axis] += 1;
            if index[axis] < resolution {
                break;
            }
            index[axis] = 0;
            axis += 1;
        }
    }
}

/// The lowest-severity failing point of one told generation (strictly
/// lower severity wins, so the first point of equal severity in generation
/// order is kept — matching what a sequential sweep records).
fn generation_best(points: &[Vec<f64>], rates: &[f64], threshold: f64) -> Option<(f64, Vec<f64>)> {
    let mut best: Option<(f64, Vec<f64>)> = None;
    for (point, &rate) in points.iter().zip(rates) {
        if rate < threshold {
            let norm = severity(point);
            if best.as_ref().map(|(b, _)| norm < *b).unwrap_or(true) {
                best = Some((norm, point.clone()));
            }
        }
    }
    best
}

/// Coarse-to-fine refinement as an ask/tell state: a full-cube lattice,
/// then progressively halved lattices centred on the lowest-severity
/// failure found so far.
struct GridState {
    resolution: usize,
    rounds_left: usize,
    threshold: f64,
    center: Vec<f64>,
    span: f64,
    best: Option<(f64, Vec<f64>)>,
    initial: bool,
    done: bool,
}

impl GridState {
    fn new(config: &GridRefinementConfig, dim: usize, threshold: f64) -> Self {
        Self {
            resolution: config.resolution.max(2),
            rounds_left: config.rounds,
            threshold,
            center: vec![0.5; dim],
            span: 1.0,
            best: None,
            initial: true,
            done: false,
        }
    }

    fn advance(&mut self) {
        if self.rounds_left == 0 {
            self.done = true;
            return;
        }
        self.rounds_left -= 1;
        self.span /= 2.0;
        self.center = self
            .best
            .as_ref()
            .expect("refinement only runs once a failure exists")
            .1
            .clone();
    }
}

impl SearchState for GridState {
    fn ask(&mut self) -> Vec<Vec<f64>> {
        if self.done {
            return Vec::new();
        }
        lattice_points(&self.center, self.span, self.resolution)
    }

    fn tell(&mut self, points: &[Vec<f64>], rates: &[f64]) {
        let round_best = generation_best(points, rates, self.threshold);
        if self.initial {
            self.initial = false;
            match round_best {
                // No failure on the full-cube lattice: the search is over.
                None => self.done = true,
                Some(found) => {
                    self.best = Some(found);
                    self.advance();
                }
            }
            return;
        }
        if let Some((norm, point)) = round_best {
            let current = self.best.as_ref().map(|(b, _)| *b);
            if current.map(|b| norm < b).unwrap_or(true) {
                self.best = Some((norm, point));
            }
        }
        self.advance();
    }

    fn take_best(&mut self) -> Option<Vec<f64>> {
        self.best.take().map(|(_, point)| point)
    }
}

/// One standard-normal draw (Box–Muller on the vendored uniform stream).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = (1.0 - rng.random::<f64>()).max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Diagonal CMA-ES as an ask/tell state: weighted-recombination mean
/// update, per-axis variance adaptation, multiplicative step-size control.
/// The objective ranks failing points by severity (lower is better)
/// strictly below passing points, and passing points by how close their
/// success rate is to the threshold — so the population walks downhill
/// toward the failure frontier and then along it toward the origin.
struct CmaState {
    threshold: f64,
    dim: usize,
    population: usize,
    parents: usize,
    weights: Vec<f64>,
    variance_rate: f64,
    rng: StdRng,
    mean: Vec<f64>,
    axis_scale: Vec<f64>,
    sigma: f64,
    generations_left: usize,
    /// The normal draws behind the pending generation's candidates, in
    /// candidate order (`tell` needs them for variance adaptation).
    steps: Vec<Vec<f64>>,
    best: Option<(f64, Vec<f64>)>,
}

impl CmaState {
    fn new(config: &CmaEsConfig, dim: usize, threshold: f64) -> Self {
        let population = config.population.max(4);
        let parents = population / 2;
        // Log-rank recombination weights, normalized.
        let raw: Vec<f64> = (0..parents)
            .map(|i| ((parents + 1) as f64).ln() - ((i + 1) as f64).ln())
            .collect();
        let total: f64 = raw.iter().sum();
        Self {
            threshold,
            dim,
            population,
            parents,
            weights: raw.iter().map(|w| w / total).collect(),
            variance_rate: 0.3,
            rng: StdRng::seed_from_u64(config.seed),
            mean: vec![0.5; dim],
            axis_scale: vec![1.0; dim],
            sigma: config.initial_step.clamp(1e-3, 1.0),
            generations_left: config.generations.max(1),
            steps: Vec::new(),
            best: None,
        }
    }
}

impl SearchState for CmaState {
    fn ask(&mut self) -> Vec<Vec<f64>> {
        if self.generations_left == 0 {
            return Vec::new();
        }
        self.steps.clear();
        let mut candidates = Vec::with_capacity(self.population);
        for _ in 0..self.population {
            let steps: Vec<f64> = (0..self.dim)
                .map(|_| standard_normal(&mut self.rng))
                .collect();
            let candidate: Vec<f64> = (0..self.dim)
                .map(|j| {
                    (self.mean[j] + self.sigma * self.axis_scale[j] * steps[j]).clamp(0.0, 1.0)
                })
                .collect();
            self.steps.push(steps);
            candidates.push(candidate);
        }
        candidates
    }

    fn tell(&mut self, points: &[Vec<f64>], rates: &[f64]) {
        // Score the generation in candidate order (best-so-far updates use
        // strict inequality, so ties resolve exactly as a sequential
        // evaluation would).
        let mut scored: Vec<(f64, usize)> = Vec::with_capacity(points.len());
        for (index, (candidate, &success)) in points.iter().zip(rates).enumerate() {
            let score = if success < self.threshold {
                // Failing: strictly better than any passing point, ranked by
                // severity so the strategy minimizes the counterexample.
                let norm = severity(candidate);
                if self.best.as_ref().map(|(b, _)| norm < *b).unwrap_or(true) {
                    self.best = Some((norm, candidate.clone()));
                }
                norm / (self.dim as f64).sqrt() - 2.0
            } else {
                success - self.threshold
            };
            scored.push((score, index));
        }
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Weighted recombination of the μ best.
        let old_mean = self.mean.clone();
        for (j, mean) in self.mean.iter_mut().enumerate() {
            *mean = scored
                .iter()
                .take(self.parents)
                .zip(&self.weights)
                .map(|(&(_, index), w)| w * points[index][j])
                .sum();
        }
        // Per-axis variance adaptation from the selected steps.
        let steps = &self.steps;
        for (j, scale) in self.axis_scale.iter_mut().enumerate() {
            let selected: f64 = scored
                .iter()
                .take(self.parents)
                .zip(&self.weights)
                .map(|(&(_, index), w)| w * steps[index][j] * steps[index][j])
                .sum();
            let adapted = (1.0 - self.variance_rate) * *scale * *scale
                + self.variance_rate * *scale * *scale * selected;
            *scale = adapted.sqrt().clamp(1e-3, 10.0);
        }
        // Step-size control: expand while exploring, contract once the mean
        // settles (mean displacement against the expected step).
        let displacement: f64 = self
            .mean
            .iter()
            .zip(&old_mean)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        if displacement > self.sigma * 0.5 {
            self.sigma = (self.sigma * 1.2).min(1.0);
        } else {
            self.sigma = (self.sigma * 0.8).max(1e-3);
        }
        self.generations_left -= 1;
    }

    fn take_best(&mut self) -> Option<Vec<f64>> {
        self.best.take().map(|(_, point)| point)
    }
}

/// Coarse-to-fine refinement over a synthetic oracle (test seam; the
/// engine drives the same state through [`Searcher::find_failure`]).
#[cfg(test)]
fn grid_refinement(
    config: &GridRefinementConfig,
    dim: usize,
    threshold: f64,
    oracle: &mut Oracle,
) -> Result<Option<Vec<f64>>, CampaignError> {
    drive(&mut GridState::new(config, dim, threshold), oracle)
}

/// Diagonal CMA-ES over a synthetic oracle (test seam).
#[cfg(test)]
fn cma_es(
    config: &CmaEsConfig,
    dim: usize,
    threshold: f64,
    oracle: &mut Oracle,
) -> Result<Option<Vec<f64>>, CampaignError> {
    drive(&mut CmaState::new(config, dim, threshold), oracle)
}

/// Coordinate-descent minimization: bisect each axis toward zero while the
/// failure persists, for the configured number of passes. The invariant is
/// that the returned point always fails; after the final pass every axis
/// sits on the failure frontier at the bisection resolution.
fn minimize(
    point: Vec<f64>,
    threshold: f64,
    passes: usize,
    bisections: usize,
    oracle: &mut Oracle,
) -> Result<Vec<f64>, CampaignError> {
    let mut minimal = point;
    let mut span = mls_obs::span("minimize");
    span.field("axes", minimal.len()).field("passes", passes);
    for _ in 0..passes.max(1) {
        for axis in 0..minimal.len() {
            if minimal[axis] <= 0.0 {
                continue;
            }
            let mut probe = minimal.clone();
            probe[axis] = 0.0;
            if oracle.fails(&probe, threshold)? {
                minimal[axis] = 0.0;
                continue;
            }
            // Invariant: `lo` passes, `hi` fails.
            let (mut lo, mut hi) = (0.0, minimal[axis]);
            for _ in 0..bisections.max(1) {
                if span.is_enabled() {
                    instruments::minimizer_bisections().inc();
                }
                let mid = (lo + hi) / 2.0;
                probe[axis] = mid;
                if oracle.fails(&probe, threshold)? {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            minimal[axis] = hi;
        }
    }
    Ok(minimal)
}

/// The search stage of a falsification run, without minimization and
/// capture — what the perf suite times when it compares batched against
/// sequential probe evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchStage {
    /// Success rate with no fault injected.
    pub baseline_success_rate: f64,
    /// The failing point the searcher found (not yet minimized), when one
    /// exists.
    pub failing_point: Option<Vec<f64>>,
    /// Every distinct point evaluated, in evaluation order.
    pub probes: Vec<ProbePoint>,
    /// Missions actually flown (baseline + probes).
    pub missions_flown: usize,
}

/// The multi-dimensional falsification engine.
#[derive(Debug, Clone)]
pub struct FalsificationSearch {
    config: FalsificationConfig,
    runner: CampaignRunner,
    execution: ProbeExecution,
    trace_dir: Option<std::path::PathBuf>,
}

impl FalsificationSearch {
    /// Creates a search executing probes on up to `threads` concurrent
    /// mission workers of the shared persistent executor, with batched
    /// probe evaluation.
    pub fn new(config: FalsificationConfig, threads: usize) -> Self {
        Self {
            config,
            runner: CampaignRunner::new(threads),
            execution: ProbeExecution::Batched,
            trace_dir: None,
        }
    }

    /// The search configuration.
    pub fn config(&self) -> &FalsificationConfig {
        &self.config
    }

    /// The campaign runner probes fly on (shared with replay verification).
    pub fn runner(&self) -> &CampaignRunner {
        &self.runner
    }

    /// The executor pool probes fan out over.
    pub fn executor(&self) -> &Arc<MissionExecutor> {
        self.runner.executor()
    }

    /// Overrides how searcher generations are evaluated
    /// ([`ProbeExecution::Batched`] is the default). Results are identical
    /// either way; [`ProbeExecution::Sequential`] exists as the perf
    /// baseline and the equivalence reference.
    #[must_use]
    pub fn with_probe_execution(mut self, execution: ProbeExecution) -> Self {
        self.execution = execution;
        self
    }

    /// Overrides the base directory counterexample traces are persisted in:
    /// each space still gets its own `falsify-<space name>` subdirectory, so
    /// searching several spaces never collides on trace filenames (default
    /// base: `traces/`).
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Attaches a write-ahead result journal at `path`: every mission of
    /// the baseline, probe and capture campaigns the search flies is
    /// journaled under its campaign's spec hash, and re-running the same
    /// search against the same journal replays completed work instead of
    /// re-flying it — converging on byte-identical reports, probe logs
    /// and counterexample traces however often the search is interrupted.
    /// One journal covers one search target (a `(variant, space)` pair):
    /// re-opening it with the same target under an edited configuration
    /// fails loudly.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.runner =
            self.runner
                .with_journal_handle(Arc::new(crate::journal::JournalHandle::new(
                    path.into(),
                    crate::journal::JournalScope::Search,
                )));
        self
    }

    /// Runs only the search stage — baseline plus searcher, no
    /// minimization, no capture. The perf suite times this against both
    /// [`ProbeExecution`] modes.
    ///
    /// # Errors
    ///
    /// Returns an error when the space is degenerate or a probe campaign
    /// fails to run.
    pub fn search_space(
        &self,
        variant: SystemVariant,
        space: &FaultSpace,
        searcher: &Searcher,
    ) -> Result<SearchStage, CampaignError> {
        space.validate()?;
        let mut search_span = mls_obs::span("search_stage");
        search_span
            .field("space", space.name.as_str())
            .field("variant", variant.label())
            .field("searcher", searcher.label());
        let scenarios = self
            .runner
            .generate_scenarios(&self.probe_spec(variant, space, &[]))?;
        let missions = Arc::new(AtomicUsize::new(0));
        let (mut oracle, baseline_success_rate) =
            self.search_oracle(variant, space, &scenarios, &missions)?;
        let failing_point = self.hunt(space, searcher, &mut oracle, baseline_success_rate)?;
        Ok(SearchStage {
            baseline_success_rate,
            failing_point,
            probes: std::mem::take(&mut oracle.probes),
            missions_flown: missions.load(Ordering::Relaxed),
        })
    }

    /// Falsifies one (variant, fault space) pair: search, minimize, capture.
    ///
    /// # Errors
    ///
    /// Returns an error when the space is degenerate or a probe campaign
    /// fails to run.
    pub fn falsify(
        &self,
        variant: SystemVariant,
        space: &FaultSpace,
        searcher: &Searcher,
    ) -> Result<SpaceFalsification, CampaignError> {
        space.validate()?;
        let mut falsify_span = mls_obs::span("falsify_space");
        falsify_span
            .field("space", space.name.as_str())
            .field("variant", variant.label())
            .field("searcher", searcher.label());
        // One scenario suite serves every probe of the search: probes differ
        // only in their fault point, never in the world flown over. The
        // suite cache shares it across spaces of the same (family, seed).
        let scenarios = self
            .runner
            .generate_scenarios(&self.probe_spec(variant, space, &[]))?;
        let missions = Arc::new(AtomicUsize::new(0));
        let (mut oracle, baseline_success_rate) =
            self.search_oracle(variant, space, &scenarios, &missions)?;
        let found = self.hunt(space, searcher, &mut oracle, baseline_success_rate)?;

        let counterexample = match found {
            None => None,
            Some(point) => {
                let minimal = minimize(
                    point,
                    self.config.failure_threshold,
                    self.config.minimizer_passes,
                    self.config.minimizer_bisections,
                    &mut oracle,
                )?;
                // The memoised oracle reports the success rate actually
                // measured at the minimized point; with a primed origin this
                // is the baseline rate exactly when the point injects
                // nothing, and a real measurement when floored axes make
                // even the origin a genuine injection.
                let success_rate = oracle.success_rate(&minimal)?;
                let (trace, replay_identical) =
                    self.capture(variant, space, &minimal, &scenarios, &missions)?;
                Some(Counterexample {
                    plans: space.plans(&minimal),
                    point: minimal,
                    success_rate,
                    trace,
                    replay_identical,
                })
            }
        };

        if falsify_span.is_enabled() {
            falsify_span
                .field("found", counterexample.is_some())
                .field("missions_flown", missions.load(Ordering::Relaxed));
        }
        Ok(SpaceFalsification {
            space: space.clone(),
            variant,
            family: self.config.family,
            searcher: searcher.label().to_string(),
            baseline_success_rate,
            counterexample,
            probes: std::mem::take(&mut oracle.probes),
            missions_flown: missions.load(Ordering::Relaxed),
        })
    }

    /// Builds the memoised oracle over the runner's probe campaigns, runs
    /// the baseline campaign and primes the origin when it is a no-op.
    fn search_oracle<'a>(
        &'a self,
        variant: SystemVariant,
        space: &'a FaultSpace,
        scenarios: &Arc<Vec<mls_sim_world::Scenario>>,
        missions: &Arc<AtomicUsize>,
    ) -> Result<(Oracle<'a>, f64), CampaignError> {
        let runner = &self.runner;
        let config = &self.config;
        let suite = scenarios.clone();
        let counter = missions.clone();
        // One probe campaign over `points`: a combo cell per point, in
        // point order. Mission seeds do not depend on the cell and early
        // stop is decided per cell, so a point's rate does not depend on
        // which points share its campaign.
        let fly = move |points: &[Vec<f64>]| -> Result<Vec<f64>, CampaignError> {
            let mut spec = probe_spec_for(config, variant, space, &[]);
            spec.baseline = false;
            spec.combos = points.iter().map(|point| space.plans(point)).collect();
            let report = runner.run_with_shared_suites(&spec, std::slice::from_ref(&suite))?;
            counter.fetch_add(report.missions, Ordering::Relaxed);
            Ok(report.cells.iter().map(|cell| cell.success_rate).collect())
        };
        let evaluate: BatchProbeFn<'a> = match self.execution {
            ProbeExecution::Sequential => Box::new(move |points: &[Vec<f64>]| {
                let mut rates = Vec::with_capacity(points.len());
                for point in points {
                    rates.extend(fly(std::slice::from_ref(point))?);
                }
                Ok(rates)
            }),
            ProbeExecution::Batched => Box::new(fly),
        };
        let mut oracle = Oracle::new_batch(evaluate);

        let baseline_spec = self.probe_spec(variant, space, &[]);
        // A search-scoped journal pins the first baseline spec it sees in
        // its header. Resuming the same search target after the
        // configuration changed must fail loudly — a silent hash mismatch
        // would just re-fly everything and quietly produce artifacts from
        // a different experiment than the journal's name promises.
        if let Some(handle) = runner.journal_handle() {
            let journal = handle.open_ambient(Some(&baseline_spec))?;
            let header = journal.header();
            if let (Some(pinned), Some(spec_json)) = (header.config_hash, &header.spec_json) {
                let pinned_spec = CampaignSpec::from_json(spec_json)?;
                let expected = baseline_spec.config_hash()?;
                if pinned_spec.name == baseline_spec.name
                    && pinned_spec.variants == baseline_spec.variants
                    && pinned != expected
                {
                    return Err(CampaignError::Journal(format!(
                        "search journal {} pins baseline '{}' under config hash \
                         {pinned:#018x}, this search's baseline hashes to {expected:#018x} \
                         — refusing to resume against an edited configuration",
                        handle.path().display(),
                        pinned_spec.name,
                    )));
                }
            }
        }
        let baseline_report = self
            .runner
            .run_with_shared_suites(&baseline_spec, std::slice::from_ref(scenarios))?;
        missions.fetch_add(baseline_report.cells[0].missions, Ordering::Relaxed);
        let baseline_success_rate = baseline_report.cells[0].success_rate;

        // Intensity 0 is a guaranteed no-op for every fault kind, so when
        // the space's origin maps onto all-zero intensities its probe is the
        // baseline campaign — prime the cache instead of re-flying it.
        let origin = vec![0.0; space.dim()];
        let origin_is_noop = space
            .plans(&origin)
            .iter()
            .all(|plan| plan.intensity == 0.0);
        if origin_is_noop {
            oracle.prime(&origin, baseline_success_rate);
        }
        Ok((oracle, baseline_success_rate))
    }

    /// Runs the searcher (or shortcuts on a failing baseline) and brackets
    /// the all-axes-at-max corner before concluding "unfalsifiable".
    fn hunt(
        &self,
        space: &FaultSpace,
        searcher: &Searcher,
        oracle: &mut Oracle,
        baseline_success_rate: f64,
    ) -> Result<Option<Vec<f64>>, CampaignError> {
        let threshold = self.config.failure_threshold;
        // A failing baseline means the origin already falsifies: the space
        // is degenerate for this variant, and the origin is trivially the
        // minimal counterexample.
        if baseline_success_rate < threshold {
            return Ok(Some(vec![0.0; space.dim()]));
        }
        match searcher.find_failure(space.dim(), threshold, oracle)? {
            Some(point) => Ok(Some(point)),
            // Bracket before concluding "unfalsifiable": a stochastic
            // searcher (CMA-ES) may exhaust its budget without ever
            // sampling the worst corner, and `counterexample: None`
            // promises that not even all-axes-at-max breaks the system.
            None => {
                let corner = vec![1.0; space.dim()];
                Ok(oracle.fails(&corner, threshold)?.then_some(corner))
            }
        }
    }

    /// Falsifies several (variant, space) pairs with one searcher, returning
    /// a combined report in input order.
    ///
    /// # Errors
    ///
    /// Returns the [`FalsificationSearch::falsify`] errors.
    pub fn falsify_all(
        &self,
        targets: &[(SystemVariant, FaultSpace)],
        searcher: &Searcher,
    ) -> Result<FalsificationReport, CampaignError> {
        let mut results = Vec::with_capacity(targets.len());
        for (variant, space) in targets {
            results.push(self.falsify(*variant, space, searcher)?);
        }
        Ok(FalsificationReport { results })
    }

    /// Re-flies the minimized point with the flight recorder on, persists
    /// the first failing mission's trace and verifies it replays
    /// byte-identically.
    fn capture(
        &self,
        variant: SystemVariant,
        space: &FaultSpace,
        point: &[f64],
        scenarios: &Arc<Vec<mls_sim_world::Scenario>>,
        missions: &Arc<AtomicUsize>,
    ) -> Result<(Option<TraceLink>, Option<bool>), CampaignError> {
        let mut spec = self.probe_spec(variant, space, &space.plans(point));
        spec.capture = mls_trace::TracePolicy::FailuresOnly;
        // Under a custom base dir every space keeps its own subdirectory
        // (the spec name), matching the runner's per-spec default layout.
        let runner = match &self.trace_dir {
            Some(base) => self.runner.clone().with_trace_dir(base.join(&spec.name)),
            None => self.runner.clone(),
        };
        let report = runner.run_with_shared_suites(&spec, std::slice::from_ref(scenarios))?;
        missions.fetch_add(report.missions, Ordering::Relaxed);
        let Some(link) = report.traces.first().cloned() else {
            return Ok((None, None));
        };
        let trace = mls_trace::Trace::read_from(Path::new(&link.path))?;
        let verdict = runner.replay(&spec, scenarios, &trace)?;
        missions.fetch_add(1, Ordering::Relaxed);
        Ok((Some(link), Some(verdict.is_identical())))
    }

    /// The spec of one probe campaign at a fault point (`plans` empty for
    /// the baseline probe).
    fn probe_spec(
        &self,
        variant: SystemVariant,
        space: &FaultSpace,
        plans: &[FaultPlan],
    ) -> CampaignSpec {
        probe_spec_for(&self.config, variant, space, plans)
    }
}

/// Free-function form of the probe spec so the oracle closure can borrow the
/// config while the search object stays shared.
fn probe_spec_for(
    config: &FalsificationConfig,
    variant: SystemVariant,
    space: &FaultSpace,
    plans: &[FaultPlan],
) -> CampaignSpec {
    CampaignSpec {
        name: format!("falsify-{}", space.name),
        seed: config.seed,
        maps: config.maps,
        scenarios_per_map: config.scenarios_per_map,
        families: vec![config.family],
        repeats: config.repeats,
        variants: vec![variant],
        profiles: vec![config.profile.clone()],
        baseline: plans.is_empty(),
        faults: Vec::new(),
        combos: if plans.is_empty() {
            Vec::new()
        } else {
            vec![plans.to_vec()]
        },
        landing: config.landing.clone(),
        executor: config.executor.clone(),
        capture: mls_trace::TracePolicy::Off,
        // Degenerate thresholds (≤ 0 or > 1) were accepted by the searcher
        // before early stopping existed; they simply fall back to flying
        // every mission instead of failing probe-spec validation.
        probe_early_stop: (config.probe_early_stop
            && EarlyStopPolicy::exact(config.failure_threshold)
                .validate()
                .is_ok())
        .then(|| EarlyStopPolicy::exact(config.failure_threshold)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultAxis;

    /// A synthetic oracle with a planar failure boundary: the system fails
    /// (success rate 0) wherever `a·x > limit`, passes (success 1.0 − margin
    /// shrinking toward the boundary) elsewhere.
    fn planar_oracle<'a>(weights: &'a [f64], limit: f64, evaluations: &'a mut usize) -> Oracle<'a> {
        Oracle::new(move |point: &[f64]| {
            *evaluations += 1;
            let dot: f64 = point.iter().zip(weights).map(|(x, w)| x * w).sum();
            Ok(if dot > limit {
                0.0
            } else {
                1.0 - 0.4 * (dot / limit).clamp(0.0, 1.0)
            })
        })
    }

    #[test]
    fn grid_refinement_converges_onto_a_planted_boundary() {
        let weights = [1.0, 1.0];
        let mut evaluations = 0;
        let mut oracle = planar_oracle(&weights, 1.2, &mut evaluations);
        let config = GridRefinementConfig {
            resolution: 3,
            rounds: 3,
        };
        let found = grid_refinement(&config, 2, 0.5, &mut oracle)
            .unwrap()
            .expect("the corner (1,1) fails, so the lattice must find a failure");
        let dot: f64 = found.iter().sum();
        assert!(dot > 1.2, "found point must actually fail: {found:?}");
        // Refinement pulls the failure toward the boundary: within half the
        // final lattice spacing of it.
        assert!(dot < 1.2 + 0.3, "refined point too deep: {found:?}");
        // And the severity is near the boundary's minimal-norm point
        // (0.6, 0.6), not the initial (1, 1) corner.
        assert!(severity(&found) < 1.1, "severity {found:?}");
    }

    #[test]
    fn grid_refinement_reports_unfalsifiable_spaces() {
        let mut oracle = Oracle::new(|_: &[f64]| Ok(1.0));
        let config = GridRefinementConfig::default();
        assert!(grid_refinement(&config, 2, 0.5, &mut oracle)
            .unwrap()
            .is_none());
    }

    #[test]
    fn cma_es_finds_a_failure_and_is_deterministic_per_seed() {
        let weights = [1.0, 0.8];
        let config = CmaEsConfig {
            population: 8,
            generations: 6,
            initial_step: 0.3,
            seed: 11,
        };
        let run = |seed: u64| {
            let mut evaluations = 0;
            let mut oracle = planar_oracle(&weights, 1.1, &mut evaluations);
            let config = CmaEsConfig { seed, ..config };
            (
                cma_es(&config, 2, 0.5, &mut oracle).unwrap(),
                oracle.probes.clone(),
            )
        };
        let (a_point, a_probes) = run(11);
        let (b_point, b_probes) = run(11);
        assert_eq!(a_point, b_point, "same seed, same search");
        assert_eq!(a_probes, b_probes, "same seed, same probe sequence");
        let found = a_point
            .clone()
            .expect("the strategy must walk into the failing half-space");
        let dot: f64 = found.iter().zip(&weights).map(|(x, w)| x * w).sum();
        assert!(dot > 1.1, "returned point must fail: {found:?}");

        let (c_point, c_probes) = run(12);
        assert!(
            c_point != a_point || c_probes != a_probes,
            "a different seed must explore differently"
        );
    }

    #[test]
    fn batched_generations_match_sequential_evaluation_exactly() {
        // The same searcher over the same synthetic boundary, once through
        // the one-point-at-a-time adapter and once through a generation
        // evaluator: the probe log and the found point must be identical.
        let weights = [1.0, 0.7];
        let config = GridRefinementConfig {
            resolution: 3,
            rounds: 2,
        };
        let rate_of = |point: &[f64]| {
            let dot: f64 = point.iter().zip(&weights).map(|(x, w)| x * w).sum();
            if dot > 1.0 {
                0.0
            } else {
                1.0 - 0.4 * dot
            }
        };
        let mut sequential = Oracle::new(move |point: &[f64]| Ok(rate_of(point)));
        let found_sequential = grid_refinement(&config, 2, 0.5, &mut sequential).unwrap();

        let mut batch_calls = 0usize;
        let mut batched = Oracle::new_batch(|points: &[Vec<f64>]| {
            batch_calls += 1;
            Ok(points.iter().map(|p| rate_of(p)).collect())
        });
        let found_batched = grid_refinement(&config, 2, 0.5, &mut batched).unwrap();

        assert_eq!(found_sequential, found_batched);
        assert_eq!(sequential.probes, batched.probes);
        drop(batched);
        assert_eq!(
            batch_calls, 3,
            "one evaluator call per generation: initial lattice + 2 refinements"
        );
    }

    #[test]
    fn minimizer_lands_on_the_failure_frontier() {
        let weights = [1.0, 1.0];
        let mut evaluations = 0;
        let mut oracle = planar_oracle(&weights, 1.2, &mut evaluations);
        let minimal = minimize(vec![1.0, 1.0], 0.5, 2, 8, &mut oracle).unwrap();
        let dot: f64 = minimal.iter().sum();
        // Still failing...
        assert!(dot > 1.2, "minimized point must keep failing: {minimal:?}");
        // ...but on the frontier: within the bisection resolution of it.
        assert!(dot < 1.2 + 0.02, "not minimal: {minimal:?}");
        // Lowering either axis by more than the resolution makes it pass.
        for axis in 0..2 {
            let mut nudged = minimal.clone();
            nudged[axis] = (nudged[axis] - 0.02).max(0.0);
            let passes = !oracle.fails(&nudged, 0.5).unwrap();
            assert!(passes, "axis {axis} is not on the frontier: {minimal:?}");
        }
    }

    #[test]
    fn minimizer_zeroes_irrelevant_axes() {
        // Only axis 0 matters: fail iff x0 > 0.3.
        let mut oracle = Oracle::new(|point: &[f64]| Ok(if point[0] > 0.3 { 0.0 } else { 1.0 }));
        let minimal = minimize(vec![0.9, 0.9], 0.5, 2, 8, &mut oracle).unwrap();
        assert_eq!(minimal[1], 0.0, "the irrelevant axis must collapse to 0");
        assert!(minimal[0] > 0.3 && minimal[0] < 0.32, "{minimal:?}");
    }

    #[test]
    fn oracle_memoises_repeat_probes() {
        let mut count = 0usize;
        let mut oracle = Oracle::new(|_: &[f64]| {
            count += 1;
            Ok(1.0)
        });
        oracle.success_rate(&[0.5, 0.5]).unwrap();
        oracle.success_rate(&[0.5, 0.5]).unwrap();
        oracle.success_rate(&[0.5, 0.5000000001]).unwrap();
        assert_eq!(oracle.probes.len(), 1, "quantized revisits are cached");
        drop(oracle);
        assert_eq!(count, 1);
    }

    #[test]
    fn oracle_deduplicates_within_a_generation() {
        let mut count = 0usize;
        let mut oracle = Oracle::new_batch(|points: &[Vec<f64>]| {
            count += points.len();
            Ok(points.iter().map(|_| 1.0).collect())
        });
        let generation = vec![
            vec![0.25, 0.5],
            vec![0.25, 0.5],          // exact duplicate
            vec![0.25, 0.5000000001], // sub-quantum jitter
            vec![0.75, 0.5],
        ];
        let rates = oracle.success_rates(&generation).unwrap();
        assert_eq!(rates, vec![1.0; 4]);
        assert_eq!(oracle.probes.len(), 2, "two distinct points");
        // The log keeps first-occurrence order.
        assert_eq!(oracle.probes[0].point, vec![0.25, 0.5]);
        assert_eq!(oracle.probes[1].point, vec![0.75, 0.5]);
        drop(oracle);
        assert_eq!(count, 2, "duplicates are not re-flown");
    }

    #[test]
    fn point_keys_quantize_like_the_legacy_vec_keys() {
        // Pins the cache-hit behaviour the fixed-size key replaced: 1e-9
        // quantization, dimension-sensitivity, distinctness past the
        // quantum.
        assert_eq!(
            PointKey::of(&[0.5, 0.5]),
            PointKey::of(&[0.5, 0.5000000001])
        );
        assert_ne!(PointKey::of(&[0.5, 0.5]), PointKey::of(&[0.5, 0.500000002]));
        assert_ne!(PointKey::of(&[0.5]), PointKey::of(&[0.5, 0.0]));
        assert_eq!(PointKey::of(&[]).dim, 0);
    }

    #[test]
    fn default_config_is_sane_and_searchers_label() {
        let config = FalsificationConfig::default();
        assert!(config.failure_threshold > 0.0 && config.failure_threshold < 1.0);
        assert!(config.minimizer_bisections >= 1);
        assert!(
            config.probe_early_stop,
            "search probes early-stop by default"
        );
        let search = FalsificationSearch::new(config, 2);
        assert_eq!(search.config().maps, 2);
        assert_eq!(
            Searcher::GridRefinement(GridRefinementConfig::default()).label(),
            "grid-refinement"
        );
        assert_eq!(Searcher::CmaEs(CmaEsConfig::default()).label(), "cma-es");
    }

    #[test]
    fn probe_specs_embed_the_point_as_a_combo_cell() {
        let config = FalsificationConfig::default();
        let space = FaultSpace::new(
            "s",
            vec![
                FaultAxis::full(FaultKind::MarkerOcclusion),
                FaultAxis::full(FaultKind::GpsBias),
            ],
        );
        let plans = space.plans(&[0.25, 0.75]);
        let spec = probe_spec_for(&config, SystemVariant::MlsV2, &space, &plans);
        spec.validate().unwrap();
        assert_eq!(spec.cells().len(), 1);
        assert_eq!(spec.cells()[0].faults.len(), 2);
        assert!(!spec.baseline);
        assert_eq!(
            spec.probe_early_stop,
            Some(EarlyStopPolicy::exact(config.failure_threshold)),
            "search probes early-stop against the failure threshold"
        );
        let baseline = probe_spec_for(&config, SystemVariant::MlsV2, &space, &[]);
        assert!(baseline.baseline);
        assert!(baseline.combos.is_empty());
        // Degenerate thresholds disable early stop instead of producing a
        // probe spec that fails validation.
        let degenerate = FalsificationConfig {
            failure_threshold: 1.5,
            ..FalsificationConfig::default()
        };
        let spec = probe_spec_for(&degenerate, SystemVariant::MlsV2, &space, &[]);
        assert_eq!(spec.probe_early_stop, None);
        spec.validate().unwrap();
        // The searched report round-trips.
        let report = FalsificationReport {
            results: vec![SpaceFalsification {
                space,
                variant: SystemVariant::MlsV2,
                family: mls_sim_world::ScenarioFamily::Open,
                searcher: "grid-refinement".to_string(),
                baseline_success_rate: 0.9,
                counterexample: Some(Counterexample {
                    point: vec![0.25, 0.75],
                    plans,
                    success_rate: 0.25,
                    trace: None,
                    replay_identical: None,
                }),
                probes: vec![ProbePoint {
                    point: vec![0.25, 0.75],
                    success_rate: 0.25,
                }],
                missions_flown: 17,
            }],
        };
        let json = report.to_json().unwrap();
        assert_eq!(FalsificationReport::from_json(&json).unwrap(), report);
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("marker-occlusion@0.250+gps-bias@0.750"));
        assert!(csv.lines().nth(1).unwrap().ends_with(",17"));
    }

    #[test]
    fn legacy_results_without_mission_accounting_parse_as_zero() {
        let result = SpaceFalsification {
            space: FaultSpace::new("s", vec![FaultAxis::full(FaultKind::WindGust)]),
            variant: SystemVariant::MlsV1,
            family: mls_sim_world::ScenarioFamily::Open,
            searcher: "grid-refinement".to_string(),
            baseline_success_rate: 1.0,
            counterexample: None,
            probes: Vec::new(),
            missions_flown: 9,
        };
        let json = serde_json::to_string(&result).unwrap();
        let serde::Value::Object(mut fields) = serde_json::parse(&json).unwrap() else {
            panic!("results serialise to objects");
        };
        fields.retain(|(key, _)| key != "missions_flown");
        let legacy = serde_json::to_string(&serde::Value::Object(fields)).unwrap();
        let parsed: SpaceFalsification = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.missions_flown, 0);
        assert_eq!(parsed.space, result.space);
    }
}
