//! The three workloads: their specs, the untraced timed section, the
//! traced re-fly and the correctness checks.
//!
//! Every workload is a closed loop from one process: a fixed job list is
//! drained by the campaign pool (`CampaignRunner` on an `mls_campaign`
//! `MissionExecutor`) at `threads` workers, and the next round starts only
//! when the previous one has finished.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mls_campaign::{
    CampaignCell, CampaignReport, CampaignRunner, CampaignSpec, CompositeInjector, EarlyStopPolicy,
    FalsificationConfig, FalsificationSearch, FaultAxis, FaultKind, FaultPlan, FaultSpace,
    GridRefinementConfig, MissionExecutor as Pool, MissionFaultContext, Searcher,
    SpaceFalsification, SuiteCache, SuiteKey,
};
use mls_compute::ComputeModel;
use mls_core::{FaultHook, MissionResult, SystemVariant};
use mls_sim_world::{Scenario, ScenarioFamily};

use crate::probe::{self, MissionTrace};
use crate::spans::{median, now_ns, seconds_since, Layer, Span};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I's shape: V1, V2 and V3 over the open family, no faults.
    SilOpen,
    /// V2 (A* + grid) and V3 (RRT* + octree) over constrained pads at a
    /// wide inflation radius.
    PlannerConstrained,
    /// Falsification of MLS-V1 over a floored occlusion × GNSS-bias space.
    FalsifyV1,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SilOpen,
        Workload::PlannerConstrained,
        Workload::FalsifyV1,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SilOpen => "sil-open",
            Workload::PlannerConstrained => "planner-constrained",
            Workload::FalsifyV1 => "falsify-v1",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one benchmark run is driven.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: it draws `falsify-v1`'s space
    /// ([`falsify_space`]); the grid workloads fly the same job list for
    /// every seed.
    pub seed: u64,
    /// Minimum length of the untraced timed section, seconds.
    pub seconds: f64,
    /// Whether to follow the untraced section with the traced run.
    pub trace: bool,
    /// Concurrent mission workers.
    pub threads: usize,
    /// Scratch directory for journals and traces (emptied first).
    pub work_dir: PathBuf,
}

/// Failed and attempted operations: missions, replay verifications and
/// correctness checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records `count` operations of which `failed` failed.
    pub fn ops(&mut self, count: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += count;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(what());
        }
    }
}

/// The benchmark's set-up: scenario suites plus a started executor pool.
pub struct Setup {
    /// Median set-up time over the repetitions, seconds.
    pub setup_s: f64,
    /// Median suite-generation part of it, seconds.
    pub generate_s: f64,
    /// Scenarios generated per repetition.
    pub scenarios: usize,
    /// The suites of the last repetition, one per spec family.
    pub suites: Vec<Arc<Vec<Scenario>>>,
    /// The started pool of the last repetition.
    pub pool: Arc<Pool>,
}

/// Seed of the benchmark world: every workload's scenario suites and the
/// flights' noise streams derive from it, whatever the workload seed, the
/// way the paper's benchmark flies one fixed set of maps.
pub const WORLD_SEED: u64 = 2025;

/// Set-up is repeated this many times and its median reported.
pub const SETUP_REPEATS: usize = 51;

/// Generates the spec's suites from `suite_seed` into a fresh cache and
/// starts a fresh pool, [`SETUP_REPEATS`] times.
pub fn setup(spec: &CampaignSpec, suite_seed: u64, threads: usize) -> Result<Setup, String> {
    let mut totals = Vec::new();
    let mut generates = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = now_ns();
        let cache = SuiteCache::new();
        let suites = spec
            .families
            .iter()
            .map(|&family| {
                cache.get_or_generate(SuiteKey {
                    family,
                    suite_seed,
                    maps: spec.maps,
                    scenarios_per_map: spec.scenarios_per_map,
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        generates.push(seconds_since(start));
        let pool = Pool::new(threads);
        pool.execute(threads, threads, |_| ());
        totals.push(seconds_since(start));
        last = Some((suites, pool));
    }
    let (suites, pool) = last.expect("at least one set-up repetition");
    Ok(Setup {
        setup_s: median(&totals),
        generate_s: median(&generates),
        scenarios: suites.iter().map(|suite| suite.len()).sum(),
        suites,
        pool,
    })
}

/// Inflation radius of `planner-constrained`, metres: a point of the
/// Fig. 6 sweep (0.4 … 2.8 m) where A* planning dominates a V2 mission.
pub const CONSTRAINED_INFLATION: f64 = 2.0;

/// The campaign spec of a grid workload. Its seed is [`WORLD_SEED`], so
/// the flights' noise streams are fixed: every workload seed flies the
/// same missions over the same world.
pub fn grid_spec(workload: Workload) -> CampaignSpec {
    let (name, family, variants, scenarios) = match workload {
        Workload::SilOpen => (
            "bench-sil-open",
            ScenarioFamily::Open,
            // Longest jobs first: the pool claims jobs in order, so the
            // short V1 missions pack the tail instead of idling a worker.
            vec![
                SystemVariant::MlsV2,
                SystemVariant::MlsV3,
                SystemVariant::MlsV1,
            ],
            SIL_OPEN_SCENARIOS,
        ),
        _ => (
            "bench-planner-constrained",
            ScenarioFamily::ConstrainedPad,
            vec![SystemVariant::MlsV2, SystemVariant::MlsV3],
            CONSTRAINED_SCENARIOS,
        ),
    };
    let mut spec = CampaignSpec {
        name: name.to_string(),
        seed: WORLD_SEED,
        maps: 1,
        scenarios_per_map: scenarios,
        families: vec![family],
        variants,
        faults: Vec::new(),
        ..CampaignSpec::default()
    };
    if workload == Workload::PlannerConstrained {
        spec.landing.inflation_radius = CONSTRAINED_INFLATION;
    }
    spec.landing.mission_timeout = 120.0;
    spec.executor.max_duration = 150.0;
    spec
}

/// Scenarios per round of `sil-open` (× 3 variants).
pub const SIL_OPEN_SCENARIOS: usize = 4;
/// Scenarios per round of `planner-constrained` (× 2 variants).
pub const CONSTRAINED_SCENARIOS: usize = 2;

/// The falsification config of `falsify-v1`: the search flies the
/// benchmark world ([`WORLD_SEED`] seeds its suite and its flights).
pub fn falsify_config() -> FalsificationConfig {
    let mut config = FalsificationConfig {
        seed: WORLD_SEED,
        maps: 1,
        scenarios_per_map: FALSIFY_SCENARIOS,
        repeats: FALSIFY_REPEATS,
        failure_threshold: FALSIFY_THRESHOLD,
        minimizer_passes: 1,
        minimizer_bisections: 3,
        probe_early_stop: true,
        ..FalsificationConfig::default()
    };
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    config
}

/// Scenarios per probe of `falsify-v1`.
pub const FALSIFY_SCENARIOS: usize = 4;
/// Repeats per scenario per probe of `falsify-v1`.
pub const FALSIFY_REPEATS: usize = 2;
/// A probe of `falsify-v1` fails below this success rate.
pub const FALSIFY_THRESHOLD: f64 = 0.85;

/// The searched space of `falsify-v1`: occlusion × GNSS bias with both
/// axes floored well into the stressed regime (occlusion 0.45, bias 0.3),
/// as in perfsuite's `falsify-grid`. The workload seed draws the ceilings
/// (0.9–1.0 each), so each seed probes its own stressed lattice points.
pub fn falsify_space(seed: u64) -> FaultSpace {
    let (occlusion, bias) = unit_pair(seed);
    FaultSpace::new(
        "bench-v1-occlusion-x-gps-bias",
        vec![
            FaultAxis::new(FaultKind::MarkerOcclusion, 0.45, 0.9 + 0.1 * occlusion),
            FaultAxis::new(FaultKind::GpsBias, 0.3, 0.9 + 0.1 * bias),
        ],
    )
}

/// One splitmix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two numbers in `[0, 1)` drawn from `seed`.
fn unit_pair(seed: u64) -> (f64, f64) {
    let mut state = seed;
    let mut next = || splitmix(&mut state) as f64 / (u64::MAX as f64 + 1.0);
    (next(), next())
}

/// The searcher of `falsify-v1`.
pub fn falsify_searcher() -> Searcher {
    Searcher::GridRefinement(GridRefinementConfig {
        resolution: 3,
        rounds: 0,
    })
}

/// The campaign a falsification probe flies at `plans` (empty: the
/// baseline) — the same spec the search builds for its probes.
pub fn probe_spec(
    config: &FalsificationConfig,
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
        variants: vec![SystemVariant::MlsV1],
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
        probe_early_stop: config
            .probe_early_stop
            .then(|| EarlyStopPolicy::exact(config.failure_threshold)),
    }
}

/// What the untraced timed section measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of each round, seconds.
    pub round_walls: Vec<f64>,
    /// Missions flown per round.
    pub missions: usize,
    /// The grid workloads' report (first round).
    pub report: Option<CampaignReport>,
    /// The falsification result (first round).
    pub falsification: Option<SpaceFalsification>,
    /// Journal records and bytes of the last round.
    pub journal: (u64, u64),
}

impl Timed {
    /// Median round wall time, seconds.
    pub fn wall_s(&self) -> f64 {
        median(&self.round_walls)
    }
}

/// Whether the timed section starts another round: not in a traced run
/// (one untraced round is its baseline), otherwise only when one more
/// round of the last round's length still ends within `seconds`.
fn another_round(options: &RunOptions, section: u64, walls: &[f64]) -> bool {
    let last = walls.last().copied().unwrap_or(0.0);
    !options.trace && seconds_since(section) + last <= options.seconds
}

/// Runs rounds of a grid workload until `seconds` have passed (one round
/// when only the traced run's baseline is needed).
pub fn timed_grid(
    spec: &CampaignSpec,
    setup: &Setup,
    options: &RunOptions,
    tally: &mut Tally,
) -> Timed {
    let runner = CampaignRunner::new(options.threads).with_executor(setup.pool.clone());
    let planned = spec.total_missions();
    let mut timed = Timed::default();
    let section = now_ns();
    loop {
        let start = now_ns();
        let result = runner.run_with_shared_suites(spec, &setup.suites);
        timed.round_walls.push(seconds_since(start));
        match result {
            Err(err) => {
                tally.ops(planned as u64, planned as u64, || {
                    format!("campaign round failed: {err}")
                });
                break;
            }
            Ok(report) => {
                tally.ops(report.missions as u64, 0, String::new);
                tally.check(report.missions == planned, || {
                    format!("flew {} missions, planned {planned}", report.missions)
                });
                match &timed.report {
                    None => {
                        timed.missions = report.missions;
                        timed.report = Some(report);
                    }
                    Some(first) => tally.check(*first == report, || {
                        "a repeated round produced a different report".to_string()
                    }),
                }
            }
        }
        if !another_round(options, section, &timed.round_walls) {
            break;
        }
    }
    timed
}

/// Runs rounds of `falsify-v1` (search, minimize, capture and replay
/// verification) until `seconds` have passed.
pub fn timed_falsify(options: &RunOptions, tally: &mut Tally) -> Timed {
    let config = falsify_config();
    let space = falsify_space(options.seed);
    let searcher = falsify_searcher();
    let mut timed = Timed::default();
    let section = now_ns();
    loop {
        let round_dir = options.work_dir.join("falsify");
        let _ = fs::remove_dir_all(&round_dir);
        let journal = round_dir.join("journal.jsonl");
        let search = FalsificationSearch::new(config.clone(), options.threads)
            .with_journal(&journal)
            .with_trace_dir(round_dir.join("traces"));
        let start = now_ns();
        let result = search.falsify(SystemVariant::MlsV1, &space, &searcher);
        timed.round_walls.push(seconds_since(start));
        match result {
            Err(err) => {
                tally.ops(1, 1, || format!("falsification failed: {err}"));
                break;
            }
            Ok(result) => {
                tally.ops(result.missions_flown as u64, 0, String::new);
                let replay = result
                    .counterexample
                    .as_ref()
                    .and_then(|ce| ce.replay_identical);
                tally.check(result.counterexample.is_some(), || {
                    "the search found no counterexample".to_string()
                });
                // The search's own replay verification of the captured trace.
                tally.check(replay == Some(true), || {
                    format!("counterexample replay was not byte-identical: {replay:?}")
                });
                timed.journal = journal_size(&journal);
                match &timed.falsification {
                    None => {
                        timed.missions = result.missions_flown;
                        timed.falsification = Some(result);
                    }
                    Some(first) => tally.check(*first == result, || {
                        "a repeated search produced a different result".to_string()
                    }),
                }
            }
        }
        if !another_round(options, section, &timed.round_walls) {
            break;
        }
    }
    timed
}

/// Records (lines after the header) and bytes of a journal file.
fn journal_size(path: &Path) -> (u64, u64) {
    match fs::read_to_string(path) {
        Ok(text) => (
            text.lines().count().saturating_sub(1) as u64,
            text.len() as u64,
        ),
        Err(_) => (0, 0),
    }
}

/// Everything the traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Wall time of the traced section, seconds.
    pub wall_s: f64,
    /// Wall time of the same job list flown untraced, when the timed
    /// section's job list differs from the traced one (`falsify-v1`).
    pub untraced_wall_s: Option<f64>,
    /// One trace per mission, in job order.
    pub missions: Vec<MissionTrace>,
    /// Probes re-flown (`falsify-v1`).
    pub probes: usize,
    /// Timed replays of the counterexample trace: (seconds, identical).
    pub replays: Vec<(f64, bool)>,
    /// Bytes of the counterexample trace file.
    pub trace_bytes: u64,
}

/// Flies one mission of `cell`, through the timing decorator when
/// `decorate` is set (otherwise with only the cell's injector, as the
/// runner flies it, and no layer spans).
fn fly_traced(
    spec: &CampaignSpec,
    cell: &CampaignCell,
    scenario: &Scenario,
    repeat: usize,
    mission: u32,
    decorate: bool,
) -> Result<MissionTrace, String> {
    let start = now_ns();
    let seed = spec.mission_seed(scenario.id, repeat);
    let compute =
        ComputeModel::new(spec.profiles[cell.profile_index].clone()).map_err(|e| e.to_string())?;
    let executor = mls_core::MissionExecutor::for_variant(
        scenario,
        cell.variant,
        spec.landing.clone(),
        compute,
        spec.executor.clone(),
        seed,
    )
    .map_err(|e| e.to_string())?;
    let context = MissionFaultContext {
        target_marker_id: scenario.target_marker_id,
        gps_target: scenario.gps_target,
        marker_size: scenario.marker_size,
        max_duration: spec.executor.max_duration,
    };
    // The real injector a faulted cell flies with, exactly as the runner
    // builds it: one plan keeps the raw mission seed, several compose.
    let inner: Option<Box<dyn FaultHook>> = match cell.faults.as_slice() {
        [] => None,
        [plan] => Some(Box::new(plan.injector(seed, &context))),
        plans => Some(Box::new(CompositeInjector::new(plans, seed, &context))),
    };
    let mut trace = if decorate {
        let (executor, shared) = probe::attach(executor, mission, cell.variant, inner);
        executor.run();
        let mut trace = shared.lock().map_err(|e| e.to_string())?;
        std::mem::take(&mut *trace)
    } else {
        let executor = match inner {
            Some(hook) => executor.with_fault_hook(hook),
            None => executor,
        };
        MissionTrace::untraced(cell.variant, executor.run().result)
    };
    let end = now_ns();
    trace.spans.insert(
        0,
        Span {
            mission,
            id: 0,
            parent: None,
            layer: Layer::Mission,
            start,
            end,
        },
    );
    Ok(trace)
}

/// Re-flies the grid workload's job list traced: the same cells, suites
/// and `spec.mission_seed(scenario.id, repeat)`, fanned over the pool.
pub fn traced_grid(
    spec: &CampaignSpec,
    setup: &Setup,
    options: &RunOptions,
    report: Option<&CampaignReport>,
    tally: &mut Tally,
) -> Traced {
    let cells = Arc::new(spec.cells());
    let per_cell = spec.missions_per_cell();
    let total = per_cell * cells.len();
    let shared_spec = Arc::new(spec.clone());
    let suites = Arc::new(setup.suites.clone());
    let job_cells = cells.clone();
    let start = now_ns();
    let results = setup.pool.execute(total, options.threads, move |index| {
        let cell = &job_cells[index / per_cell];
        let suite = &suites[cell.suite_index];
        let within = index % per_cell;
        let scenario = &suite[within % suite.len()];
        fly_traced(
            &shared_spec,
            cell,
            scenario,
            within / suite.len(),
            index as u32,
            true,
        )
    });
    let wall_s = seconds_since(start);
    let mut traced = Traced {
        wall_s,
        ..Traced::default()
    };
    let mut errors = 0;
    for result in results {
        match result {
            Ok(trace) => traced.missions.push(trace),
            Err(err) => {
                errors += 1;
                tally
                    .failures
                    .push(format!("traced mission errored: {err}"));
            }
        }
    }
    tally.ops(total as u64, errors, String::new);
    // The decorator must not perturb: per-cell outcome counts equal the
    // untraced report's.
    if let Some(report) = report {
        for (index, cell) in cells.iter().enumerate() {
            let count = |r: MissionResult| {
                traced
                    .missions
                    .iter()
                    .filter(|t| t.mission as usize / per_cell == index && t.result == Some(r))
                    .count()
            };
            let traced_counts = (
                count(MissionResult::Success),
                count(MissionResult::CollisionFailure),
                count(MissionResult::PoorLanding),
            );
            let untraced = &report.cells[index];
            let n = untraced.missions as f64;
            let untraced_counts = (
                (untraced.success_rate * n).round() as usize,
                (untraced.collision_rate * n).round() as usize,
                (untraced.poor_landing_rate * n).round() as usize,
            );
            tally.check(traced_counts == untraced_counts, || {
                format!(
                    "cell {} ({}): traced success/collision/poor {traced_counts:?} != untraced {untraced_counts:?}",
                    index,
                    cell.label()
                )
            });
        }
    }
    traced
}

/// Re-flies the search's baseline and probe missions traced (each probe's
/// decided early-stop prefix, in job order), then times replay
/// verification of the counterexample trace.
pub fn traced_falsify(
    options: &RunOptions,
    result: &SpaceFalsification,
    tally: &mut Tally,
) -> Traced {
    let config = falsify_config();
    let space = falsify_space(options.seed);
    let runner = CampaignRunner::new(options.threads);
    let baseline = probe_spec(&config, &space, &[]);
    let suite = match runner.generate_scenarios(&baseline) {
        Ok(suite) => suite,
        Err(err) => {
            tally.ops(1, 1, || format!("suite generation failed: {err}"));
            return Traced::default();
        }
    };
    let mut specs = vec![(baseline, result.baseline_success_rate)];
    specs.extend(result.probes.iter().map(|p| {
        (
            probe_spec(&config, &space, &space.plans(&p.point)),
            p.success_rate,
        )
    }));
    let probes = specs.len();
    let expected: Vec<f64> = specs.iter().map(|(_, rate)| *rate).collect();
    let specs = Arc::new(specs.into_iter().map(|(spec, _)| spec).collect::<Vec<_>>());
    // The same probe job list flown twice, untraced then traced, so the
    // tracing overhead compares like with like.
    let refly = |decorate: bool| {
        let (specs, suite) = (specs.clone(), suite.clone());
        let start = now_ns();
        let per_probe = runner
            .executor()
            .execute(probes, options.threads, move |index| {
                fly_probe_prefix(&specs[index], &suite, index, decorate)
            });
        (seconds_since(start), per_probe)
    };
    let (untraced_wall_s, _) = refly(false);
    let (wall_s, per_probe) = refly(true);
    let mut traced = Traced {
        wall_s,
        untraced_wall_s: Some(untraced_wall_s),
        probes,
        ..Traced::default()
    };
    for (index, flown) in per_probe.into_iter().enumerate() {
        match flown {
            Ok((rate, missions)) => {
                tally.ops(missions.len() as u64, 0, String::new);
                tally.check(rate == expected[index], || {
                    format!(
                        "probe {index}: traced success rate {rate} != search's {}",
                        expected[index]
                    )
                });
                traced.missions.extend(missions);
            }
            Err(err) => tally.ops(1, 1, || format!("probe {index} errored: {err}")),
        }
    }

    // Replay verification of the counterexample trace, timed.
    let Some(counterexample) = &result.counterexample else {
        return traced;
    };
    let Some(link) = &counterexample.trace else {
        tally.check(false, || "the counterexample carries no trace".to_string());
        return traced;
    };
    let path = Path::new(&link.path);
    traced.trace_bytes = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut spec = probe_spec(&config, &space, &counterexample.plans);
    spec.capture = mls_trace::TracePolicy::FailuresOnly;
    for _ in 0..REPLAYS {
        let start = now_ns();
        let verdict = mls_trace::Trace::read_from(path)
            .map_err(|e| e.to_string())
            .and_then(|trace| {
                runner
                    .replay(&spec, &suite, &trace)
                    .map_err(|e| e.to_string())
            });
        let seconds = seconds_since(start);
        let identical = matches!(&verdict, Ok(v) if v.is_identical());
        tally.ops(1, u64::from(!identical), || {
            format!("counterexample replay not byte-identical: {verdict:?}")
        });
        traced.replays.push((seconds, identical));
    }
    traced
}

/// Replay verifications timed in the traced `falsify-v1` run.
pub const REPLAYS: usize = 3;

/// Flies one probe's missions in job order, traced, until its early-stop
/// policy decides; returns the decided-prefix success rate and the traces.
fn fly_probe_prefix(
    spec: &CampaignSpec,
    suite: &[Scenario],
    probe: usize,
    decorate: bool,
) -> Result<(f64, Vec<MissionTrace>), String> {
    let cell = spec
        .cells()
        .into_iter()
        .next()
        .ok_or_else(|| "probe spec has no cell".to_string())?;
    let planned = spec.missions_per_cell();
    let mut missions = Vec::new();
    let mut successes = 0;
    for within in 0..planned {
        let scenario = &suite[within % suite.len()];
        let mission = (probe * planned + within) as u32;
        let trace = fly_traced(
            spec,
            &cell,
            scenario,
            within / suite.len(),
            mission,
            decorate,
        )?;
        successes += usize::from(trace.result == Some(MissionResult::Success));
        missions.push(trace);
        if let Some(policy) = spec.probe_early_stop {
            if policy.decide(successes, missions.len(), planned).is_some() {
                break;
            }
        }
    }
    Ok((successes as f64 / missions.len().max(1) as f64, missions))
}
