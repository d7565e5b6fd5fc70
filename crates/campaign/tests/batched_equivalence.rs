//! Batched-vs-sequential equivalence over the falsify spaces.
//!
//! The batched executor is a pure transport change: over every falsify
//! space shape (at `MLS_FALSIFY_SMOKE`-scale lattices), the batched path
//! must find the identical counterexample coordinates, evaluate the
//! identical probe set and capture byte-identical traces as the sequential
//! path — independent of thread count and of whether probe schedules
//! early-stop. The two open-pad grid/CMA spaces are checked at the search
//! stage (probe logs + failing point); the V1 space and the
//! constrained-pad smoke space run the full search → minimize → capture
//! pipeline so the persisted trace bytes are compared too. A last case
//! pins that early stop itself cannot move a grid search: the same probe
//! points and failing point with fewer missions flown.
//!
//! Traces land under `target/test-traces/` so CI can upload them as a
//! workflow artifact for post-mortem inspection.

use std::path::PathBuf;

use mls_campaign::{
    CmaEsConfig, FalsificationConfig, FalsificationSearch, FaultAxis, FaultKind, FaultSpace,
    GridRefinementConfig, ProbeExecution, SearchStage, Searcher, SpaceFalsification,
};
use mls_core::SystemVariant;
use mls_sim_world::ScenarioFamily;
use mls_trace::Trace;

/// Stable artifact directory (uploaded by the CI workflow).
fn trace_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-traces")
        .join(name)
}

/// A smoke-scale falsification config: tiny probe suites, short missions.
fn smoke_config(seed: u64, family: ScenarioFamily, early_stop: bool) -> FalsificationConfig {
    let mut config = FalsificationConfig {
        seed,
        maps: 1,
        scenarios_per_map: 2,
        family,
        repeats: 1,
        failure_threshold: 0.75,
        minimizer_passes: 1,
        minimizer_bisections: 1,
        probe_early_stop: early_stop,
        ..FalsificationConfig::default()
    };
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    config
}

/// A minimal-lattice grid searcher (the falsify binary's smoke setting).
fn smoke_grid() -> Searcher {
    Searcher::GridRefinement(GridRefinementConfig {
        resolution: 2,
        rounds: 0,
    })
}

/// Runs the full falsification (search → minimize → capture) of `space`
/// with the given probe execution mode, keeping traces per mode.
fn falsify(
    config: &FalsificationConfig,
    execution: ProbeExecution,
    threads: usize,
    variant: SystemVariant,
    space: &FaultSpace,
    searcher: &Searcher,
    tag: &str,
) -> SpaceFalsification {
    FalsificationSearch::new(config.clone(), threads)
        .with_probe_execution(execution)
        .with_trace_dir(trace_root(&format!("equiv-{}-{tag}", space.name)))
        .falsify(variant, space, searcher)
        .unwrap_or_else(|err| panic!("falsify({}, {tag}) failed: {err}", space.name))
}

/// Runs only the search stage (baseline + searcher).
fn search(
    config: &FalsificationConfig,
    execution: ProbeExecution,
    threads: usize,
    variant: SystemVariant,
    space: &FaultSpace,
    searcher: &Searcher,
) -> SearchStage {
    FalsificationSearch::new(config.clone(), threads)
        .with_probe_execution(execution)
        .search_space(variant, space, searcher)
        .unwrap_or_else(|err| panic!("search_space({}) failed: {err}", space.name))
}

/// Asserts two falsification results are equivalent: identical probe
/// sequences (points *and* rates), identical counterexample coordinates
/// and byte-identical captured traces. Only the trace *paths* may differ
/// (each run keeps its own directory).
fn assert_equivalent(a: &SpaceFalsification, b: &SpaceFalsification, what: &str) {
    assert_eq!(a.probes, b.probes, "{what}: probe logs diverged");
    assert_eq!(
        a.baseline_success_rate, b.baseline_success_rate,
        "{what}: baselines diverged"
    );
    assert_eq!(
        a.missions_flown, b.missions_flown,
        "{what}: mission accounting diverged"
    );
    match (&a.counterexample, &b.counterexample) {
        (None, None) => {}
        (Some(ce_a), Some(ce_b)) => {
            assert_eq!(ce_a.point, ce_b.point, "{what}: counterexample coordinates");
            assert_eq!(ce_a.plans, ce_b.plans, "{what}: counterexample plans");
            assert_eq!(
                ce_a.success_rate, ce_b.success_rate,
                "{what}: counterexample rates"
            );
            assert_eq!(
                ce_a.replay_identical, ce_b.replay_identical,
                "{what}: replay verdicts"
            );
            match (&ce_a.trace, &ce_b.trace) {
                (None, None) => {}
                (Some(link_a), Some(link_b)) => {
                    assert_eq!(link_a.triage, link_b.triage, "{what}: triage classes");
                    assert_eq!(link_a.seed, link_b.seed, "{what}: trace seeds");
                    let trace_a = Trace::read_from(std::path::Path::new(&link_a.path)).unwrap();
                    let trace_b = Trace::read_from(std::path::Path::new(&link_b.path)).unwrap();
                    assert_eq!(
                        trace_a.to_jsonl().unwrap(),
                        trace_b.to_jsonl().unwrap(),
                        "{what}: captured traces are not byte-identical"
                    );
                }
                mismatched => panic!("{what}: trace capture diverged: {mismatched:?}"),
            }
        }
        mismatched => panic!("{what}: counterexample existence diverged: {mismatched:?}"),
    }
}

#[test]
fn v1_occlusion_x_gps_full_pipeline_is_batched_equivalent() {
    // The known-falsifiable MLS-V1 space (the falsification_e2e
    // reference), through the full search → minimize → capture pipeline
    // with early-stopped probes: counterexample coordinates, probe logs
    // and the persisted trace bytes must not depend on the transport.
    let config = smoke_config(3, ScenarioFamily::Open, true);
    let space = FaultSpace::new(
        "eq-v1-occlusion-x-gps",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
        ],
    );
    let searcher = smoke_grid();
    let variant = SystemVariant::MlsV1;
    let sequential = falsify(
        &config,
        ProbeExecution::Sequential,
        2,
        variant,
        &space,
        &searcher,
        "seq",
    );
    let batched = falsify(
        &config,
        ProbeExecution::Batched,
        2,
        variant,
        &space,
        &searcher,
        "bat",
    );
    assert!(
        sequential.counterexample.is_some(),
        "the all-axes-at-max corner falsifies MLS-V1"
    );
    assert_equivalent(&sequential, &batched, "sequential vs batched");
}

#[test]
fn v2_starvation_x_wind_search_is_batched_and_thread_independent() {
    let config = smoke_config(3, ScenarioFamily::Open, true);
    let space = FaultSpace::new(
        "eq-v2-starvation-x-wind",
        vec![
            FaultAxis::new(FaultKind::PlannerStarvation, 0.5, 1.0),
            FaultAxis::full(FaultKind::WindGust),
        ],
    );
    let searcher = smoke_grid();
    let variant = SystemVariant::MlsV2;
    let sequential = search(
        &config,
        ProbeExecution::Sequential,
        2,
        variant,
        &space,
        &searcher,
    );
    let batched = search(
        &config,
        ProbeExecution::Batched,
        2,
        variant,
        &space,
        &searcher,
    );
    assert_eq!(sequential, batched, "sequential vs batched search stages");
    // Thread-count independence of the batched fan-out.
    let three = search(
        &config,
        ProbeExecution::Batched,
        3,
        variant,
        &space,
        &searcher,
    );
    assert_eq!(batched, three, "2 threads vs 3 threads");
}

#[test]
fn v3_cma_search_is_batched_equivalent() {
    // The CMA-ES searcher feeds measured rates back into its ranking, so
    // equivalence here also pins that batched generations tell identical
    // rates in identical order.
    let config = smoke_config(3, ScenarioFamily::Open, true);
    let space = FaultSpace::new(
        "eq-v3-dropout-x-gps",
        vec![
            FaultAxis::full(FaultKind::DetectionDropout),
            FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
        ],
    );
    let searcher = Searcher::CmaEs(CmaEsConfig {
        population: 4,
        generations: 1,
        initial_step: 0.3,
        seed: 7,
    });
    let variant = SystemVariant::MlsV3;
    let sequential = search(
        &config,
        ProbeExecution::Sequential,
        2,
        variant,
        &space,
        &searcher,
    );
    let batched = search(
        &config,
        ProbeExecution::Batched,
        2,
        variant,
        &space,
        &searcher,
    );
    assert_eq!(sequential, batched, "sequential vs batched search stages");
}

#[test]
fn constrained_space_without_early_stop_is_batched_equivalent() {
    // Early stopping off: both paths fly every planned mission, so this
    // pins the pure transport equivalence — full pipeline, on the
    // constrained-pad family (the falsify binary's smoke space, seed 2 as
    // there).
    let config = smoke_config(2, ScenarioFamily::ConstrainedPad, false);
    let space = FaultSpace::new(
        "eq-v3-constrained-occlusion-x-wind",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::full(FaultKind::WindGust),
        ],
    );
    let searcher = smoke_grid();
    let variant = SystemVariant::MlsV3;
    let sequential = falsify(
        &config,
        ProbeExecution::Sequential,
        2,
        variant,
        &space,
        &searcher,
        "seq",
    );
    let batched = falsify(
        &config,
        ProbeExecution::Batched,
        2,
        variant,
        &space,
        &searcher,
        "bat",
    );
    // With early stopping off, every probe flies its full schedule.
    let planned = config.maps * config.scenarios_per_map * config.repeats;
    assert!(
        sequential.missions_flown >= sequential.probes.len() * planned,
        "without early stop every probe flies all {planned} missions"
    );
    assert_equivalent(&sequential, &batched, "sequential vs batched");
}

#[test]
fn early_stop_leaves_the_grid_search_unchanged() {
    // Both axes are floored well into the stressed regime (a 45 %
    // occlusion duty cycle, a 3 m GNSS bias), so most lattice probes fail
    // decisively, and the strict 0.85 bar decides a 6-mission probe as
    // failing on its first failure. The exact early-stop bound cancels the
    // rest of such a probe without changing its pass/fail verdict, so the
    // grid searcher must visit the same points and land on the same
    // failing point. Recorded rates are not compared: an early-stopped
    // probe records the rate of the missions it flew.
    let space = FaultSpace::new(
        "eq-v1-stressed-occlusion-x-gps",
        vec![
            FaultAxis::new(FaultKind::MarkerOcclusion, 0.45, 1.0),
            FaultAxis::new(FaultKind::GpsBias, 0.3, 1.0),
        ],
    );
    let searcher = Searcher::GridRefinement(GridRefinementConfig {
        resolution: 3,
        rounds: 0,
    });
    let variant = SystemVariant::MlsV1;
    let stage = |early_stop: bool| {
        let config = FalsificationConfig {
            repeats: 3,
            failure_threshold: 0.85,
            ..smoke_config(3, ScenarioFamily::Open, early_stop)
        };
        search(
            &config,
            ProbeExecution::Batched,
            2,
            variant,
            &space,
            &searcher,
        )
    };
    let full = stage(false);
    let stopped = stage(true);
    let points = |stage: &SearchStage| {
        stage
            .probes
            .iter()
            .map(|probe| probe.point.clone())
            .collect::<Vec<_>>()
    };
    assert!(!full.probes.is_empty(), "the searcher flew no probes");
    assert_eq!(points(&full), points(&stopped), "probe points diverged");
    assert_eq!(
        full.failing_point, stopped.failing_point,
        "failing points diverged"
    );
    assert!(
        stopped.missions_flown < full.missions_flown,
        "early stop cancelled no mission ({} vs {})",
        stopped.missions_flown,
        full.missions_flown
    );
}
