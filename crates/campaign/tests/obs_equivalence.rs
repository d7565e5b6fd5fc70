//! The non-perturbation contract of `mls-obs`, pinned end to end: a
//! captured campaign and a batched falsification search must produce
//! byte-identical reports and traces with observability fully on versus
//! fully off.
//!
//! The obs global initializes once per process, so everything lives in a
//! single test function that toggles the runtime master switch
//! ([`mls_obs::set_enabled`]) between runs — the same mechanism
//! `perfsuite` uses for its overhead measurement. The on-runs write both
//! sinks (JSONL + exposition) into `target/test-obs/` so the comparison
//! is against live instrumentation, not a silently disabled stub; the
//! test ends by checking the event log actually recorded the stack's
//! spans and events.

use std::path::PathBuf;

use mls_campaign::{
    CampaignRunner, CampaignSpec, FalsificationConfig, FalsificationSearch, FaultAxis, FaultKind,
    FaultPlan, FaultSpace, GridRefinementConfig, ProbeExecution, SearchStage, Searcher,
    TracePolicy,
};
use mls_core::SystemVariant;

/// Stable scratch root under `target/` (uploaded by the CI workflow).
fn scratch_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-obs")
        .join(name)
}

/// The captured campaign both toggles fly: MLS-V1 under a strong GNSS
/// bias (the trace-replay suite's known-failing sweep), so `FailuresOnly`
/// persists traces whose bytes the comparison can pin.
fn captured_spec() -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: "obs-equivalence".to_string(),
        seed: 2025,
        maps: 1,
        scenarios_per_map: 4,
        repeats: 1,
        variants: vec![SystemVariant::MlsV1],
        baseline: false,
        faults: vec![FaultPlan::new(FaultKind::GpsBias, 0.8)],
        capture: TracePolicy::FailuresOnly,
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 150.0;
    spec.executor.max_duration = 180.0;
    spec
}

/// Runs the captured campaign into `dir` and returns the report JSON plus
/// every persisted trace as `(path, bytes)`. Both toggles use the *same*
/// directory, so even the trace paths inside the report JSON must match.
fn run_campaign(dir: &PathBuf) -> (String, Vec<(String, Vec<u8>)>) {
    let report = CampaignRunner::new(2)
        .with_trace_dir(dir)
        .run(&captured_spec())
        .expect("the equivalence campaign runs");
    let json = report.to_json().expect("reports serialise");
    let traces = report
        .traces
        .iter()
        .map(|link| {
            let bytes = std::fs::read(&link.path)
                .unwrap_or_else(|err| panic!("trace {} readable: {err}", link.path));
            (link.path.clone(), bytes)
        })
        .collect();
    (json, traces)
}

/// Runs the batched falsification search stage over a small grid lattice.
fn run_search() -> SearchStage {
    let mut config = FalsificationConfig {
        seed: 3,
        maps: 1,
        scenarios_per_map: 2,
        repeats: 1,
        failure_threshold: 0.75,
        minimizer_passes: 1,
        minimizer_bisections: 1,
        probe_early_stop: true,
        ..FalsificationConfig::default()
    };
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    let space = FaultSpace::new(
        "obs-eq-v1-occlusion-x-gps",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
        ],
    );
    let searcher = Searcher::GridRefinement(GridRefinementConfig {
        resolution: 2,
        rounds: 0,
    });
    FalsificationSearch::new(config, 2)
        .with_probe_execution(ProbeExecution::Batched)
        .search_space(SystemVariant::MlsV1, &space, &searcher)
        .expect("the equivalence search runs")
}

#[test]
fn reports_and_traces_are_byte_identical_with_obs_on_and_off() {
    let obs_dir = scratch_root("artifacts");
    let fresh = mls_obs::init(mls_obs::ObsConfig {
        jsonl: true,
        exposition: true,
        progress: false,
        dir: obs_dir,
    });
    assert!(fresh, "this test owns its process's obs state");
    assert!(mls_obs::enabled(), "both sinks are configured");

    // Campaign with trace capture: obs on, then off, into the same trace
    // directory — the report JSON (including trace paths) and the trace
    // bytes themselves must not change.
    let trace_dir = scratch_root("traces");
    mls_obs::set_enabled(true);
    let (report_on, traces_on) = run_campaign(&trace_dir);
    mls_obs::set_enabled(false);
    let (report_off, traces_off) = run_campaign(&trace_dir);
    assert_eq!(
        report_on, report_off,
        "campaign report JSON must be byte-identical across the obs toggle"
    );
    assert!(
        !traces_on.is_empty(),
        "a heavily biased MLS-V1 campaign must fail somewhere"
    );
    assert_eq!(traces_on.len(), traces_off.len());
    for ((path_on, bytes_on), (path_off, bytes_off)) in traces_on.iter().zip(&traces_off) {
        assert_eq!(path_on, path_off, "trace layout must not depend on obs");
        assert_eq!(
            bytes_on, bytes_off,
            "trace {path_on} must be byte-identical across the obs toggle"
        );
    }

    // Falsification search: probe log, rates and the found failing point
    // must be identical (SearchStage compares all of them).
    mls_obs::set_enabled(true);
    let stage_on = run_search();
    mls_obs::set_enabled(false);
    let stage_off = run_search();
    assert_eq!(
        stage_on, stage_off,
        "search stages must be identical across the obs toggle"
    );

    // The on-runs must have *actually* been observed: flush the sinks and
    // check the event log recorded the stack's instrumentation, top
    // (campaign span) to bottom (mls-core mission_phases events).
    mls_obs::set_enabled(true);
    let artifacts = mls_obs::flush();
    let jsonl = artifacts
        .iter()
        .find(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .expect("the on-runs wrote an event log");
    let log = std::fs::read_to_string(jsonl).expect("event log readable");
    assert!(
        log.lines().next().is_some_and(|l| l.contains("mls-obs-v1")),
        "the event log leads with its schema header"
    );
    for needle in [
        "\"event\":\"span\",\"name\":\"campaign\"",
        "\"event\":\"span\",\"name\":\"executor_batch\"",
        "\"event\":\"mission_phases\"",
        "\"sensors_s\"",
        "\"event\":\"cell_outcomes\"",
    ] {
        assert!(
            log.contains(needle),
            "the obs-on runs must have recorded {needle}"
        );
    }
}
