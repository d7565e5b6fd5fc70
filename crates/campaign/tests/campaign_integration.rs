//! Integration tests for the campaign engine: thread-count-independent
//! determinism and fault-induced degradation.
//!
//! Workloads are deliberately tiny (one map, a handful of scenarios): every
//! assertion is against deterministic, seed-pinned behaviour, not statistics.

use mls_campaign::{CampaignRunner, CampaignSpec, FaultKind, FaultPlan};
use mls_core::SystemVariant;

/// A small spec the determinism tests share: one variant, baseline +
/// detection dropout, four missions per cell, bounded mission duration so a
/// dropout-blinded mission cannot burn the full 300 s default.
fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: "integration".to_string(),
        seed: 90,
        maps: 1,
        scenarios_per_map: 2,
        repeats: 1,
        variants: vec![SystemVariant::MlsV1],
        faults: vec![FaultPlan::new(FaultKind::DetectionDropout, 0.5)],
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 100.0;
    spec.executor.max_duration = 120.0;
    spec
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let spec = small_spec();
    let single = CampaignRunner::new(1).run(&spec).unwrap();
    let sharded = CampaignRunner::new(4).run(&spec).unwrap();
    assert_eq!(
        single.to_json().unwrap(),
        sharded.to_json().unwrap(),
        "the report must not depend on the worker-thread count"
    );
    assert_eq!(single.to_csv(), sharded.to_csv());
}

#[test]
fn report_reruns_identically_for_the_same_seed_and_differs_for_another() {
    let spec = small_spec();
    let first = CampaignRunner::new(2).run(&spec).unwrap();
    let second = CampaignRunner::new(2).run(&spec).unwrap();
    assert_eq!(first.to_json().unwrap(), second.to_json().unwrap());

    let reseeded = CampaignSpec { seed: 91, ..spec };
    let other = CampaignRunner::new(2).run(&reseeded).unwrap();
    assert_ne!(
        first.to_json().unwrap(),
        other.to_json().unwrap(),
        "a different campaign seed must change the missions"
    );
}

#[test]
fn detection_dropout_degrades_v1_but_v3_keeps_its_failsafes() {
    let mut spec = CampaignSpec {
        name: "dropout-degradation".to_string(),
        seed: 2025,
        maps: 1,
        scenarios_per_map: 4,
        repeats: 1,
        variants: vec![SystemVariant::MlsV1, SystemVariant::MlsV3],
        faults: vec![FaultPlan::new(FaultKind::DetectionDropout, 0.95)],
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 100.0;
    spec.executor.max_duration = 120.0;

    let report = CampaignRunner::new(4).run(&spec).unwrap();

    let v1_baseline = report
        .cell(SystemVariant::MlsV1, "desktop-sil", None)
        .unwrap();
    let v1_dropout = report
        .cell(
            SystemVariant::MlsV1,
            "desktop-sil",
            Some(FaultKind::DetectionDropout),
        )
        .unwrap();
    assert!(
        v1_dropout.success_rate < v1_baseline.success_rate,
        "dropping 95% of detection frames must lower the MLS-V1 success rate \
         ({} vs baseline {})",
        v1_dropout.success_rate,
        v1_baseline.success_rate
    );

    // MLS-V3's decision module treats a starved observation stream as marker
    // loss and aborts or retries instead of crashing: the fault must not
    // produce collisions.
    let v3_dropout = report
        .cell(
            SystemVariant::MlsV3,
            "desktop-sil",
            Some(FaultKind::DetectionDropout),
        )
        .unwrap();
    assert_eq!(
        v3_dropout.collision_rate, 0.0,
        "a blinded MLS-V3 must fail safe, not collide"
    );
}

#[test]
fn multi_family_campaign_is_thread_count_independent_and_family_major() {
    use mls_campaign::TracePolicy;
    use mls_sim_world::ScenarioFamily;

    let mut spec = CampaignSpec {
        name: "family-grid".to_string(),
        seed: 41,
        maps: 1,
        scenarios_per_map: 2,
        repeats: 1,
        variants: vec![SystemVariant::MlsV3],
        families: vec![ScenarioFamily::Open, ScenarioFamily::ConstrainedPad],
        capture: TracePolicy::Off,
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 100.0;
    spec.executor.max_duration = 120.0;

    let single = CampaignRunner::new(1).run(&spec).unwrap();
    let sharded = CampaignRunner::new(4).run(&spec).unwrap();
    assert_eq!(
        single.to_json().unwrap(),
        sharded.to_json().unwrap(),
        "a family-grid report must not depend on the worker-thread count"
    );

    // One baseline cell per family, family-major, each flown over its own
    // suite.
    assert_eq!(single.cells.len(), 2);
    assert_eq!(single.cells[0].family, ScenarioFamily::Open);
    assert_eq!(single.cells[1].family, ScenarioFamily::ConstrainedPad);
    assert_eq!(single.missions, 4);

    // The constrained suite is a different world: the runner derives a
    // distinct per-family seed, so the two cells cannot be copies of each
    // other even though they fly the same variant and mission seeds.
    let runner = CampaignRunner::new(1);
    let suites = runner.suites_for(&spec).unwrap();
    assert_eq!(suites.len(), 2);
    assert_ne!(suites[0], suites[1]);
    assert!(suites[1]
        .iter()
        .all(|s| s.family == ScenarioFamily::ConstrainedPad));

    // Feeding the suites back through run_with_shared_suites reproduces
    // run().
    let replayed = runner.run_with_shared_suites(&spec, &suites).unwrap();
    assert_eq!(single.to_json().unwrap(), replayed.to_json().unwrap());

    // Scenario ids restart at 0 per family suite, so refly must reject a
    // suite from the wrong family instead of re-flying the same-id scenario
    // of another world and reporting the byte mismatch as nondeterminism.
    let header = mls_trace::TraceHeader {
        version: mls_trace::TRACE_FORMAT_VERSION,
        campaign: spec.name.clone(),
        seed: spec.mission_seed(0, 0),
        variant: SystemVariant::MlsV3,
        scenario_id: 0,
        scenario_name: suites[1][0].name.clone(),
        family: ScenarioFamily::ConstrainedPad.label().to_string(),
        cell_index: 1,
        repeat: 0,
        config_hash: spec.config_hash().unwrap(),
        tick_decimation: 25,
        map_decimation: 8,
        capacity: 8192,
        dropped_events: 0,
        coordinates: Vec::new(),
    };
    let err = runner.refly(&spec, &suites[0], &header).unwrap_err();
    assert!(
        err.to_string().contains("family"),
        "wrong-family suite must be rejected, got: {err}"
    );
    // The right suite re-flies cleanly.
    assert!(runner.refly(&spec, &suites[1], &header).is_ok());
}
