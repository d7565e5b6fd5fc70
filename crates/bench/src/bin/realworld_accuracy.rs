//! §V-C — landing accuracy across SIL, HIL and real-world conditions.
//!
//! The paper reports that the real-world drone "was able to land within 60 cm
//! of the marker on average, higher than the 25 cm observed in SIL and HIL
//! tests, primarily due to GPS inaccuracies and wind during the final
//! descent". This harness flies MLS-V3 over the same scenarios three ways,
//! each as a [`CampaignSpec`]-backed campaign with a persisted, replayable
//! report:
//!
//! * **SIL** — desktop compute, scenario weather as generated;
//! * **HIL** — Jetson Nano compute, same weather (both via
//!   [`CampaignRunner::run`], so both regenerate from the spec alone);
//! * **Real-world** — Jetson Nano with the live camera pipeline, plus field
//!   conditions: degraded GNSS geometry and gusty wind (the §V-C flights).
//!   The field suite is a documented transform of the generated suite, flown
//!   through [`CampaignRunner::run_with_shared_suites`].

use std::sync::Arc;

use mls_bench::{percent, persist_report, print_comparison, print_header, HarnessOptions};
use mls_campaign::{CampaignReport, CampaignRunner, CampaignSpec};
use mls_compute::ComputeProfile;
use mls_core::SystemVariant;
use mls_geom::Vec3;
use mls_sim_world::Scenario;

/// Applies the real-world field conditions of §V-C to a scenario: gusty wind
/// and a GNSS constellation degraded enough to produce the drift of Fig. 5d.
fn to_field_conditions(scenario: &Scenario) -> Scenario {
    let mut field = scenario.clone();
    field.weather.label = format!("{}-field", field.weather.label);
    field.weather.gps_degradation = field.weather.gps_degradation.max(0.6);
    field.weather.wind_mean = Vec3::new(3.5, 1.5, 0.0);
    field.weather.wind_gust = field.weather.wind_gust.max(2.5);
    field
}

fn main() {
    print_header("§V-C — Landing accuracy: SIL vs HIL vs real-world conditions");
    let mut options = HarnessOptions::from_env();
    options.maps = options.maps.min(4);
    options.scenarios_per_map = options.scenarios_per_map.min(5);
    let runner = CampaignRunner::new(options.threads);

    let spec_for = |name: &str, profile: ComputeProfile| CampaignSpec {
        name: name.to_string(),
        seed: options.seed,
        maps: options.maps,
        scenarios_per_map: options.scenarios_per_map,
        repeats: options.repeats,
        variants: vec![SystemVariant::MlsV3],
        profiles: vec![profile],
        ..CampaignSpec::default()
    };

    let sil_spec = spec_for("realworld-accuracy-sil", ComputeProfile::desktop_sil());
    let hil_spec = spec_for("realworld-accuracy-hil", ComputeProfile::jetson_nano_maxn());
    let field_spec = spec_for(
        "realworld-accuracy-field",
        ComputeProfile::jetson_nano_realworld(),
    );
    // The field campaign flies the same suite under §V-C conditions; the
    // transform is deterministic, so (spec, transform) regenerates it.
    let scenarios = runner
        .generate_scenarios(&field_spec)
        .expect("the §V-C campaign specification is valid");
    let field_suite: Arc<Vec<Scenario>> =
        Arc::new(scenarios.iter().map(to_field_conditions).collect());

    let reports: Vec<(&str, CampaignReport)> = vec![
        (
            "SIL (desktop)",
            runner.run(&sil_spec).expect("the SIL campaign runs"),
        ),
        (
            "HIL (Jetson Nano)",
            runner.run(&hil_spec).expect("the HIL campaign runs"),
        ),
        (
            "Real-world (Jetson + field weather)",
            runner
                .run_with_shared_suites(&field_spec, &[field_suite])
                .expect("the field campaign runs"),
        ),
    ];

    println!(
        "{:<38} {:>14} {:>12} {:>10} {:>14}",
        "Campaign", "mean error", "landed runs", "success", "p95 GPS drift"
    );
    let mut means = Vec::new();
    for (label, report) in &reports {
        let cell = &report.cells[0];
        println!(
            "{:<38} {:>11.2} m {:>12} {:>10} {:>11.2} m",
            label,
            cell.landing_error.mean.unwrap_or(f64::NAN),
            cell.landing_error.count,
            percent(cell.success_rate),
            cell.gps_drift.p95.unwrap_or(f64::NAN),
        );
        means.push(cell.landing_error.mean.unwrap_or(f64::NAN));
        persist_report(report);
    }

    println!();
    print_comparison(
        "SIL/HIL mean landing deviation",
        "~0.25 m",
        &format!("{:.2} m", means[0]),
    );
    print_comparison(
        "Real-world mean landing deviation",
        "~0.60 m",
        &format!("{:.2} m", means[2]),
    );
    println!();
    println!(
        "Expected shape: real-world deviation exceeds SIL/HIL deviation. Measured: {}",
        if means[2] > means[0] {
            "reproduced"
        } else {
            "check the table above"
        }
    );
    mls_bench::finish_obs();
}
