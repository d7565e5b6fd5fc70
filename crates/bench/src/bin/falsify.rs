//! falsify — multi-dimensional falsification with replayable minimal
//! counterexamples.
//!
//! The paper's core lesson is that landing failures live at the
//! *intersection* of stressors; the scalar fault sweeps of Tables I–III
//! cannot see those intersections. This harness searches two-axis fault
//! spaces for the lowest-severity point that breaks each system generation,
//! shrinks the point onto the failure frontier, and ships it as a flight
//! trace that replays byte-identically — a failure you can re-run, not just
//! a coordinate.
//!
//! Four spaces are configured:
//!
//! * MLS-V1 — marker-occlusion bursts × GNSS bias (the Fig. 5d mechanism
//!   under intermittent blindness), grid-refinement searcher;
//! * MLS-V2 — planner search-budget starvation × wind gusts (the Fig. 5a
//!   mechanism under disturbance), grid-refinement searcher;
//! * MLS-V3 — detection-stream dropout × GNSS bias (the validated descent
//!   loses its marker and trusts a biased solution), CMA-ES searcher;
//! * MLS-V3 over the **constrained-pad scenario family** — marker-occlusion
//!   bursts × wind gusts next to a wall-adjacent pad: the measurably harder
//!   space the Fig. 6 geometry creates, where the strongest generation
//!   breaks under stressors the open benchmark absorbs.
//!
//! The combined report is written as JSON and CSV under `target/falsify/`;
//! counterexample traces land under `traces/falsify-<space>/`. The exit
//! code enforces the contract: every space must produce a counterexample
//! whose trace exists, carries a triage class and replays byte-identically.
//!
//! `MLS_MAPS` / `MLS_SCENARIOS_PER_MAP` / `MLS_REPEATS` / `MLS_SEED` /
//! `MLS_THREADS` rescale the probe campaigns as usual (defaults here are
//! deliberately small: falsification flies hundreds of missions per space).
//! `MLS_FALSIFY_SMOKE=1` searches only the constrained-pad space with a
//! minimal lattice — the few-probe CI smoke that keeps the harder space
//! green on every push.

use std::process::ExitCode;

use mls_bench::{env_override, percent, print_header, HarnessOptions};
use mls_campaign::{
    CmaEsConfig, FalsificationConfig, FalsificationSearch, FaultAxis, FaultKind, FaultSpace,
    GridRefinementConfig, Searcher, SpaceFalsification,
};
use mls_core::SystemVariant;
use mls_sim_world::ScenarioFamily;

/// One falsification target: a system generation, the scenario family and
/// fault space to search over it, and the searcher to use.
struct Target {
    variant: SystemVariant,
    family: ScenarioFamily,
    space: FaultSpace,
    searcher: Searcher,
    /// Probe-suite seed this target needs for a clean fault-free baseline
    /// (`None`: the harness default). An explicit `MLS_SEED` wins.
    seed_override: Option<u64>,
    narrative: &'static str,
}

/// The constrained-pad target: the strongest generation over the hardest
/// geometry. In smoke mode the lattice is minimal (a handful of probes) so
/// CI can fly it on every push.
fn constrained_target(smoke: bool) -> Target {
    Target {
        variant: SystemVariant::MlsV3,
        family: ScenarioFamily::ConstrainedPad,
        space: FaultSpace::new(
            "v3-constrained-occlusion-x-wind",
            vec![
                FaultAxis::full(FaultKind::MarkerOcclusion),
                FaultAxis::full(FaultKind::WindGust),
            ],
        ),
        searcher: Searcher::GridRefinement(GridRefinementConfig {
            resolution: if smoke { 2 } else { 3 },
            rounds: if smoke { 0 } else { 1 },
        }),
        // The constrained suite derives from seed ^ hash("constrained-pad"),
        // so the open default (3) names a different world here; seed 2 is a
        // suite MLS-V3 lands clean fault-free while the all-axes-at-max
        // corner still breaks it.
        seed_override: Some(2),
        narrative: "wall-adjacent pads leave no descent margin: occlusion bursts stall the \
                    validated descent beside the wall exactly when gusts push toward it — \
                    stressor levels the open benchmark absorbs",
    }
}

fn targets() -> Vec<Target> {
    vec![
        Target {
            variant: SystemVariant::MlsV1,
            family: ScenarioFamily::Open,
            // The GNSS axis is floored at intensity 0.15 (a 1.5 m bias):
            // below that the bias is physically negligible, and the floor
            // guarantees every counterexample carries the Fig. 5d signature.
            space: FaultSpace::new(
                "v1-occlusion-x-gps-bias",
                vec![
                    FaultAxis::full(FaultKind::MarkerOcclusion),
                    FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
                ],
            ),
            searcher: Searcher::GridRefinement(GridRefinementConfig {
                resolution: 3,
                rounds: 1,
            }),
            seed_override: None,
            narrative: "occlusion bursts while the GNSS solution is biased: mapless MLS-V1 \
                        descends on a wrong, intermittently invisible target",
        },
        Target {
            variant: SystemVariant::MlsV2,
            family: ScenarioFamily::Open,
            space: FaultSpace::new(
                "v2-starvation-x-wind",
                vec![
                    FaultAxis::new(FaultKind::PlannerStarvation, 0.5, 1.0),
                    FaultAxis::full(FaultKind::WindGust),
                ],
            ),
            searcher: Searcher::GridRefinement(GridRefinementConfig {
                resolution: 3,
                rounds: 1,
            }),
            seed_override: None,
            narrative: "a starved A* pool falls back to unchecked straight lines exactly when \
                        gusts push the airframe off them",
        },
        Target {
            variant: SystemVariant::MlsV3,
            family: ScenarioFamily::Open,
            // The GNSS axis is floored as in the V1 space, so every
            // counterexample carries the drift signature.
            space: FaultSpace::new(
                "v3-dropout-x-gps-bias",
                vec![
                    FaultAxis::full(FaultKind::DetectionDropout),
                    FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
                ],
            ),
            searcher: Searcher::CmaEs(CmaEsConfig {
                population: 6,
                generations: 4,
                initial_step: 0.3,
                seed: 7,
            }),
            seed_override: None,
            narrative: "detection-stream dropouts blind the validated descent exactly while the \
                        GNSS solution it falls back on is biased",
        },
    ]
}

/// Prints one result and returns whether it satisfies the contract:
/// counterexample found, trace persisted with a triage class, replay
/// byte-identical.
fn assess(result: &SpaceFalsification) -> bool {
    println!(
        "  baseline success {}, {} probes",
        percent(result.baseline_success_rate),
        result.probes.len(),
    );
    let Some(ce) = &result.counterexample else {
        println!("  NOT falsified: no point of the space broke the system");
        return false;
    };
    println!(
        "  minimal counterexample: {} (success rate {})",
        mls_campaign::fault_point_label(&ce.plans),
        percent(ce.success_rate),
    );
    let Some(link) = &ce.trace else {
        println!("  NO trace captured for the counterexample");
        return false;
    };
    println!(
        "  trace: {} (result {:?}, triage {})",
        link.path,
        link.result,
        link.triage.as_deref().unwrap_or("unclassified"),
    );
    match ce.replay_identical {
        Some(true) => println!("  replay: byte-identical"),
        other => {
            println!("  replay FAILED to verify: {other:?}");
            return false;
        }
    }
    if link.triage.is_none() {
        println!("  trace carries NO triage class");
        return false;
    }
    true
}

fn main() -> ExitCode {
    print_header("Falsification — minimal multi-axis failures as replayable traces");
    let options = HarnessOptions::from_env();
    // Falsification flies a whole campaign per probe and dozens of probes
    // per space, so the default probe suite is tiny (1 map × 2 scenarios);
    // an explicitly set variable wins over the smallness default, because
    // the harness-wide defaults (10×10) would make every probe a Table I.
    // "Set" follows the harness-wide rule: `0` or garbage means unset.
    let env_set = |name: &str| env_override(|n| std::env::var(n).ok(), name).is_some();
    let maps = if env_set("MLS_MAPS") { options.maps } else { 1 };
    let scenarios_per_map = if env_set("MLS_SCENARIOS_PER_MAP") {
        options.scenarios_per_map
    } else {
        2
    };
    // The default benchmark seed generates a 1×2 suite whose baselines are
    // marginal; seed 3 yields a suite every generation lands clean, which is
    // what a falsification baseline needs. An explicit MLS_SEED still wins,
    // even when it names the default value.
    let seed = if env_set("MLS_SEED") { options.seed } else { 3 };
    let mut config = FalsificationConfig {
        seed,
        maps,
        scenarios_per_map,
        repeats: options.repeats,
        // With two missions per probe, a probe fails once either mission
        // fails — the single-trajectory falsification standard of the
        // literature, and every failing probe leaves a replayable trace.
        failure_threshold: 0.75,
        minimizer_passes: 1,
        minimizer_bisections: 3,
        ..FalsificationConfig::default()
    };
    // Bounded missions keep timed-out probes from dominating the search.
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    let missions_per_probe = maps * scenarios_per_map * options.repeats;
    println!(
        "probe suite: {} missions per probe, threshold {}, {} threads",
        missions_per_probe, config.failure_threshold, options.threads,
    );

    // Smoke mode: only the constrained-pad space with a minimal lattice, the
    // few-probe configuration the CI `falsify-smoke` job flies on every push.
    let smoke = std::env::var("MLS_FALSIFY_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let selected = if smoke {
        println!("smoke mode: constrained-pad space only, minimal lattice");
        vec![constrained_target(true)]
    } else {
        let mut all = targets();
        all.push(constrained_target(false));
        all
    };

    let mut results = Vec::new();
    let mut all_good = true;
    for target in selected {
        println!(
            "\n{} over '{}' [{}, {} family]",
            target.variant.label(),
            target.space.name,
            target.searcher.label(),
            target.family.label(),
        );
        println!("  {}", target.narrative);
        // Each target flies its own scenario family (and, unless MLS_SEED
        // is set, its own baseline-clean probe seed); the search object is
        // otherwise identical.
        let target_seed = if env_set("MLS_SEED") {
            seed
        } else {
            target.seed_override.unwrap_or(seed)
        };
        let search = FalsificationSearch::new(
            FalsificationConfig {
                family: target.family,
                seed: target_seed,
                ..config.clone()
            },
            options.threads,
        );
        match search.falsify(target.variant, &target.space, &target.searcher) {
            Ok(result) => {
                all_good &= assess(&result);
                results.push(result);
            }
            Err(err) => {
                println!("  search failed: {err}");
                all_good = false;
            }
        }
    }

    let report = mls_campaign::FalsificationReport { results };
    println!();
    match report.to_json() {
        Ok(json) => {
            let dir = std::path::Path::new("target/falsify");
            let json_path = dir.join("report.json");
            let csv_path = dir.join("report.csv");
            let wrote = mls_obs::atomic_write(&json_path, json.as_bytes())
                .and_then(|()| mls_obs::atomic_write(&csv_path, report.to_csv().as_bytes()));
            match wrote {
                Ok(()) => println!("report: {} and {}", json_path.display(), csv_path.display()),
                Err(err) => {
                    println!("cannot write the report: {err}");
                    all_good = false;
                }
            }
        }
        Err(err) => {
            println!("cannot serialise the report: {err}");
            all_good = false;
        }
    }

    mls_bench::finish_obs();

    if all_good {
        println!("All spaces falsified; every counterexample is a triaged, replayable trace.");
        ExitCode::SUCCESS
    } else {
        println!("At least one space failed to falsify, capture, triage or replay.");
        ExitCode::FAILURE
    }
}
