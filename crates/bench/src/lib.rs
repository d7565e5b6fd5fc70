//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper's
//! evaluation. They share the same scaffolding: generate the benchmark
//! scenario suite, fly a set of system variants over it on a chosen compute
//! profile (in parallel across OS threads), aggregate the outcomes, and print
//! a plain-text table next to the values the paper reports.
//!
//! Mission sharding is delegated to the `mls-campaign` engine's persistent
//! work-stealing pool ([`mls_campaign::MissionExecutor`]), whose worker
//! threads are spawned once per process and shared across every batch; the
//! campaign-grid binaries (`table1_sil`, `table2_detection`, `table3_hil`,
//! `fig6_inflation`) go further and run entirely on
//! [`mls_campaign::CampaignRunner`], `fig5_failure_cases` adds the
//! `mls-trace` flight recorder on top (capture → triage → byte-exact replay
//! of the paper's four failure narratives), `falsify` runs the
//! multi-dimensional falsification engine end to end (search three two-axis
//! fault spaces, minimize each counterexample onto the failure frontier,
//! and ship it as a triaged, replay-verified trace), and `perfsuite` times
//! the canonical workloads and writes the `BENCH_perf.json` trajectory.
//!
//! The workload size is controlled by environment variables so the same
//! binaries serve both quick smoke runs and the full reproduction:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MLS_MAPS` | number of benchmark maps | 10 |
//! | `MLS_SCENARIOS_PER_MAP` | scenarios per map | 10 |
//! | `MLS_REPEATS` | repetitions per scenario | 1 (paper: 3) |
//! | `MLS_THREADS` | worker threads (capped at 512) | available parallelism |
//! | `MLS_SEED` | benchmark seed | 2025 |
//! | `MLS_QUICK` | set to `1` for a 3×4 smoke benchmark | unset |
//!
//! A value of `0` (or one that does not parse) for any of these variables
//! means "use the default", consistently across variables and binaries
//! ([`env_override`] is the one rule they all apply).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confusion;

pub use confusion::{expected_class, ClassScore, MatrixRow, TriageMatrix};

use mls_compute::{ComputeModel, ComputeProfile};
use mls_core::{
    BenchmarkSummary, ExecutorConfig, LandingConfig, MissionExecutor, MissionOutcome, SystemVariant,
};
use mls_sim_world::{Scenario, ScenarioConfig, ScenarioGenerator};
use serde::Serialize;

/// Upper bound on the worker-thread count accepted from `MLS_THREADS`; a
/// typo like `MLS_THREADS=10000` would otherwise ask the OS for ten thousand
/// stacks.
pub const MAX_THREADS: usize = 512;

/// Workload sizing for a harness run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessOptions {
    /// Number of benchmark maps.
    pub maps: usize,
    /// Scenarios generated per map.
    pub scenarios_per_map: usize,
    /// Repetitions of every scenario (the paper uses 3).
    pub repeats: usize,
    /// Worker threads used to fly missions in parallel.
    pub threads: usize,
    /// Benchmark seed.
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            maps: 10,
            scenarios_per_map: 10,
            repeats: 1,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 2025,
        }
    }
}

impl HarnessOptions {
    /// A small smoke-test workload (3 maps × 4 scenarios).
    pub fn quick() -> Self {
        Self {
            maps: 3,
            scenarios_per_map: 4,
            repeats: 1,
            ..Self::default()
        }
    }

    /// Reads the workload size from the `MLS_*` environment variables.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Reads the workload size through an arbitrary variable lookup (the
    /// seam the unit tests use; [`HarnessOptions::from_env`] passes
    /// `std::env::var`).
    ///
    /// Each variable goes through [`env_override`], so unset, unparsable
    /// and `0` values all mean "keep the default"; the thread count is
    /// clamped to [`MAX_THREADS`].
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let mut options = if lookup("MLS_QUICK").map(|v| v == "1").unwrap_or(false) {
            Self::quick()
        } else {
            Self::default()
        };
        let read = |name: &str| env_override(&lookup, name).map(|v| v as usize);
        if let Some(v) = read("MLS_MAPS") {
            options.maps = v;
        }
        if let Some(v) = read("MLS_SCENARIOS_PER_MAP") {
            options.scenarios_per_map = v;
        }
        if let Some(v) = read("MLS_REPEATS") {
            options.repeats = v;
        }
        if let Some(v) = read("MLS_THREADS") {
            options.threads = v.min(MAX_THREADS);
        }
        if let Some(v) = env_override(&lookup, "MLS_SEED") {
            options.seed = v;
        }
        options
    }

    /// Total missions flown per system variant.
    pub fn missions_per_variant(&self) -> usize {
        self.maps * self.scenarios_per_map * self.repeats
    }
}

/// The value an `MLS_*` variable overrides its default with: a positive
/// integer, surrounding whitespace tolerated. Unset, unparsable and `0`
/// values all return `None` ("use the default"), so a disabled knob never
/// silently becomes 0 or 1. [`HarnessOptions::from_lookup`] and the
/// binaries that pick their own defaults (`falsify`, `perfsuite`) share
/// this rule, so they agree on whether a variable is set.
pub fn env_override(lookup: impl Fn(&str) -> Option<String>, name: &str) -> Option<u64> {
    lookup(name)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&v| v > 0)
}

/// Generates the benchmark scenario suite for a set of options.
///
/// # Panics
///
/// Panics when the scenario generator rejects the options (zero maps), which
/// [`HarnessOptions`] prevents.
pub fn generate_scenarios(options: &HarnessOptions) -> Vec<Scenario> {
    let config = ScenarioConfig {
        maps: options.maps,
        scenarios_per_map: options.scenarios_per_map,
        ..ScenarioConfig::default()
    };
    ScenarioGenerator::new(config)
        .generate_benchmark(options.seed)
        .expect("benchmark scenario generation cannot fail for validated options")
}

/// Flies one system variant over every scenario (times `repeats`) on the
/// campaign engine's persistent work-stealing mission pool
/// ([`mls_campaign::MissionExecutor::global`]), so repeated harness calls
/// (one per variant and profile) reuse the same worker threads.
///
/// Outcomes are returned in job order (scenario-major within each repeat)
/// regardless of how the pool schedules them; mission seeds are pure
/// functions of (benchmark seed, scenario id, repeat), so results are
/// independent of the thread count.
pub fn run_missions(
    scenarios: &[Scenario],
    variant: SystemVariant,
    profile: &ComputeProfile,
    landing: &LandingConfig,
    executor: &ExecutorConfig,
    options: &HarnessOptions,
) -> Vec<MissionOutcome> {
    let mut jobs: Vec<(usize, u64)> = Vec::new();
    for repeat in 0..options.repeats {
        for (index, scenario) in scenarios.iter().enumerate() {
            let seed = options
                .seed
                .wrapping_mul(31)
                .wrapping_add(scenario.id as u64)
                .wrapping_add((repeat as u64) << 24);
            jobs.push((index, seed));
        }
    }

    // The persistent pool's job closures outlive this call's borrows, so
    // the per-call context is moved into shared ownership once.
    let context = std::sync::Arc::new((
        scenarios.to_vec(),
        profile.clone(),
        landing.clone(),
        executor.clone(),
        jobs,
    ));
    let count = context.4.len();
    mls_campaign::MissionExecutor::global().execute(count, options.threads, move |index| {
        let (scenarios, profile, landing, executor, jobs) = &*context;
        let (scenario_index, seed) = jobs[index];
        let compute =
            ComputeModel::new(profile.clone()).expect("benchmark compute profiles are valid");
        MissionExecutor::for_variant(
            &scenarios[scenario_index],
            variant,
            landing.clone(),
            compute,
            executor.clone(),
            seed,
        )
        .expect("benchmark landing configuration is valid")
        .run()
    })
}

/// Runs a variant and aggregates it into a summary in one call.
pub fn run_and_summarise(
    scenarios: &[Scenario],
    variant: SystemVariant,
    profile: &ComputeProfile,
    landing: &LandingConfig,
    executor: &ExecutorConfig,
    options: &HarnessOptions,
) -> (BenchmarkSummary, Vec<MissionOutcome>) {
    let outcomes = run_missions(scenarios, variant, profile, landing, executor, options);
    (
        BenchmarkSummary::from_outcomes(variant, &outcomes),
        outcomes,
    )
}

/// Host metadata stamped into persisted measurement reports
/// (`BENCH_perf.json`), so numbers stay attributable to the machine,
/// build profile and commit that produced them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HostMeta {
    /// Logical cores available to the process.
    pub cores: usize,
    /// Cargo build profile the binary was compiled under (`release`,
    /// `debug`, ...), resolved at build time.
    pub profile: String,
    /// Short git revision of the checkout the binary was built from
    /// (`unknown` when the build ran outside a git checkout).
    pub git_rev: String,
}

impl HostMeta {
    /// Captures the metadata of the running host and binary.
    pub fn capture() -> Self {
        Self {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            profile: env!("MLS_BUILD_PROFILE").to_string(),
            git_rev: env!("MLS_GIT_REV").to_string(),
        }
    }
}

/// Flushes the observability sinks at the end of a bench run and prints
/// where the artifacts landed. Every bench binary calls this last; it is
/// silent (and free) when `MLS_OBS` is off.
pub fn finish_obs() {
    for path in mls_obs::flush() {
        println!("  [obs: {}]", path.display());
    }
}

/// Persists a campaign report as JSON + CSV under `target/reports/`, keyed
/// by the report (= spec) name, and prints where it landed. Every bench
/// binary calls this for each campaign it flies, so every table and figure
/// is backed by a replayable `CampaignSpec` artifact.
///
/// Write failures are reported but non-fatal: the printed tables remain
/// useful on a read-only checkout.
pub fn persist_report(report: &mls_campaign::CampaignReport) {
    let dir = std::path::Path::new("target/reports");
    let written = report
        .to_json()
        .map_err(|e| e.to_string())
        .and_then(|json| {
            mls_obs::atomic_write(&dir.join(format!("{}.json", report.name)), json.as_bytes())
                .map_err(|e| e.to_string())
        })
        .and_then(|()| {
            mls_obs::atomic_write(
                &dir.join(format!("{}.csv", report.name)),
                report.to_csv().as_bytes(),
            )
            .map_err(|e| e.to_string())
        });
    match written {
        Ok(()) => println!(
            "  [report: target/reports/{}.json (+ .csv), replayable campaign artifact]",
            report.name
        ),
        Err(err) => println!("  [report {} could not be persisted: {err}]", report.name),
    }
}

/// Prints a boxed section header.
pub fn print_header(title: &str) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Formats a fraction as a percentage with two decimals.
pub fn percent(value: f64) -> String {
    format!("{:.2}%", value * 100.0)
}

/// Prints the paper-reported value next to the measured one.
pub fn print_comparison(label: &str, paper: &str, measured: &str) {
    println!("  {label:<42} paper: {paper:>10}   measured: {measured:>10}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_options_are_smaller_than_default() {
        let quick = HarnessOptions::quick();
        let full = HarnessOptions::default();
        assert!(quick.missions_per_variant() < full.missions_per_variant());
        assert_eq!(full.missions_per_variant(), 100);
    }

    #[test]
    fn scenario_generation_matches_options() {
        let options = HarnessOptions {
            maps: 2,
            scenarios_per_map: 3,
            ..HarnessOptions::quick()
        };
        let scenarios = generate_scenarios(&options);
        assert_eq!(scenarios.len(), 6);
    }

    #[test]
    fn host_meta_is_stamped_at_build_time() {
        let meta = HostMeta::capture();
        assert!(meta.cores >= 1);
        assert!(!meta.profile.is_empty(), "build.rs must stamp the profile");
        assert!(!meta.git_rev.is_empty(), "build.rs must stamp the revision");
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.8432), "84.32%");
        assert_eq!(percent(0.0), "0.00%");
    }

    fn lookup_from<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(key, _)| *key == name)
                .map(|(_, value)| (*value).to_string())
        }
    }

    #[test]
    fn from_lookup_with_nothing_set_is_the_default() {
        let options = HarnessOptions::from_lookup(lookup_from(&[]));
        assert_eq!(options, HarnessOptions::default());
    }

    #[test]
    fn from_lookup_reads_every_variable() {
        let options = HarnessOptions::from_lookup(lookup_from(&[
            ("MLS_MAPS", "4"),
            ("MLS_SCENARIOS_PER_MAP", "5"),
            ("MLS_REPEATS", "2"),
            ("MLS_THREADS", "3"),
            ("MLS_SEED", "99"),
        ]));
        assert_eq!(options.maps, 4);
        assert_eq!(options.scenarios_per_map, 5);
        assert_eq!(options.repeats, 2);
        assert_eq!(options.threads, 3);
        assert_eq!(options.seed, 99);
    }

    #[test]
    fn zero_means_default_for_every_sizing_variable() {
        let defaults = HarnessOptions::default();
        let options = HarnessOptions::from_lookup(lookup_from(&[
            ("MLS_MAPS", "0"),
            ("MLS_SCENARIOS_PER_MAP", "0"),
            ("MLS_REPEATS", "0"),
            ("MLS_THREADS", "0"),
        ]));
        assert_eq!(options, defaults);
    }

    #[test]
    fn garbage_values_fall_back_to_the_default() {
        let defaults = HarnessOptions::default();
        let options = HarnessOptions::from_lookup(lookup_from(&[
            ("MLS_MAPS", "many"),
            ("MLS_THREADS", "-3"),
            ("MLS_SEED", "12.5"),
        ]));
        assert_eq!(options, defaults);
    }

    #[test]
    fn overrides_accept_only_positive_integers() {
        for (name, value, expected) in [
            ("MLS_MAPS", "0", None),
            ("MLS_MAPS", "x", None),
            ("MLS_MAPS", "5", Some(5)),
            ("MLS_SEED", "abc", None),
            ("MLS_SEED", "0", None),
            ("MLS_SEED", "7", Some(7)),
        ] {
            let pairs = [(name, value)];
            assert_eq!(
                env_override(lookup_from(&pairs), name),
                expected,
                "{name}={value}"
            );
            // The shared options apply the same rule.
            let options = HarnessOptions::from_lookup(lookup_from(&pairs));
            let defaults = HarnessOptions::default();
            let read = match name {
                "MLS_MAPS" => (options.maps as u64, defaults.maps as u64),
                _ => (options.seed, defaults.seed),
            };
            assert_eq!(read.0, expected.unwrap_or(read.1), "{name}={value}");
        }
        assert_eq!(env_override(lookup_from(&[]), "MLS_MAPS"), None);
    }

    #[test]
    fn thread_count_is_clamped_and_whitespace_tolerated() {
        let options = HarnessOptions::from_lookup(lookup_from(&[
            ("MLS_THREADS", "1000000"),
            ("MLS_MAPS", " 7 "),
        ]));
        assert_eq!(options.threads, MAX_THREADS);
        assert_eq!(options.maps, 7);
    }

    #[test]
    fn quick_flag_composes_with_overrides() {
        let options =
            HarnessOptions::from_lookup(lookup_from(&[("MLS_QUICK", "1"), ("MLS_REPEATS", "2")]));
        assert_eq!(options.maps, HarnessOptions::quick().maps);
        assert_eq!(options.repeats, 2);
        // MLS_QUICK values other than "1" are ignored.
        let options = HarnessOptions::from_lookup(lookup_from(&[("MLS_QUICK", "yes")]));
        assert_eq!(options.maps, HarnessOptions::default().maps);
    }

    #[test]
    fn missions_run_in_parallel_and_preserve_order() {
        let options = HarnessOptions {
            maps: 1,
            scenarios_per_map: 2,
            repeats: 1,
            threads: 2,
            seed: 3,
        };
        let scenarios = generate_scenarios(&options);
        let outcomes = run_missions(
            &scenarios,
            SystemVariant::MlsV1,
            &ComputeProfile::desktop_sil(),
            &LandingConfig::default(),
            &ExecutorConfig::default(),
            &options,
        );
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].scenario_id, scenarios[0].id);
        assert_eq!(outcomes[1].scenario_id, scenarios[1].id);
    }
}
