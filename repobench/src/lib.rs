//! The repository benchmark: Table I throughput (`sil-open`), planner
//! stress (`planner-constrained`) and time to a replay-verified
//! counterexample (`falsify-v1`), each measured end to end with tracing
//! off and, in a separate traced run, layer by layer through the mission
//! executor's public seams. See `README.md` beside this crate.

pub mod layers;
pub mod probe;
pub mod report;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;

use mls_campaign::{CampaignRunner, MissionExecutor as Pool};

use crate::layers::{kernel_replay, layer_report, LayerReport};
use crate::workloads::{
    falsify_config, falsify_space, grid_spec, probe_spec, setup, timed_falsify, timed_grid,
    traced_falsify, traced_grid, RunOptions, Tally, Timed, Traced, Workload, WORLD_SEED,
};

/// Every end-to-end metric, with its unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("missions_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The outcome of one benchmark run.
pub struct RunResult {
    /// End-to-end metrics (tracing off), every [`END_TO_END`] name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics, when the traced run was made.
    pub layers: Option<LayerReport>,
    /// Failed and attempted operations.
    pub tally: Tally,
    /// The untraced section's rounds.
    pub timed: Timed,
    /// The traced run, when made.
    pub traced: Option<Traced>,
}

/// Runs one workload: set-up, the untraced timed section and, when asked,
/// the traced run with its kernel replay.
///
/// # Errors
///
/// Returns an error when set-up fails (the program could not generate
/// the workload's scenario suites).
pub fn run(options: &RunOptions) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let (spec, setup) = match options.workload {
        Workload::FalsifyV1 => {
            let config = falsify_config();
            let spec = probe_spec(&config, &falsify_space(options.seed), &[]);
            let setup = setup(&spec, spec.suite_seed(config.family), options.threads)?;
            // The search runs on the process-wide suite cache and pool:
            // warm both before the timed section.
            CampaignRunner::new(options.threads)
                .generate_scenarios(&spec)
                .map_err(|e| e.to_string())?;
            Pool::global().execute(options.threads, options.threads, |_| ());
            (spec, setup)
        }
        workload => {
            let spec = grid_spec(workload);
            let setup = setup(&spec, WORLD_SEED, options.threads)?;
            (spec, setup)
        }
    };

    let timed = match options.workload {
        Workload::FalsifyV1 => timed_falsify(options, &mut tally),
        _ => timed_grid(&spec, &setup, options, &mut tally),
    };

    let mut end_to_end = BTreeMap::new();
    let wall_s = timed.wall_s();
    end_to_end.insert("wall_s", wall_s);
    end_to_end.insert(
        "missions_per_s",
        if wall_s > 0.0 {
            timed.missions as f64 / wall_s
        } else {
            0.0
        },
    );
    end_to_end.insert("setup_s", setup.setup_s);
    end_to_end.insert("peak_rss_mb", peak_rss_mb());

    let (layers, traced) = if options.trace {
        let traced = match (options.workload, &timed.falsification) {
            (Workload::FalsifyV1, Some(result)) => traced_falsify(options, result, &mut tally),
            (Workload::FalsifyV1, None) => Traced::default(),
            _ => traced_grid(&spec, &setup, options, timed.report.as_ref(), &mut tally),
        };
        let kernels = kernel_replay(&traced.missions);
        let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
        let report = layer_report(
            &setup,
            &timed,
            &traced,
            &kernels,
            options.threads,
            failed_ratio,
        );
        (Some(report), Some(traced))
    } else {
        (None, None)
    };

    Ok(RunResult {
        end_to_end,
        layers,
        tally,
        timed,
        traced,
    })
}

/// Peak resident memory of this process, MB (`VmHWM`); 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
