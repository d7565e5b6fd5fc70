//! The traced run's work counters are exact: flying the same job list
//! again, or on a different number of pool workers, reproduces every
//! mission's ticks, frames, observations, plan iterations, points and
//! result.

use mls_core::SystemVariant;
use mls_repobench::probe::Counts;
use mls_repobench::workloads::{
    grid_spec, setup, traced_grid, RunOptions, Tally, Workload, WORLD_SEED,
};

fn counters(threads: usize) -> Vec<(u32, Counts, Option<mls_core::MissionResult>)> {
    // One open scenario, one classical and one learned/octree system: every
    // decorator callback fires, in a few seconds of flight.
    let mut spec = grid_spec(Workload::SilOpen);
    spec.scenarios_per_map = 1;
    spec.variants = vec![SystemVariant::MlsV1, SystemVariant::MlsV3];
    let setup = setup(&spec, WORLD_SEED, threads).expect("suite generation");
    let options = RunOptions {
        workload: Workload::SilOpen,
        seed: 11,
        seconds: 0.0,
        trace: true,
        threads,
        work_dir: std::env::temp_dir(),
    };
    let mut tally = Tally::default();
    let traced = traced_grid(&spec, &setup, &options, None, &mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    traced
        .missions
        .iter()
        .map(|t| (t.mission, t.counts, t.result))
        .collect()
}

#[test]
fn work_counters_repeat_exactly_across_runs_and_thread_counts() {
    let first = counters(2);
    assert_eq!(first.len(), 2);
    assert!(first.iter().all(|(_, c, _)| c.ticks > 0 && c.frames > 0));
    assert!(first[1].1.points > 0, "the octree system maps");
    assert_eq!(counters(2), first, "a second run repeats every counter");
    assert_eq!(counters(1), first, "one worker repeats every counter");
}
