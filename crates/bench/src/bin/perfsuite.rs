//! perfsuite — the performance-baseline harness behind `BENCH_perf.json`.
//!
//! Every figure and every falsification counterexample in this workspace is
//! bought with wall-clock: the number of fault-injected missions flown per
//! core-hour *is* the methodology's throughput. This binary times the
//! canonical workloads and persists the measurements as `BENCH_perf.json`
//! at the repository root — the seed of the perf trajectory future PRs
//! extend and regress against.
//!
//! Workloads:
//!
//! * **campaign-grid** — a fixed baseline campaign grid on the persistent
//!   executor (missions per second).
//! * **falsify-grid** — the smoke falsify-space workload (MLS-V1,
//!   occlusion × GNSS bias, grid-refinement searcher), timed twice: the
//!   *sequential searcher path* (probes evaluated one campaign at a time,
//!   every mission flown — the pre-batching behaviour) against the
//!   *batched* path (whole generations fanned out over the executor with
//!   early-stopped probe schedules). The recorded `speedup` is the
//!   headline number; the probe sequences and the found failing point are
//!   checked identical.
//! * **falsify-cma** — one falsify space on the CMA-ES searcher, batched
//!   vs sequential under identical early-stop flags, probe logs checked
//!   byte-identical (this isolates the pure batching transport; its win is
//!   parallel-hardware dependent).
//! * **replay-throughput** — capture one failing trace, then time repeated
//!   byte-exact replay verifications (replays per second).
//!
//! * **obs-overhead** — the campaign-grid and falsify-cma workloads timed
//!   with the `mls-obs` sinks off and on inside one process (the runtime
//!   master switch). Records the relative overhead — budgeted at < 2 % —
//!   and *enforces* that reports and probe logs are identical across the
//!   toggle (the non-perturbation contract).
//! * **journal-overhead** — the campaign-grid workload unjournaled vs
//!   with the write-ahead result journal attached (one fsync'd record
//!   per mission). Records the relative overhead — budgeted at < 2 % —
//!   and *enforces* that the reports are byte-identical (journaling must
//!   never perturb results).
//!
//! `MLS_PERF_SMOKE=1` shrinks every workload to a CI-sized smoke run
//! (same measurements, same JSON shape, `"mode": "smoke"`). `MLS_THREADS`
//! and `MLS_SEED` are honoured as usual.

use std::process::ExitCode;
use std::time::Instant;

use mls_bench::{env_override, finish_obs, print_header, HarnessOptions, HostMeta};
use mls_campaign::{
    CampaignRunner, CampaignSpec, CmaEsConfig, FalsificationConfig, FalsificationSearch, FaultAxis,
    FaultKind, FaultPlan, FaultSpace, GridRefinementConfig, ProbeExecution, SearchStage, Searcher,
    TracePolicy,
};
use mls_core::SystemVariant;
use serde::Serialize;

/// One timed falsify-space comparison.
#[derive(Debug, Serialize)]
struct FalsifyMeasurement {
    name: String,
    searcher: String,
    variant: String,
    /// Wall-clock of the sequential searcher path, seconds.
    sequential_wall_s: f64,
    /// Missions the sequential path flew.
    sequential_missions: usize,
    /// Wall-clock of the batched path, seconds.
    batched_wall_s: f64,
    /// Missions the batched path flew.
    batched_missions: usize,
    /// `sequential_wall_s / batched_wall_s`.
    speedup: f64,
    /// Distinct probe points evaluated (identical across paths).
    probes: usize,
    /// Whether both paths evaluated identical probe sequences and found
    /// the same failing point.
    equivalent: bool,
}

/// One timed throughput workload.
#[derive(Debug, Serialize)]
struct ThroughputMeasurement {
    name: String,
    wall_s: f64,
    units: String,
    count: usize,
    per_s: f64,
}

/// One obs-off vs obs-on timing of the same workload in the same process.
#[derive(Debug, Serialize)]
struct ObsOverheadMeasurement {
    name: String,
    /// Wall-clock with the obs master switch off, seconds.
    off_wall_s: f64,
    /// Wall-clock with the JSONL + exposition sinks live, seconds.
    on_wall_s: f64,
    /// `(on − off) / off`; the instrumentation budget is < 0.02. Recorded,
    /// not enforced — single-digit-second workloads on a shared host are
    /// noisier than the budget itself.
    overhead: f64,
    /// Whether the workload produced identical results across the toggle
    /// (this *is* enforced: obs must never perturb).
    equivalent: bool,
}

/// One unjournaled vs write-ahead-journaled timing of the same campaign.
#[derive(Debug, Serialize)]
struct JournalOverheadMeasurement {
    name: String,
    /// Wall-clock with no journal attached, seconds.
    off_wall_s: f64,
    /// Wall-clock with one fsync'd journal record per mission, seconds.
    on_wall_s: f64,
    /// `(on − off) / off`; the crash-safety budget is < 0.02. Recorded,
    /// not enforced — single-digit-second workloads on a shared host are
    /// noisier than the budget itself.
    overhead: f64,
    /// Durable journal records the run left behind (one per mission).
    records: usize,
    /// Whether the serialized reports were byte-identical across the
    /// toggle (this *is* enforced: the journal must never perturb).
    equivalent: bool,
}

/// The persisted perf report.
#[derive(Debug, Serialize)]
struct PerfReport {
    schema: String,
    mode: String,
    threads: usize,
    host: HostMeta,
    throughput: Vec<ThroughputMeasurement>,
    falsify: Vec<FalsifyMeasurement>,
    obs_overhead: Vec<ObsOverheadMeasurement>,
    journal_overhead: Vec<JournalOverheadMeasurement>,
}

fn seconds(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The spec of the fixed campaign-grid workload: every variant, baseline
/// cells only (shared by the throughput and obs-overhead measurements).
fn campaign_grid_spec(smoke: bool, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: "perf-campaign-grid".to_string(),
        seed,
        maps: 1,
        scenarios_per_map: if smoke { 2 } else { 4 },
        variants: if smoke {
            vec![SystemVariant::MlsV1, SystemVariant::MlsV3]
        } else {
            SystemVariant::ALL.to_vec()
        },
        faults: Vec::new(),
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 120.0;
    spec.executor.max_duration = 150.0;
    spec
}

/// The fixed campaign-grid workload: every variant, baseline cells only.
fn campaign_grid(threads: usize, smoke: bool, seed: u64) -> Result<ThroughputMeasurement, String> {
    let spec = campaign_grid_spec(smoke, seed);
    let runner = CampaignRunner::new(threads);
    // Suite generation is timed in: it is part of what a campaign costs
    // (and what the suite cache amortises across repeated campaigns).
    let start = Instant::now();
    let report = runner.run(&spec).map_err(|e| e.to_string())?;
    let wall = seconds(start);
    Ok(ThroughputMeasurement {
        name: "campaign-grid".to_string(),
        wall_s: wall,
        units: "missions".to_string(),
        count: report.missions,
        per_s: report.missions as f64 / wall.max(1e-9),
    })
}

/// Builds the falsification config of the perf falsify workloads.
fn falsify_config(
    seed: u64,
    repeats: usize,
    threshold: f64,
    early_stop: bool,
) -> FalsificationConfig {
    let mut config = FalsificationConfig {
        seed,
        maps: 1,
        scenarios_per_map: 2,
        repeats,
        failure_threshold: threshold,
        minimizer_passes: 1,
        minimizer_bisections: 3,
        probe_early_stop: early_stop,
        ..FalsificationConfig::default()
    };
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    config
}

/// Runs one search stage and returns (wall seconds, stage).
fn timed_search(
    config: FalsificationConfig,
    threads: usize,
    execution: ProbeExecution,
    variant: SystemVariant,
    space: &FaultSpace,
    searcher: &Searcher,
) -> Result<(f64, SearchStage), String> {
    let search = FalsificationSearch::new(config, threads).with_probe_execution(execution);
    let start = Instant::now();
    let stage = search
        .search_space(variant, space, searcher)
        .map_err(|e| e.to_string())?;
    Ok((seconds(start), stage))
}

/// The headline workload: the smoke falsify space on the grid searcher,
/// sequential-every-mission vs batched-early-stopped.
fn falsify_grid(threads: usize, smoke: bool, seed: u64) -> Result<FalsifyMeasurement, String> {
    // Both axes are floored well into the stressed regime (a 45 %
    // occlusion duty cycle, a 3 m GNSS bias), so the lattice probes sit on
    // decisively failing fault points — the regime a falsification search
    // spends most of its missions in, and the one where the early-stop
    // bound pays: a probe that keeps failing is decided after
    // ~N·(1−threshold)+1 missions instead of N.
    let space = FaultSpace::new(
        "perf-v1-occlusion-x-gps-bias",
        vec![
            FaultAxis::new(FaultKind::MarkerOcclusion, 0.45, 1.0),
            FaultAxis::new(FaultKind::GpsBias, 0.3, 1.0),
        ],
    );
    let searcher = Searcher::GridRefinement(GridRefinementConfig {
        resolution: 3,
        rounds: 0,
    });
    let repeats = if smoke { 3 } else { 6 };
    let variant = SystemVariant::MlsV1;
    // "Fails" means success below 85 % — the strict dependability bar a
    // falsification probe is held to here. It also makes the early-stop
    // bound sharp: at 12 planned missions a probe is decided *failing*
    // after its second failure ((s + N − n)/N < 0.85), so decisively
    // broken fault points stop after a couple of flights.
    let threshold = 0.85;

    // Warm the suite cache so neither path pays generation and the timing
    // isolates probe evaluation.
    FalsificationSearch::new(falsify_config(seed, repeats, threshold, false), threads)
        .runner()
        .generate_scenarios(&probe_warmup_spec(seed, repeats))
        .map_err(|e| e.to_string())?;

    let (sequential_wall_s, sequential) = timed_search(
        falsify_config(seed, repeats, threshold, false),
        threads,
        ProbeExecution::Sequential,
        variant,
        &space,
        &searcher,
    )?;
    let (batched_wall_s, batched) = timed_search(
        falsify_config(seed, repeats, threshold, true),
        threads,
        ProbeExecution::Batched,
        variant,
        &space,
        &searcher,
    )?;
    if batched.probes.is_empty() {
        return Err("degenerate workload: the searcher flew no probes".to_string());
    }

    // Early stopping changes the *recorded* rates (prefix rates) but never
    // a pass/fail classification, so the grid searcher must visit the same
    // points and land on the same failing point.
    let points_of = |stage: &SearchStage| {
        stage
            .probes
            .iter()
            .map(|probe| probe.point.clone())
            .collect::<Vec<_>>()
    };
    let equivalent = points_of(&sequential) == points_of(&batched)
        && sequential.failing_point == batched.failing_point;

    Ok(FalsifyMeasurement {
        name: "falsify-grid".to_string(),
        searcher: searcher.label().to_string(),
        variant: variant.label().to_string(),
        sequential_wall_s,
        sequential_missions: sequential.missions_flown,
        batched_wall_s,
        batched_missions: batched.missions_flown,
        speedup: sequential_wall_s / batched_wall_s.max(1e-9),
        probes: batched.probes.len(),
        equivalent,
    })
}

/// The fault space of the CMA-ES workloads.
fn cma_space() -> FaultSpace {
    FaultSpace::new(
        "perf-v3-dropout-x-gps-bias",
        vec![
            FaultAxis::full(FaultKind::DetectionDropout),
            FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
        ],
    )
}

/// The searcher of the CMA-ES workloads.
fn cma_searcher(smoke: bool) -> Searcher {
    Searcher::CmaEs(CmaEsConfig {
        population: 4,
        generations: if smoke { 1 } else { 2 },
        initial_step: 0.3,
        seed: 7,
    })
}

/// The CMA-ES workload: both paths under identical early-stop flags, so
/// the probe logs must be byte-identical and the speedup isolates the
/// batching transport.
fn falsify_cma(threads: usize, smoke: bool, seed: u64) -> Result<FalsifyMeasurement, String> {
    let space = cma_space();
    let searcher = cma_searcher(smoke);
    let repeats = if smoke { 1 } else { 2 };
    let variant = SystemVariant::MlsV3;
    // The falsify harness's single-trajectory bar: with few repeats per
    // probe, one failed mission fails the probe. (A stricter bar would
    // fail the *baseline* on this suite and degenerate the search.)
    let threshold = 0.75;

    let (sequential_wall_s, sequential) = timed_search(
        falsify_config(seed, repeats, threshold, true),
        threads,
        ProbeExecution::Sequential,
        variant,
        &space,
        &searcher,
    )?;
    let (batched_wall_s, batched) = timed_search(
        falsify_config(seed, repeats, threshold, true),
        threads,
        ProbeExecution::Batched,
        variant,
        &space,
        &searcher,
    )?;
    if batched.probes.is_empty() {
        return Err("degenerate workload: the searcher flew no probes".to_string());
    }
    let equivalent = sequential.probes == batched.probes
        && sequential.failing_point == batched.failing_point
        && sequential.missions_flown == batched.missions_flown;

    Ok(FalsifyMeasurement {
        name: "falsify-cma".to_string(),
        searcher: searcher.label().to_string(),
        variant: variant.label().to_string(),
        sequential_wall_s,
        sequential_missions: sequential.missions_flown,
        batched_wall_s,
        batched_missions: batched.missions_flown,
        speedup: sequential_wall_s / batched_wall_s.max(1e-9),
        probes: batched.probes.len(),
        equivalent,
    })
}

/// The spec whose suite the falsify workloads fly over (for cache warmup).
fn probe_warmup_spec(seed: u64, repeats: usize) -> CampaignSpec {
    CampaignSpec {
        name: "perf-warmup".to_string(),
        seed,
        maps: 1,
        scenarios_per_map: 2,
        repeats,
        ..CampaignSpec::default()
    }
}

/// Captures one failing trace and times repeated replay verification.
fn replay_throughput(threads: usize, smoke: bool) -> Result<ThroughputMeasurement, String> {
    // The known-failing combo of the trace-replay integration suite: a
    // blinded, biased MLS-V1 reliably leaves failure traces on this grid.
    let mut spec = CampaignSpec {
        name: "perf-replay".to_string(),
        seed: 2025,
        maps: 1,
        scenarios_per_map: 4,
        variants: vec![SystemVariant::MlsV1],
        baseline: false,
        combos: vec![vec![
            FaultPlan::new(FaultKind::MarkerOcclusion, 0.6),
            FaultPlan::new(FaultKind::GpsBias, 0.8),
        ]],
        capture: TracePolicy::FailuresOnly,
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 150.0;
    spec.executor.max_duration = 180.0;
    let runner = CampaignRunner::new(threads).with_trace_dir("target/perf-traces");
    let report = runner.run(&spec).map_err(|e| e.to_string())?;
    let link = report
        .traces
        .first()
        .ok_or("the blinded, biased V1 campaign must fail somewhere")?;
    let trace =
        mls_trace::Trace::read_from(std::path::Path::new(&link.path)).map_err(|e| e.to_string())?;
    let scenarios = runner
        .generate_scenarios(&spec)
        .map_err(|e| e.to_string())?;
    let replays = if smoke { 2 } else { 5 };
    let start = Instant::now();
    for _ in 0..replays {
        let verdict = runner
            .replay(&spec, &scenarios, &trace)
            .map_err(|e| e.to_string())?;
        if !verdict.is_identical() {
            return Err(format!("replay diverged: {verdict}"));
        }
    }
    let wall = seconds(start);
    Ok(ThroughputMeasurement {
        name: "replay-throughput".to_string(),
        wall_s: wall,
        units: "replays".to_string(),
        count: replays,
        per_s: replays as f64 / wall.max(1e-9),
    })
}

/// Times `workload` with the obs master switch off, then on, inside this
/// process; `identical` decides result equivalence across the toggle. The
/// switch is left off afterwards.
fn toggled<T>(
    name: &str,
    workload: impl Fn() -> Result<T, String>,
    identical: impl Fn(&T, &T) -> bool,
) -> Result<ObsOverheadMeasurement, String> {
    mls_obs::set_enabled(false);
    let start = Instant::now();
    let off = workload()?;
    let off_wall_s = seconds(start);
    mls_obs::set_enabled(true);
    let start = Instant::now();
    let on = workload()?;
    let on_wall_s = seconds(start);
    mls_obs::set_enabled(false);
    Ok(ObsOverheadMeasurement {
        name: name.to_string(),
        off_wall_s,
        on_wall_s,
        overhead: (on_wall_s - off_wall_s) / off_wall_s.max(1e-9),
        equivalent: identical(&off, &on),
    })
}

/// Obs overhead on the campaign grid: the serialized campaign report must
/// be byte-identical across the toggle.
fn obs_overhead_grid(
    threads: usize,
    smoke: bool,
    seed: u64,
) -> Result<ObsOverheadMeasurement, String> {
    let spec = campaign_grid_spec(smoke, seed);
    let runner = CampaignRunner::new(threads);
    toggled(
        "obs-overhead-grid",
        || {
            let report = runner.run(&spec).map_err(|e| e.to_string())?;
            report.to_json().map_err(|e| e.to_string())
        },
        |off, on| off == on,
    )
}

/// Journal overhead on the campaign grid: the same spec unjournaled vs
/// with the write-ahead journal attached, reports compared byte for byte.
/// The suite cache is warmed first so both timings isolate mission
/// flying + journaling from scenario generation.
fn journal_overhead_grid(
    threads: usize,
    smoke: bool,
    seed: u64,
) -> Result<JournalOverheadMeasurement, String> {
    let spec = campaign_grid_spec(smoke, seed);
    let runner = CampaignRunner::new(threads);
    runner
        .generate_scenarios(&spec)
        .map_err(|e| e.to_string())?;

    let start = Instant::now();
    let off = runner.run(&spec).map_err(|e| e.to_string())?;
    let off_wall_s = seconds(start);
    let off_json = off.to_json().map_err(|e| e.to_string())?;

    let journal = std::path::PathBuf::from("target/perf-journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let journaled = CampaignRunner::new(threads).with_journal(&journal);
    let start = Instant::now();
    let on = journaled.run(&spec).map_err(|e| e.to_string())?;
    let on_wall_s = seconds(start);
    let on_json = on.to_json().map_err(|e| e.to_string())?;
    let records = std::fs::read_to_string(&journal)
        .map(|text| text.matches('\n').count().saturating_sub(1))
        .unwrap_or(0);
    if records != off.missions {
        return Err(format!(
            "expected one journal record per mission, got {records} for {} missions",
            off.missions
        ));
    }

    Ok(JournalOverheadMeasurement {
        name: "journal-overhead-grid".to_string(),
        off_wall_s,
        on_wall_s,
        overhead: (on_wall_s - off_wall_s) / off_wall_s.max(1e-9),
        records,
        equivalent: off_json == on_json,
    })
}

/// Obs overhead on the batched CMA-ES search: probe log, failing point and
/// mission count must be identical across the toggle.
fn obs_overhead_cma(
    threads: usize,
    smoke: bool,
    seed: u64,
) -> Result<ObsOverheadMeasurement, String> {
    let space = cma_space();
    let searcher = cma_searcher(smoke);
    let repeats = if smoke { 1 } else { 2 };
    let threshold = 0.75;
    toggled(
        "obs-overhead-cma",
        || {
            timed_search(
                falsify_config(seed, repeats, threshold, true),
                threads,
                ProbeExecution::Batched,
                SystemVariant::MlsV3,
                &space,
                &searcher,
            )
            .map(|(_, stage)| stage)
        },
        |off, on| {
            off.probes == on.probes
                && off.failing_point == on.failing_point
                && off.missions_flown == on.missions_flown
        },
    )
}

fn main() -> ExitCode {
    print_header("perfsuite — canonical workload timings → BENCH_perf.json");
    let options = HarnessOptions::from_env();
    let smoke = std::env::var("MLS_PERF_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    // Seed 3 is the suite every generation lands clean over (the falsify
    // harness's clean-baseline default); an explicit MLS_SEED wins.
    let seed = if env_override(|n| std::env::var(n).ok(), "MLS_SEED").is_some() {
        options.seed
    } else {
        3
    };
    let threads = options.threads;
    let host = HostMeta::capture();
    println!(
        "mode: {}, {} threads, seed {seed}, host: {} cores, {} build @ {}",
        if smoke { "smoke" } else { "full" },
        threads,
        host.cores,
        host.profile,
        host.git_rev,
    );

    // The obs-overhead workload toggles the sinks inside this process, so
    // they are pinned here explicitly (JSONL + exposition; an inherited
    // `MLS_OBS` would race with the toggle) and stay off for the plain
    // timing workloads.
    mls_obs::init(mls_obs::ObsConfig::standard());
    mls_obs::set_enabled(false);

    let mut throughput = Vec::new();
    let mut falsify = Vec::new();
    let mut obs_overhead = Vec::new();
    let mut journal_overhead = Vec::new();
    let mut all_good = true;

    println!("\n[1/6] campaign-grid");
    match campaign_grid(threads, smoke, seed) {
        Ok(m) => {
            println!(
                "  {} missions in {:.1} s → {:.3} missions/s",
                m.count, m.wall_s, m.per_s
            );
            throughput.push(m);
        }
        Err(err) => {
            println!("  FAILED: {err}");
            all_good = false;
        }
    }

    println!("\n[2/6] falsify-grid (sequential searcher path vs batched)");
    match falsify_grid(threads, smoke, seed) {
        Ok(m) => {
            println!(
                "  sequential: {:.1} s / {} missions; batched: {:.1} s / {} missions",
                m.sequential_wall_s, m.sequential_missions, m.batched_wall_s, m.batched_missions
            );
            println!(
                "  speedup {:.2}x over {} probes (equivalent: {})",
                m.speedup, m.probes, m.equivalent
            );
            all_good &= m.equivalent;
            falsify.push(m);
        }
        Err(err) => {
            println!("  FAILED: {err}");
            all_good = false;
        }
    }

    println!("\n[3/6] falsify-cma (batching transport, identical flags)");
    match falsify_cma(threads, smoke, seed) {
        Ok(m) => {
            println!(
                "  sequential: {:.1} s; batched: {:.1} s; speedup {:.2}x (byte-equivalent: {})",
                m.sequential_wall_s, m.batched_wall_s, m.speedup, m.equivalent
            );
            all_good &= m.equivalent;
            falsify.push(m);
        }
        Err(err) => {
            println!("  FAILED: {err}");
            all_good = false;
        }
    }

    println!("\n[4/6] replay-throughput");
    match replay_throughput(threads, smoke) {
        Ok(m) => {
            println!(
                "  {} replays in {:.1} s → {:.3} replays/s",
                m.count, m.wall_s, m.per_s
            );
            throughput.push(m);
        }
        Err(err) => {
            println!("  FAILED: {err}");
            all_good = false;
        }
    }

    println!("\n[5/6] obs-overhead (sinks off vs on, same process; budget < 2%)");
    for result in [
        obs_overhead_grid(threads, smoke, seed),
        obs_overhead_cma(threads, smoke, seed),
    ] {
        match result {
            Ok(m) => {
                println!(
                    "  {}: off {:.1} s, on {:.1} s → overhead {:+.2}% (equivalent: {})",
                    m.name,
                    m.off_wall_s,
                    m.on_wall_s,
                    m.overhead * 100.0,
                    m.equivalent
                );
                // The equivalence half is a hard invariant; the overhead
                // number is recorded against the budget but not gated on
                // (wall-clock noise on shared CI hosts dwarfs 2 %).
                all_good &= m.equivalent;
                obs_overhead.push(m);
            }
            Err(err) => {
                println!("  FAILED: {err}");
                all_good = false;
            }
        }
    }

    println!("\n[6/6] journal-overhead (unjournaled vs write-ahead journal; budget < 2%)");
    match journal_overhead_grid(threads, smoke, seed) {
        Ok(m) => {
            println!(
                "  off {:.1} s, on {:.1} s ({} records) → overhead {:+.2}% (equivalent: {})",
                m.off_wall_s,
                m.on_wall_s,
                m.records,
                m.overhead * 100.0,
                m.equivalent
            );
            // As with obs-overhead: equivalence is the hard invariant, the
            // overhead number is recorded against the budget.
            all_good &= m.equivalent;
            journal_overhead.push(m);
        }
        Err(err) => {
            println!("  FAILED: {err}");
            all_good = false;
        }
    }

    let report = PerfReport {
        schema: "mls-perf-v5".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        threads,
        host,
        throughput,
        falsify,
        obs_overhead,
        journal_overhead,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => match mls_obs::atomic_write(
            std::path::Path::new("BENCH_perf.json"),
            (json + "\n").as_bytes(),
        ) {
            Ok(()) => println!("\nreport: BENCH_perf.json"),
            Err(err) => {
                println!("\ncannot write BENCH_perf.json: {err}");
                all_good = false;
            }
        },
        Err(err) => {
            println!("\ncannot serialise the perf report: {err}");
            all_good = false;
        }
    }

    // The overhead runs populated the registry and the event log; flush
    // them as this process's obs artifacts.
    mls_obs::set_enabled(true);
    finish_obs();

    if all_good {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
