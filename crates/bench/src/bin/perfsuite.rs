//! perfsuite — the performance-baseline harness behind `BENCH_perf.json`.
//!
//! Every figure and every falsification counterexample in this workspace is
//! bought with wall-clock: the number of fault-injected missions flown per
//! core-hour *is* the methodology's throughput. This binary times what the
//! repository benchmark (`repobench/`, `BENCHMARK.json`) does not: the
//! campaign grid on the in-process runner and the harness's own obs and
//! journal overheads. It persists the measurements as `BENCH_perf.json`
//! at the repository root.
//!
//! Workloads (search, early stop and replay are timed by the benchmark's
//! `falsify-v1` workload, and their equivalence is pinned by the
//! `batched_equivalence`, `obs_equivalence` and `trace_replay` suites):
//!
//! * **campaign-grid** — a fixed baseline campaign grid on the persistent
//!   executor (missions per second).
//! * **obs-overhead** — the campaign-grid workload timed with the
//!   `mls-obs` sinks off and on inside one process (the runtime master
//!   switch). Records the relative overhead — budgeted at < 2 % — and
//!   *enforces* that the reports are byte-identical across the toggle
//!   (the non-perturbation contract).
//! * **journal-overhead** — the campaign-grid workload unjournaled vs
//!   with the write-ahead result journal attached (one fsync'd record
//!   per mission). Records the relative overhead — budgeted at < 2 % —
//!   and *enforces* that the reports are byte-identical (journaling must
//!   never perturb results).
//!
//! Each overhead is timed as `PAIRS` (5) interleaved off/on pairs (the order
//! alternates pair by pair, so a drift in host speed hits both sides). The
//! report keeps every sample's wall time with its median, minimum and
//! median absolute deviation, and every pair's relative overhead. An
//! overhead is labelled `"positive"` or `"negative"` only when all of its
//! pairs fall on that side of zero, and `"unresolved"` otherwise: one
//! sample per side cannot tell a 2 % overhead from the host's noise.
//!
//! `MLS_PERF_SMOKE=1` shrinks every workload to a CI-sized smoke run
//! (same measurements, same JSON shape, `"mode": "smoke"`, and
//! `SMOKE_PAIRS` (2) pairs per overhead). `MLS_THREADS` and `MLS_SEED` are
//! honoured as usual.

use std::process::ExitCode;
use std::time::Instant;

use mls_bench::{env_override, finish_obs, print_header, HarnessOptions, HostMeta};
use mls_campaign::{CampaignRunner, CampaignSpec};
use mls_core::SystemVariant;
use serde::Serialize;

/// One timed throughput workload.
#[derive(Debug, Serialize)]
struct ThroughputMeasurement {
    name: String,
    wall_s: f64,
    units: String,
    count: usize,
    per_s: f64,
}

/// Off/on pairs per overhead in a full run.
const PAIRS: usize = 5;
/// Off/on pairs per overhead in a smoke run.
const SMOKE_PAIRS: usize = 2;

/// Repeated wall-clock samples of one side of an overhead.
#[derive(Debug, Serialize)]
struct Samples {
    /// Every sample, seconds, in the order they were taken.
    walls_s: Vec<f64>,
    median_s: f64,
    min_s: f64,
    /// Median absolute deviation from `median_s`, seconds.
    mad_s: f64,
}

impl Samples {
    fn new(walls_s: Vec<f64>) -> Self {
        let median_s = median(&walls_s);
        let deviations: Vec<f64> = walls_s.iter().map(|w| (w - median_s).abs()).collect();
        Self {
            median_s,
            min_s: walls_s.iter().copied().fold(f64::INFINITY, f64::min),
            mad_s: median(&deviations),
            walls_s,
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// One overhead: the same workload timed off and on in interleaved pairs.
#[derive(Debug, Serialize)]
struct OverheadMeasurement {
    name: String,
    /// Samples with the feature off (obs sinks off / no journal).
    off: Samples,
    /// Samples with the feature on (JSONL + exposition sinks live / one
    /// fsync'd journal record per mission).
    on: Samples,
    /// `(on − off) / off` of every pair, in pair order.
    pair_overheads: Vec<f64>,
    /// Median of `pair_overheads`; the budget is < 0.02. Recorded, not
    /// enforced — single-digit-second workloads on a shared host are
    /// noisier than the budget itself.
    overhead: f64,
    /// `"positive"` or `"negative"` when every pair falls on that side of
    /// zero, `"unresolved"` otherwise.
    verdict: String,
    /// Durable journal records each journaled run left behind (one per
    /// mission); `null` for the obs overhead.
    records: Option<usize>,
    /// Whether every run serialized a byte-identical report (this *is*
    /// enforced: neither obs nor the journal may perturb results).
    equivalent: bool,
}

/// Times `run(false)` and `run(true)` in `pairs` interleaved pairs, the
/// order alternating pair by pair. `run` returns the wall time and the
/// serialized report of one run.
fn paired(
    name: &str,
    pairs: usize,
    mut run: impl FnMut(bool) -> Result<(f64, String), String>,
) -> Result<OverheadMeasurement, String> {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    for pair in 0..pairs {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in order {
            let (wall, report) = run(enabled)?;
            if enabled { &mut on } else { &mut off }.push(wall);
            reports.push(report);
        }
    }
    let pair_overheads: Vec<f64> = off
        .iter()
        .zip(&on)
        .map(|(off, on)| (on - off) / off.max(1e-9))
        .collect();
    let verdict = if pair_overheads.iter().all(|&o| o > 0.0) {
        "positive"
    } else if pair_overheads.iter().all(|&o| o < 0.0) {
        "negative"
    } else {
        "unresolved"
    };
    Ok(OverheadMeasurement {
        name: name.to_string(),
        overhead: median(&pair_overheads),
        verdict: verdict.to_string(),
        off: Samples::new(off),
        on: Samples::new(on),
        pair_overheads,
        records: None,
        equivalent: reports.windows(2).all(|w| w[0] == w[1]),
    })
}

/// The persisted perf report.
#[derive(Debug, Serialize)]
struct PerfReport {
    schema: String,
    mode: String,
    threads: usize,
    host: HostMeta,
    throughput: Vec<ThroughputMeasurement>,
    obs_overhead: Vec<OverheadMeasurement>,
    journal_overhead: Vec<OverheadMeasurement>,
}

fn seconds(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The spec of the fixed campaign-grid workload: every variant, baseline
/// cells only (shared by all three measurements).
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

/// Obs overhead on the campaign grid: the same spec timed with the obs
/// master switch off and on inside this process, in interleaved pairs; the
/// serialized reports must be byte-identical across the toggle. The switch
/// is left off afterwards.
fn obs_overhead_grid(
    threads: usize,
    smoke: bool,
    seed: u64,
    pairs: usize,
) -> Result<OverheadMeasurement, String> {
    let spec = campaign_grid_spec(smoke, seed);
    let runner = CampaignRunner::new(threads);
    paired("obs-overhead-grid", pairs, |enabled| {
        mls_obs::set_enabled(enabled);
        let start = Instant::now();
        let report = runner.run(&spec).map_err(|e| e.to_string());
        let wall = seconds(start);
        mls_obs::set_enabled(false);
        Ok((wall, report?.to_json().map_err(|e| e.to_string())?))
    })
}

/// Journal overhead on the campaign grid: the same spec unjournaled vs
/// with a fresh write-ahead journal attached, in interleaved pairs, reports
/// compared byte for byte. The suite cache is warmed first so the timings
/// isolate mission flying + journaling from scenario generation.
fn journal_overhead_grid(
    threads: usize,
    smoke: bool,
    seed: u64,
    pairs: usize,
) -> Result<OverheadMeasurement, String> {
    let spec = campaign_grid_spec(smoke, seed);
    let runner = CampaignRunner::new(threads);
    runner
        .generate_scenarios(&spec)
        .map_err(|e| e.to_string())?;
    let journal = std::path::PathBuf::from("target/perf-journal.jsonl");
    let mut records = 0;
    let mut measurement = paired("journal-overhead-grid", pairs, |enabled| {
        if !enabled {
            let start = Instant::now();
            let report = runner.run(&spec).map_err(|e| e.to_string())?;
            return Ok((seconds(start), report.to_json().map_err(|e| e.to_string())?));
        }
        // A runner keeps its journal open across runs, so each journaled
        // run gets a fresh runner on a fresh file; a reused one would
        // resume from the last run's records instead of flying.
        let _ = std::fs::remove_file(&journal);
        let journaled = CampaignRunner::new(threads).with_journal(&journal);
        let start = Instant::now();
        let report = journaled.run(&spec).map_err(|e| e.to_string())?;
        let wall = seconds(start);
        records = std::fs::read_to_string(&journal)
            .map(|text| text.matches('\n').count().saturating_sub(1))
            .unwrap_or(0);
        if records != report.missions {
            return Err(format!(
                "expected one journal record per mission, got {records} for {} missions",
                report.missions
            ));
        }
        Ok((wall, report.to_json().map_err(|e| e.to_string())?))
    })?;
    measurement.records = Some(records);
    Ok(measurement)
}

fn print_overhead(m: &OverheadMeasurement) {
    let walls = |samples: &Samples| {
        let walls: Vec<String> = samples.walls_s.iter().map(|w| format!("{w:.2}")).collect();
        format!(
            "[{}] s (median {:.2}, min {:.2}, MAD {:.2})",
            walls.join(", "),
            samples.median_s,
            samples.min_s,
            samples.mad_s
        )
    };
    let pairs: Vec<String> = m
        .pair_overheads
        .iter()
        .map(|o| format!("{:+.1}%", o * 100.0))
        .collect();
    println!("  off {}", walls(&m.off));
    println!("  on  {}", walls(&m.on));
    if let Some(records) = m.records {
        println!("  {records} journal records per journaled run");
    }
    println!(
        "  pairs [{}] → median overhead {:+.2}%, {} (equivalent: {})",
        pairs.join(", "),
        m.overhead * 100.0,
        m.verdict,
        m.equivalent
    );
}

fn main() -> ExitCode {
    print_header("perfsuite — canonical workload timings → BENCH_perf.json");
    let options = HarnessOptions::from_env();
    let smoke = std::env::var("MLS_PERF_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    // Seed 3 is the suite earlier baselines were measured over; an
    // explicit MLS_SEED wins.
    let seed = if env_override(|n| std::env::var(n).ok(), "MLS_SEED").is_some() {
        options.seed
    } else {
        3
    };
    let threads = options.threads;
    let pairs = if smoke { SMOKE_PAIRS } else { PAIRS };
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
    let mut obs_overhead = Vec::new();
    let mut journal_overhead = Vec::new();
    let mut all_good = true;

    println!("\n[1/3] campaign-grid");
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

    println!("\n[2/3] obs-overhead (sinks off vs on, same process, {pairs} pairs; budget < 2%)");
    match obs_overhead_grid(threads, smoke, seed, pairs) {
        Ok(m) => {
            print_overhead(&m);
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

    println!(
        "\n[3/3] journal-overhead (unjournaled vs write-ahead journal, {pairs} pairs; budget < 2%)"
    );
    match journal_overhead_grid(threads, smoke, seed, pairs) {
        Ok(m) => {
            print_overhead(&m);
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
        schema: "mls-perf-v7".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        threads,
        host,
        throughput,
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
