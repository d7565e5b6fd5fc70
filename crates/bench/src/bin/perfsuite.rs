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
//! `MLS_PERF_SMOKE=1` shrinks every workload to a CI-sized smoke run
//! (same measurements, same JSON shape, `"mode": "smoke"`). `MLS_THREADS`
//! and `MLS_SEED` are honoured as usual.

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
    obs_overhead: Vec<ObsOverheadMeasurement>,
    journal_overhead: Vec<JournalOverheadMeasurement>,
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
/// master switch off, then on, inside this process; the serialized reports
/// must be byte-identical across the toggle. The switch is left off
/// afterwards.
fn obs_overhead_grid(
    threads: usize,
    smoke: bool,
    seed: u64,
) -> Result<ObsOverheadMeasurement, String> {
    let spec = campaign_grid_spec(smoke, seed);
    let runner = CampaignRunner::new(threads);
    let run = |enabled: bool| -> Result<(f64, String), String> {
        mls_obs::set_enabled(enabled);
        let start = Instant::now();
        let report = runner.run(&spec).map_err(|e| e.to_string());
        let wall = seconds(start);
        mls_obs::set_enabled(false);
        Ok((wall, report?.to_json().map_err(|e| e.to_string())?))
    };
    let (off_wall_s, off) = run(false)?;
    let (on_wall_s, on) = run(true)?;
    Ok(ObsOverheadMeasurement {
        name: "obs-overhead-grid".to_string(),
        off_wall_s,
        on_wall_s,
        overhead: (on_wall_s - off_wall_s) / off_wall_s.max(1e-9),
        equivalent: off == on,
    })
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

    println!("\n[2/3] obs-overhead (sinks off vs on, same process; budget < 2%)");
    match obs_overhead_grid(threads, smoke, seed) {
        Ok(m) => {
            println!(
                "  off {:.1} s, on {:.1} s → overhead {:+.2}% (equivalent: {})",
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

    println!("\n[3/3] journal-overhead (unjournaled vs write-ahead journal; budget < 2%)");
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
        schema: "mls-perf-v6".to_string(),
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
