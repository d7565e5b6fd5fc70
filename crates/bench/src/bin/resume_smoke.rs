//! resume_smoke — the crash/resume smoke harness behind CI's
//! `resume-smoke` job.
//!
//! Flies a small trace-capturing campaign grid once undisturbed, then
//! re-executes itself as a *journaled* in-process runner of the same grid
//! and SIGKILLs that child once the write-ahead journal holds
//! [`KILL_AFTER_RECORDS`] durable records. It then resumes from the
//! orphaned journal in process and *enforces by exit code* that the
//! resumed `CampaignReport` and every persisted trace file are
//! byte-identical to the undisturbed run.
//!
//! ```sh
//! cargo run --release --bin resume_smoke
//! ```
//!
//! The journal is left at `target/resume-smoke.journal.jsonl` so a
//! divergence is diagnosable record by record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use mls_bench::{finish_obs, print_header, HarnessOptions};
use mls_campaign::{CampaignRunner, CampaignSpec, FaultKind, FaultPlan, TracePolicy};
use mls_core::SystemVariant;

/// Durable journal records the child must have written before it is
/// killed.
const KILL_AFTER_RECORDS: usize = 3;

/// The argument that makes a spawned copy of this binary the doomed
/// journaled runner instead of the harness.
const CHILD_ROLE: &str = "journaled-child";

/// Where the smoke's traces and journal land.
const TRACE_DIR: &str = "target/resume-smoke-traces";
const JOURNAL: &str = "target/resume-smoke.journal.jsonl";

/// The smoke grid: 2 variants × (baseline + 2 faults) = 6 cells, with
/// failure-trace capture so the trace path is exercised too.
fn smoke_spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: "resume-smoke".to_string(),
        seed,
        maps: 1,
        scenarios_per_map: 2,
        variants: vec![SystemVariant::MlsV1, SystemVariant::MlsV3],
        faults: vec![
            FaultPlan::new(FaultKind::MarkerOcclusion, 0.6),
            FaultPlan::new(FaultKind::GpsBias, 0.6),
        ],
        capture: TracePolicy::FailuresOnly,
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 120.0;
    spec.executor.max_duration = 150.0;
    spec
}

/// Reads every file under `dir` into path-relative bytes.
fn snapshot_dir(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&current) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if let (Ok(relative), Ok(bytes)) = (path.strip_prefix(dir), std::fs::read(&path))
            {
                files.insert(relative.to_string_lossy().into_owned(), bytes);
            }
        }
    }
    files
}

/// A finished run: the report JSON and the persisted trace bytes.
struct Run {
    report_json: String,
    traces: BTreeMap<String, Vec<u8>>,
}

/// Flies `spec` into a wiped trace directory, or resumes `journal` when
/// one is given.
fn fly(threads: usize, spec: &CampaignSpec, journal: Option<&Path>) -> Result<Run, String> {
    let dir = PathBuf::from(TRACE_DIR);
    let _ = std::fs::remove_dir_all(&dir);
    let runner = CampaignRunner::new(threads).with_trace_dir(&dir);
    let report = match journal {
        Some(journal) => runner.resume(journal),
        None => runner.run(spec),
    }
    .map_err(|err| err.to_string())?;
    Ok(Run {
        report_json: report.to_json().map_err(|err| err.to_string())?,
        traces: snapshot_dir(&dir),
    })
}

/// Counts durable (newline-terminated) journal records on disk; the
/// header line does not count, nor does a torn tail.
fn durable_records(journal: &Path) -> usize {
    std::fs::read_to_string(journal)
        .map(|text| text.matches('\n').count().saturating_sub(1))
        .unwrap_or(0)
}

/// The doomed child: a journaled run of the smoke grid. The harness
/// SIGKILLs it mid-campaign, so the journal on disk is its real output.
fn journaled_child(options: &HarnessOptions) -> ExitCode {
    let spec = smoke_spec(options.seed);
    match CampaignRunner::new(options.threads)
        .with_journal(JOURNAL)
        .with_trace_dir(TRACE_DIR)
        .run(&spec)
    {
        Ok(_) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("resume-smoke child failed: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Spawns the journaled child and SIGKILLs it once the journal holds
/// [`KILL_AFTER_RECORDS`] durable records. Returns the surviving record
/// count and whether the child outran the threshold.
fn kill_journaled_child(journal: &Path) -> Result<(usize, bool), String> {
    let _ = std::fs::remove_file(journal);
    let exe =
        std::env::current_exe().map_err(|err| format!("cannot locate own executable: {err}"))?;
    let mut child = Command::new(exe)
        .arg(CHILD_ROLE)
        .spawn()
        .map_err(|err| format!("cannot spawn the journaled child: {err}"))?;
    let deadline = Instant::now() + Duration::from_secs(600);
    let finished_early = loop {
        match child.try_wait() {
            // The child outran the kill threshold; a complete journal
            // still exercises the resume path.
            Ok(Some(status)) if status.success() => break true,
            Ok(Some(status)) => return Err(format!("child exited with {status} before the kill")),
            Ok(None) => {}
            Err(err) => return Err(format!("cannot poll the child: {err}")),
        }
        if durable_records(journal) >= KILL_AFTER_RECORDS || Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break false;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let survived = durable_records(journal);
    if survived < KILL_AFTER_RECORDS {
        return Err(format!(
            "only {survived} durable journal records survived, expected {KILL_AFTER_RECORDS}"
        ));
    }
    Ok((survived, finished_early))
}

fn main() -> ExitCode {
    let options = HarnessOptions::from_env();
    if std::env::args().nth(1).as_deref() == Some(CHILD_ROLE) {
        return journaled_child(&options);
    }

    print_header("resume_smoke — SIGKILL a journaled campaign, resume byte-identically");
    let threads = options.threads;
    let spec = smoke_spec(options.seed);
    let journal = PathBuf::from(JOURNAL);
    println!(
        "grid: {} cells × {} missions, {threads} threads, seed {}; SIGKILL after \
         {KILL_AFTER_RECORDS} journal records",
        spec.cells().len(),
        spec.missions_per_cell(),
        options.seed
    );

    println!("\n[1/3] undisturbed run");
    let start = Instant::now();
    let baseline = match fly(threads, &spec, None) {
        Ok(run) if !run.traces.is_empty() => run,
        Ok(_) => {
            println!("  FAILED: the smoke grid must capture failure traces");
            return ExitCode::FAILURE;
        }
        Err(err) => {
            println!("  FAILED: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  {:.1} s, {} trace files",
        start.elapsed().as_secs_f64(),
        baseline.traces.len()
    );

    println!("\n[2/3] journaled child, killed -9 mid-campaign");
    let survived = match kill_journaled_child(&journal) {
        Ok((survived, finished_early)) => {
            println!(
                "  {} with {survived} durable journal records",
                if finished_early {
                    "child finished before the kill threshold"
                } else {
                    "child SIGKILLed"
                }
            );
            survived
        }
        Err(err) => {
            println!("  FAILED: {err}");
            return ExitCode::FAILURE;
        }
    };

    println!("\n[3/3] resume from the orphaned journal");
    let start = Instant::now();
    let resumed = match fly(threads, &spec, Some(&journal)) {
        Ok(run) => run,
        Err(err) => {
            println!("  FAILED: {err}");
            return ExitCode::FAILURE;
        }
    };
    let report_ok = baseline.report_json == resumed.report_json;
    let traces_ok = baseline.traces == resumed.traces;
    println!(
        "  {:.1} s — report {}, traces {} ({} files)",
        start.elapsed().as_secs_f64(),
        if report_ok { "identical" } else { "DIVERGED" },
        if traces_ok { "identical" } else { "DIVERGED" },
        resumed.traces.len(),
    );

    finish_obs();
    if report_ok && traces_ok {
        println!("\nresume smoke: byte-identical after kill -9 at {survived} records");
        ExitCode::SUCCESS
    } else {
        println!("\nresume smoke: DIVERGENCE DETECTED");
        ExitCode::FAILURE
    }
}
