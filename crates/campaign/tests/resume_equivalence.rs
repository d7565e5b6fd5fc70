//! Crash-safe resume equivalence: a journaled campaign interrupted at
//! *any* write-ahead journal boundary and resumed must reproduce its
//! report and persisted traces byte for byte — and journaling at all must
//! not change a single artifact byte relative to an unjournaled run.
//!
//! The kill is simulated by truncating the journal file to each record
//! boundary (plus a torn, partially-written final record — what a real
//! `kill -9` mid-`write` leaves) and resuming into a wiped trace
//! directory, so even the trace *paths* inside the report must match.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use mls_campaign::{
    CampaignError, CampaignRunner, CampaignSpec, FalsificationConfig, FalsificationSearch,
    FaultAxis, FaultKind, FaultPlan, FaultSpace, GridRefinementConfig, Searcher,
};
use mls_core::SystemVariant;
use mls_trace::TracePolicy;

/// Stable artifact directory (uploaded by the CI workflow).
fn trace_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-traces")
        .join(name)
}

fn journal_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-journals");
    fs::create_dir_all(&dir).expect("journal dir");
    dir.join(format!("{name}.jsonl"))
}

/// A tiny campaign with failures to capture: 2 cells × 2 missions.
fn tiny_spec(name: &str) -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: name.to_string(),
        seed: 90,
        maps: 1,
        scenarios_per_map: 2,
        repeats: 1,
        variants: vec![SystemVariant::MlsV1],
        faults: vec![FaultPlan::new(FaultKind::DetectionDropout, 0.7)],
        capture: TracePolicy::FailuresOnly,
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 100.0;
    spec.executor.max_duration = 120.0;
    spec
}

/// Reads every file under `dir` (recursively) into path-relative bytes.
fn snapshot_dir(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    if !dir.exists() {
        return files;
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in fs::read_dir(&current).expect("read trace dir") {
            let path = entry.expect("read trace dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let relative = path
                    .strip_prefix(dir)
                    .expect("trace path under root")
                    .to_string_lossy()
                    .into_owned();
                files.insert(relative, fs::read(&path).expect("read trace file"));
            }
        }
    }
    files
}

fn wipe(dir: &Path) {
    if dir.exists() {
        fs::remove_dir_all(dir).expect("wipe trace dir");
    }
}

/// Header plus the first `records` journal records, newline-terminated.
fn journal_prefix(full: &str, records: usize) -> String {
    let mut out = String::new();
    for line in full.lines().take(1 + records) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn journaling_does_not_change_a_single_artifact_byte() {
    let spec = tiny_spec("resume-equiv");
    let dir = trace_root("resume-equiv");

    wipe(&dir);
    let baseline = CampaignRunner::new(2)
        .with_trace_dir(&dir)
        .run(&spec)
        .expect("unjournaled run");
    let baseline_json = baseline.to_json().expect("serialise baseline");
    let baseline_traces = snapshot_dir(&dir);
    assert!(
        !baseline_traces.is_empty(),
        "the dropout campaign must capture failure traces"
    );

    let journal = journal_path("resume-equiv");
    let _ = fs::remove_file(&journal);
    wipe(&dir);
    let journaled = CampaignRunner::new(2)
        .with_journal(&journal)
        .with_trace_dir(&dir)
        .run(&spec)
        .expect("journaled run");
    assert_eq!(
        baseline_json,
        journaled.to_json().expect("serialise journaled"),
        "journaling changed the report bytes"
    );
    assert_eq!(
        baseline_traces,
        snapshot_dir(&dir),
        "journaling changed the persisted traces"
    );
    let full = fs::read_to_string(&journal).expect("journal written");
    assert!(
        full.lines().count() > 1,
        "the journal must hold one record per flown mission"
    );
}

#[test]
fn resume_from_every_journal_boundary_is_byte_identical() {
    let spec = tiny_spec("resume-boundaries");
    let dir = trace_root("resume-boundaries");
    let journal = journal_path("resume-boundaries");
    let _ = fs::remove_file(&journal);

    wipe(&dir);
    let baseline = CampaignRunner::new(2)
        .with_journal(&journal)
        .with_trace_dir(&dir)
        .run(&spec)
        .expect("journaled run");
    let baseline_json = baseline.to_json().expect("serialise baseline");
    let baseline_traces = snapshot_dir(&dir);

    let full = fs::read_to_string(&journal).expect("read journal");
    let records = full.lines().count() - 1;
    assert!(
        records >= 2,
        "expected several journal boundaries to kill at"
    );

    for kill_at in 0..=records {
        let boundary = journal_path(&format!("resume-boundary-{kill_at}"));
        let mut prefix = journal_prefix(&full, kill_at);
        if kill_at < records {
            // A real kill -9 lands mid-write: leave the next record torn
            // (half its bytes, no newline). Resume must drop the tail.
            let next = full.lines().nth(1 + kill_at).expect("next record");
            prefix.push_str(&next[..next.len() / 2]);
        }
        fs::write(&boundary, prefix).expect("write boundary journal");

        wipe(&dir);
        let resumed = CampaignRunner::new(2)
            .with_trace_dir(&dir)
            .resume(&boundary)
            .unwrap_or_else(|err| panic!("resume at boundary {kill_at} failed: {err}"));
        assert_eq!(
            baseline_json,
            resumed.to_json().expect("serialise resumed"),
            "report diverged when killed after {kill_at} records"
        );
        assert_eq!(
            baseline_traces,
            snapshot_dir(&dir),
            "traces diverged when killed after {kill_at} records"
        );
    }
}

#[test]
fn interrupting_twice_still_converges_to_the_same_bytes() {
    let spec = tiny_spec("resume-twice");
    let dir = trace_root("resume-twice");
    let journal = journal_path("resume-twice");
    let _ = fs::remove_file(&journal);

    wipe(&dir);
    let baseline = CampaignRunner::new(2)
        .with_journal(&journal)
        .with_trace_dir(&dir)
        .run(&spec)
        .expect("journaled run");
    let baseline_json = baseline.to_json().expect("serialise baseline");

    // First kill: one record survives. Second kill: the resumed journal,
    // truncated again two records further in. Then a final full resume.
    let full = fs::read_to_string(&journal).expect("read journal");
    let records = full.lines().count() - 1;
    let twice = journal_path("resume-twice-replay");
    fs::write(&twice, journal_prefix(&full, 1)).expect("first kill");
    wipe(&dir);
    let _ = CampaignRunner::new(2)
        .with_trace_dir(&dir)
        .resume(&twice)
        .expect("first resume");
    let grown = fs::read_to_string(&twice).expect("re-read journal");
    assert_eq!(
        grown.lines().count() - 1,
        records,
        "the first resume must re-journal every missing record"
    );
    fs::write(&twice, journal_prefix(&grown, (records / 2).max(2))).expect("second kill");
    wipe(&dir);
    let resumed = CampaignRunner::new(2)
        .with_trace_dir(&dir)
        .resume(&twice)
        .expect("second resume");
    assert_eq!(
        baseline_json,
        resumed.to_json().expect("serialise resumed"),
        "two interruptions changed the report bytes"
    );
}

#[test]
fn resume_rejects_a_journal_whose_spec_was_edited() {
    let spec = tiny_spec("resume-edited");
    let journal = journal_path("resume-edited");
    let _ = fs::remove_file(&journal);
    let dir = trace_root("resume-edited");
    wipe(&dir);
    CampaignRunner::new(2)
        .with_journal(&journal)
        .with_trace_dir(&dir)
        .run(&spec)
        .expect("journaled run");

    // Doctor the embedded spec (a different seed) while the header keeps
    // the original pinned hash — the signature of a hand-edited journal.
    let full = fs::read_to_string(&journal).expect("read journal");
    let mut lines = full.lines();
    let header = lines.next().expect("header line");
    let mut header: serde_json::Value = serde_json::parse(header).expect("parse header");
    let edited_spec = CampaignSpec {
        seed: spec.seed + 1,
        ..spec.clone()
    };
    if let serde_json::Value::Object(fields) = &mut header {
        for (key, value) in fields.iter_mut() {
            if key == "spec" {
                *value = serde_json::Value::String(edited_spec.to_json().expect("serialise edit"));
            }
        }
    }
    let mut doctored = serde_json::to_string(&header).expect("serialise header");
    doctored.push('\n');
    for line in lines {
        doctored.push_str(line);
        doctored.push('\n');
    }
    fs::write(&journal, doctored).expect("write doctored journal");

    let err = CampaignRunner::new(2)
        .with_trace_dir(&dir)
        .resume(&journal)
        .expect_err("an edited journal must be refused");
    assert!(
        matches!(&err, CampaignError::Journal(reason) if reason.contains("edited")),
        "unexpected error: {err}"
    );
}

/// The value under `key` in a JSON object.
fn field_mut<'a>(value: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
    let serde_json::Value::Object(fields) = value else {
        panic!("expected a JSON object holding '{key}'");
    };
    fields
        .iter_mut()
        .find_map(|(name, field)| (name == key).then_some(field))
        .unwrap_or_else(|| panic!("object has no field '{key}'"))
}

#[test]
fn resume_rejects_a_journaled_slot_that_does_not_decode() {
    let spec = tiny_spec("resume-corrupt-slot");
    let journal = journal_path("resume-corrupt-slot");
    let _ = fs::remove_file(&journal);
    let dir = trace_root("resume-corrupt-slot");
    wipe(&dir);
    CampaignRunner::new(2)
        .with_journal(&journal)
        .with_trace_dir(&dir)
        .run(&spec)
        .expect("journaled run");

    // Give the first slot a result code no mission produces. The record
    // still parses as JSON, so only decoding the slot can catch it.
    let full = fs::read_to_string(&journal).expect("read journal");
    let mut doctored = String::new();
    let mut tampered = false;
    for line in full.lines() {
        let mut record: serde_json::Value = serde_json::parse(line).expect("parse record");
        if !tampered && record.get("t").and_then(|kind| kind.as_str()) == Some("slot") {
            *field_mut(field_mut(&mut record, "slot"), "result") =
                serde_json::Value::Number(serde_json::Number::PosInt(9));
            doctored.push_str(&serde_json::to_string(&record).expect("serialise record"));
            tampered = true;
        } else {
            doctored.push_str(line);
        }
        doctored.push('\n');
    }
    assert!(tampered, "the journal must hold a slot record to tamper");
    fs::write(&journal, doctored).expect("write doctored journal");

    wipe(&dir);
    let err = CampaignRunner::new(2)
        .with_trace_dir(&dir)
        .resume(&journal)
        .expect_err("a slot that does not decode must be refused");
    assert!(
        matches!(&err, CampaignError::Journal(reason) if reason.contains("unknown mission-result code 9")),
        "unexpected error: {err}"
    );
}

#[test]
fn falsification_search_resumes_byte_identically() {
    // Seed 3 gives a clean baseline over this 1×2 suite, so the search
    // goes on to fly a probe generation (a failing baseline would end it
    // at the origin with nothing but baseline records journaled).
    let mut config = FalsificationConfig {
        seed: 3,
        maps: 1,
        scenarios_per_map: 2,
        repeats: 1,
        failure_threshold: 0.75,
        minimizer_passes: 1,
        minimizer_bisections: 1,
        probe_early_stop: true,
        ..FalsificationConfig::default()
    };
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    let space = FaultSpace::new(
        "resume-search-space",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
        ],
    );
    let searcher = Searcher::GridRefinement(GridRefinementConfig {
        resolution: 2,
        rounds: 0,
    });

    let baseline = FalsificationSearch::new(config.clone(), 2)
        .search_space(SystemVariant::MlsV1, &space, &searcher)
        .expect("unjournaled search");

    let journal = journal_path("resume-search");
    let _ = fs::remove_file(&journal);
    let journaled = FalsificationSearch::new(config.clone(), 2)
        .with_journal(&journal)
        .search_space(SystemVariant::MlsV1, &space, &searcher)
        .expect("journaled search");
    assert_eq!(baseline.probes, journaled.probes, "probe logs diverged");
    assert_eq!(baseline.failing_point, journaled.failing_point);
    assert_eq!(
        baseline.baseline_success_rate,
        journaled.baseline_success_rate
    );

    // Kill the search at every record boundary inside its first probe
    // generation (a torn next record included, as a real kill -9 leaves
    // it), then resume: same probes, same point, same mission count. The
    // baseline campaign journals first; the generation's missions are
    // the records under the next campaign hash.
    let full = fs::read_to_string(&journal).expect("read search journal");
    let hashes: Vec<u64> = full
        .lines()
        .skip(1)
        .map(|line| {
            serde_json::parse(line)
                .expect("parse search journal record")
                .get("hash")
                .and_then(|hash| hash.as_u64())
                .expect("records carry a campaign hash")
        })
        .collect();
    let records = hashes.len();
    let generation_start = hashes
        .iter()
        .position(|hash| *hash != hashes[0])
        .expect("the search must journal its baseline and probe missions");
    let generation_end = hashes[generation_start..]
        .iter()
        .position(|hash| *hash != hashes[generation_start])
        .map_or(records, |offset| generation_start + offset);
    assert!(
        generation_end - generation_start >= 2,
        "the first probe generation must journal several missions"
    );
    for kill_at in generation_start..=generation_end {
        let truncated = journal_path(&format!("resume-search-killed-{kill_at}"));
        let mut prefix = journal_prefix(&full, kill_at);
        if kill_at < records {
            let next = full.lines().nth(1 + kill_at).expect("next record");
            prefix.push_str(&next[..next.len() / 2]);
        }
        fs::write(&truncated, prefix).expect("kill search journal");
        let resumed = FalsificationSearch::new(config.clone(), 2)
            .with_journal(&truncated)
            .search_space(SystemVariant::MlsV1, &space, &searcher)
            .unwrap_or_else(|err| panic!("resume after {kill_at} records failed: {err}"));
        assert_eq!(
            baseline.probes, resumed.probes,
            "resumed probe logs diverged when killed after {kill_at} records"
        );
        assert_eq!(
            baseline.failing_point, resumed.failing_point,
            "failing point diverged when killed after {kill_at} records"
        );
        assert_eq!(
            baseline.missions_flown, resumed.missions_flown,
            "mission accounting diverged when killed after {kill_at} records"
        );
    }
}
