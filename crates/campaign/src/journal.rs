//! The write-ahead result journal: crash-safe campaigns that resume
//! byte-identically.
//!
//! A campaign's artifacts are a pure function of (spec, seed): the runner
//! funnels its job-ordered mission slots through one assembly step,
//! which normalises slots beyond each cell's decided early-stop prefix
//! before anything is persisted. The journal exploits exactly that
//! purity: one fsync'd record per completed mission slot, keyed by the
//! owning spec's configuration hash and the slot's job index, with floats
//! stored as IEEE-754 bit patterns. A resumed run replays the recovered
//! slots and re-flies only the missing ones — and because `fly_mission`
//! is itself pure per (spec, cell, scenario, repeat), the assembled
//! report, traces, counterexamples and corpus index are byte-identical
//! whether the campaign was interrupted zero times or N times.
//!
//! # On-disk format (`mls-journal-v1`)
//!
//! A journal is a JSONL file. The first line is a header pinning the
//! schema, the journal's scope and (when known) the primary spec:
//!
//! ```text
//! {"schema":"mls-journal-v1","scope":"campaign","config_hash":H,"spec":"<canonical spec JSON>"}
//! ```
//!
//! Every subsequent line is one record with a monotonically increasing
//! sequence number `n` (from 0):
//!
//! ```text
//! {"n":0,"t":"slot","hash":H,"job":J,"slot":{...wire slot...}}
//! ```
//!
//! A falsification search journals the same records: each searcher
//! generation is one campaign (a cell per probed point), so its missions
//! journal and resume slot by slot like any other campaign's.
//!
//! # Integrity discipline
//!
//! Appends are serialised under a mutex and each record is `fdatasync`'d
//! before the append returns, so the journal never runs ahead of the work
//! it describes. On open, a torn **final** line (no trailing newline — the
//! signature of a crash mid-append) is dropped and truncated away, not
//! fatal: the run simply re-flies that unit. Everything else is strict —
//! a complete line that fails to parse, a slot that does not decode, an
//! unknown record type, a sequence gap, an unknown schema, or a scope
//! mismatch is a loud [`CampaignError::Journal`], because silently
//! skipping interior corruption would let a damaged journal masquerade as
//! a shorter, valid one.
//!
//! Resume against an *edited* configuration is rejected at open time: a
//! campaign-scope journal pins its spec's configuration hash in the
//! header, and [`JournalHandle::open_primary`] refuses a spec whose hash
//! disagrees — the journal's records would silently mislabel foreign
//! missions otherwise.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use serde_json::{Number, Value};

use crate::spec::CampaignSpec;
use crate::CampaignError;

/// Schema tag of the journal's header line.
pub const JOURNAL_SCHEMA: &str = "mls-journal-v1";

fn err(reason: impl Into<String>) -> CampaignError {
    CampaignError::Journal(reason.into())
}

fn uint(value: u64) -> Value {
    Value::Number(Number::PosInt(value))
}

/// What a journal file covers: one campaign spec, or a whole
/// falsification search (whose baseline, probe and capture campaigns
/// journal under their own per-spec hashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalScope {
    /// One campaign; the header pins the spec and its configuration hash.
    Campaign,
    /// A falsification search; the header pins the baseline spec.
    Search,
}

impl JournalScope {
    fn label(self) -> &'static str {
        match self {
            JournalScope::Campaign => "campaign",
            JournalScope::Search => "search",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        match label {
            "campaign" => Some(JournalScope::Campaign),
            "search" => Some(JournalScope::Search),
            _ => None,
        }
    }
}

/// The parsed header line of a journal file.
#[derive(Debug, Clone)]
pub struct JournalHeader {
    /// What the journal covers.
    pub scope: JournalScope,
    /// Configuration hash of the primary spec, when one was pinned.
    pub config_hash: Option<u64>,
    /// Canonical JSON of the primary spec, when one was pinned — what
    /// [`CampaignRunner::resume`](crate::CampaignRunner::resume) re-runs.
    pub spec_json: Option<String>,
}

/// The append side: one file handle positioned at the end of the valid
/// region, plus the next record sequence number.
struct Writer {
    file: fs::File,
    next_seq: u64,
}

/// An open result journal: the recovered records of previous incarnations
/// plus the fsync'd append channel of this one.
pub struct Journal {
    path: PathBuf,
    header: JournalHeader,
    slots: BTreeMap<(u64, usize), Value>,
    truncated_tail: bool,
    writer: Mutex<Writer>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replaying any
    /// records a previous incarnation completed. `spec`, when given, pins
    /// the header of a freshly created journal.
    fn open(
        path: &Path,
        scope: JournalScope,
        spec: Option<&CampaignSpec>,
    ) -> Result<Self, CampaignError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)
                .map_err(|e| err(format!("cannot create {}: {e}", parent.display())))?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| err(format!("cannot open journal {}: {e}", path.display())))?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)
            .map_err(|e| err(format!("cannot read journal {}: {e}", path.display())))?;

        // The valid region ends at the last newline; a non-empty tail
        // beyond it is a torn append from a crash mid-write. Drop it and
        // truncate, so this incarnation's appends start on a clean
        // boundary instead of gluing onto garbage.
        let valid_len = raw
            .iter()
            .rposition(|byte| *byte == b'\n')
            .map_or(0, |last| last + 1);
        let truncated_tail = valid_len < raw.len();
        if truncated_tail {
            file.set_len(valid_len as u64)
                .map_err(|e| err(format!("cannot truncate journal {}: {e}", path.display())))?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))
            .map_err(|e| err(format!("cannot seek journal {}: {e}", path.display())))?;
        raw.truncate(valid_len);
        let text = String::from_utf8(raw)
            .map_err(|_| err(format!("journal {} is not valid UTF-8", path.display())))?;

        let mut lines = text.lines();
        let header = match lines.next() {
            Some(line) => {
                let header = parse_header(line)
                    .map_err(|reason| err(format!("journal {}: {reason}", path.display())))?;
                if header.scope != scope {
                    return Err(err(format!(
                        "journal {} has {} scope, this runner expects {}",
                        path.display(),
                        header.scope.label(),
                        scope.label()
                    )));
                }
                header
            }
            None => {
                let header = JournalHeader {
                    scope,
                    config_hash: match spec {
                        Some(spec) => Some(spec.config_hash()?),
                        None => None,
                    },
                    spec_json: match spec {
                        Some(spec) => Some(spec.to_json()?),
                        None => None,
                    },
                };
                let line = render_header(&header)?;
                file.write_all(line.as_bytes())
                    .and_then(|()| file.sync_data())
                    .map_err(|e| err(format!("cannot write journal {}: {e}", path.display())))?;
                header
            }
        };

        let mut slots = BTreeMap::new();
        let mut next_seq = 0u64;
        for (index, line) in lines.enumerate() {
            let record = parse_record(line).map_err(|reason| {
                err(format!(
                    "journal {} record {index}: {reason}",
                    path.display()
                ))
            })?;
            if record.seq != next_seq {
                return Err(err(format!(
                    "journal {} record {index} carries sequence {} where {next_seq} was \
                     expected — the journal is missing or reordering records",
                    path.display(),
                    record.seq
                )));
            }
            next_seq += 1;
            slots.insert((record.hash, record.job), record.slot);
        }

        Ok(Self {
            path: path.to_path_buf(),
            header,
            slots,
            truncated_tail,
            writer: Mutex::new(Writer { file, next_seq }),
        })
    }

    /// The journal's parsed header.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Whether opening dropped a torn final record (the crash-mid-append
    /// signature).
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }

    /// Records recovered from previous incarnations.
    pub fn recovered_records(&self) -> usize {
        self.slots.len()
    }

    /// The journaled wire encoding of mission slot `job` of the spec
    /// hashing to `hash`, when a previous incarnation completed it.
    pub fn recovered_slot(&self, hash: u64, job: usize) -> Option<&Value> {
        self.slots.get(&(hash, job))
    }

    /// Appends (and fsyncs) one completed mission slot.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Journal`] when the append cannot be made
    /// durable.
    pub fn append_slot(&self, hash: u64, job: usize, slot: &Value) -> Result<(), CampaignError> {
        let mut writer = self.writer.lock().expect("journal writer poisoned");
        let record = vec![
            ("n".to_string(), uint(writer.next_seq)),
            ("t".to_string(), Value::String("slot".to_string())),
            ("hash".to_string(), uint(hash)),
            ("job".to_string(), uint(job as u64)),
            ("slot".to_string(), slot.clone()),
        ];
        let mut line = serde_json::to_string(&Value::Object(record))
            .map_err(|e| CampaignError::Serialize(e.to_string()))?;
        line.push('\n');
        writer
            .file
            .write_all(line.as_bytes())
            .and_then(|()| writer.file.sync_data())
            .map_err(|e| {
                err(format!(
                    "cannot append to journal {}: {e}",
                    self.path.display()
                ))
            })?;
        writer.next_seq += 1;
        Ok(())
    }
}

/// One parsed journal record: a completed mission slot.
struct Record {
    seq: u64,
    hash: u64,
    job: usize,
    slot: Value,
}

fn field_u64(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn render_header(header: &JournalHeader) -> Result<String, CampaignError> {
    let value = Value::Object(vec![
        (
            "schema".to_string(),
            Value::String(JOURNAL_SCHEMA.to_string()),
        ),
        (
            "scope".to_string(),
            Value::String(header.scope.label().to_string()),
        ),
        (
            "config_hash".to_string(),
            header.config_hash.map_or(Value::Null, uint),
        ),
        (
            "spec".to_string(),
            header.spec_json.clone().map_or(Value::Null, Value::String),
        ),
    ]);
    let mut line =
        serde_json::to_string(&value).map_err(|e| CampaignError::Serialize(e.to_string()))?;
    line.push('\n');
    Ok(line)
}

fn parse_header(line: &str) -> Result<JournalHeader, String> {
    let value = serde_json::parse(line).map_err(|e| format!("unparseable header: {e}"))?;
    let schema = value
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| "header carries no schema".to_string())?;
    if schema != JOURNAL_SCHEMA {
        return Err(format!(
            "unsupported journal schema '{schema}' (this build reads {JOURNAL_SCHEMA})"
        ));
    }
    let scope = value
        .get("scope")
        .and_then(Value::as_str)
        .and_then(JournalScope::from_label)
        .ok_or_else(|| "header carries no recognisable scope".to_string())?;
    let config_hash = match value.get("config_hash") {
        None | Some(Value::Null) => None,
        Some(other) => Some(
            other
                .as_u64()
                .ok_or_else(|| "header config_hash is not a u64".to_string())?,
        ),
    };
    let spec_json = match value.get("spec") {
        None | Some(Value::Null) => None,
        Some(other) => Some(
            other
                .as_str()
                .ok_or_else(|| "header spec is not a string".to_string())?
                .to_string(),
        ),
    };
    Ok(JournalHeader {
        scope,
        config_hash,
        spec_json,
    })
}

fn parse_record(line: &str) -> Result<Record, String> {
    let value = serde_json::parse(line).map_err(|e| format!("unparseable record: {e}"))?;
    let seq = field_u64(&value, "n")?;
    let hash = field_u64(&value, "hash")?;
    match value.get("t").and_then(Value::as_str) {
        Some("slot") => {}
        Some(other) => return Err(format!("unknown record type '{other}'")),
        None => return Err("record carries no type".to_string()),
    }
    Ok(Record {
        seq,
        hash,
        job: field_u64(&value, "job")? as usize,
        slot: value
            .get("slot")
            .cloned()
            .ok_or_else(|| "slot record carries no slot".to_string())?,
    })
}

/// A lazily opened journal shared by every run of one
/// [`CampaignRunner`](crate::CampaignRunner): the path and scope are fixed
/// at construction, the file is opened (and its records replayed) at most
/// once, on the first run that needs it.
pub struct JournalHandle {
    path: PathBuf,
    scope: JournalScope,
    opened: OnceLock<Result<Arc<Journal>, String>>,
}

impl std::fmt::Debug for JournalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalHandle")
            .field("path", &self.path)
            .field("scope", &self.scope)
            .finish_non_exhaustive()
    }
}

impl JournalHandle {
    /// Creates a handle for the journal at `path` with the given scope.
    /// Nothing touches the filesystem until the first open.
    pub fn new(path: PathBuf, scope: JournalScope) -> Self {
        Self {
            path,
            scope,
            opened: OnceLock::new(),
        }
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The handle's scope.
    pub fn scope(&self) -> JournalScope {
        self.scope
    }

    /// Opens the journal as the primary record of `spec`, enforcing the
    /// edited-configuration gate: a pre-existing header whose pinned hash
    /// disagrees with the spec's is rejected loudly.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Journal`] on the hash gate, a scope
    /// mismatch, or any integrity violation in the on-disk journal.
    pub fn open_primary(&self, spec: &CampaignSpec) -> Result<Arc<Journal>, CampaignError> {
        let journal = self.open(Some(spec))?;
        let expected = spec.config_hash()?;
        match journal.header.config_hash {
            Some(found) if found != expected => Err(err(format!(
                "journal {} was written under config hash {found:#018x}, this spec hashes to \
                 {expected:#018x} — refusing to resume a journal against an edited configuration",
                self.path.display()
            ))),
            _ => Ok(journal),
        }
    }

    /// Opens the journal without the primary-spec gate — the form
    /// search-member campaigns use, whose records are keyed by their own
    /// per-spec hashes. A freshly created journal
    /// pins `spec` in its header when one is given.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Journal`] on a scope mismatch or any
    /// integrity violation in the on-disk journal.
    pub fn open_ambient(&self, spec: Option<&CampaignSpec>) -> Result<Arc<Journal>, CampaignError> {
        self.open(spec)
    }

    fn open(&self, spec: Option<&CampaignSpec>) -> Result<Arc<Journal>, CampaignError> {
        self.opened
            .get_or_init(|| {
                Journal::open(&self.path, self.scope, spec)
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .clone()
            .map_err(CampaignError::Journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MissionSlot;
    use crate::wire;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mls-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("journal.jsonl")
    }

    fn open(path: &Path, scope: JournalScope) -> Arc<Journal> {
        JournalHandle::new(path.to_path_buf(), scope)
            .open_ambient(None)
            .expect("journal opens")
    }

    #[test]
    fn records_survive_reopen() {
        let path = scratch("reopen");
        let slot = wire::slot_to_value(&MissionSlot::Skipped).unwrap();
        {
            let journal = open(&path, JournalScope::Campaign);
            journal.append_slot(7, 3, &slot).unwrap();
        }
        let journal = open(&path, JournalScope::Campaign);
        assert!(!journal.truncated_tail());
        assert_eq!(journal.recovered_records(), 1);
        assert!(journal.recovered_slot(7, 3).is_some());
        assert!(journal.recovered_slot(7, 4).is_none());
    }

    #[test]
    fn probe_records_are_an_unknown_record_type() {
        // Searches journal per mission slot; a leftover whole-probe record
        // must fail loudly instead of resuming as a shorter journal.
        let path = scratch("probe-record");
        drop(open(&path, JournalScope::Search));
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"n\":0,\"t\":\"probe\",\"hash\":9,\"planned\":1,\"outcomes\":[2]}\n");
        fs::write(&path, text).unwrap();
        let result = JournalHandle::new(path, JournalScope::Search).open_ambient(None);
        assert!(
            matches!(&result, Err(CampaignError::Journal(reason))
                if reason.contains("unknown record type 'probe'")),
            "{:?}",
            result.err()
        );
    }

    #[test]
    fn torn_final_record_is_dropped_and_truncated() {
        let path = scratch("torn");
        {
            let journal = open(&path, JournalScope::Campaign);
            journal
                .append_slot(1, 0, &wire::slot_to_value(&MissionSlot::Skipped).unwrap())
                .unwrap();
        }
        let intact = fs::read(&path).unwrap();
        let mut torn = intact.clone();
        torn.extend_from_slice(br#"{"n":1,"t":"slot","hash":1,"jo"#);
        fs::write(&path, &torn).unwrap();

        let journal = open(&path, JournalScope::Campaign);
        assert!(journal.truncated_tail());
        assert_eq!(journal.recovered_records(), 1);
        drop(journal);
        // The garbage tail was truncated away, so the file is the intact
        // prefix again and future appends land on a clean boundary.
        assert_eq!(fs::read(&path).unwrap(), intact);
    }

    #[test]
    fn appends_continue_the_sequence_after_a_torn_tail() {
        let path = scratch("torn-append");
        {
            let journal = open(&path, JournalScope::Campaign);
            journal
                .append_slot(1, 0, &wire::slot_to_value(&MissionSlot::Skipped).unwrap())
                .unwrap();
        }
        let mut torn = fs::read(&path).unwrap();
        torn.extend_from_slice(b"garbage without a newline");
        fs::write(&path, &torn).unwrap();
        {
            let journal = open(&path, JournalScope::Campaign);
            journal
                .append_slot(1, 1, &wire::slot_to_value(&MissionSlot::Skipped).unwrap())
                .unwrap();
        }
        let journal = open(&path, JournalScope::Campaign);
        assert!(!journal.truncated_tail());
        assert_eq!(journal.recovered_records(), 2);
    }

    #[test]
    fn interior_corruption_is_loud() {
        let path = scratch("interior");
        {
            let journal = open(&path, JournalScope::Campaign);
            let slot = wire::slot_to_value(&MissionSlot::Skipped).unwrap();
            journal.append_slot(1, 0, &slot).unwrap();
            journal.append_slot(1, 1, &slot).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        let corrupted: String = text
            .lines()
            .enumerate()
            .map(|(index, line)| {
                if index == 1 {
                    "not json\n".to_string()
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        fs::write(&path, corrupted).unwrap();
        let result = JournalHandle::new(path, JournalScope::Campaign).open_ambient(None);
        assert!(result.is_err());
    }

    #[test]
    fn sequence_gaps_are_loud() {
        let path = scratch("gap");
        {
            let journal = open(&path, JournalScope::Campaign);
            let slot = wire::slot_to_value(&MissionSlot::Skipped).unwrap();
            journal.append_slot(1, 0, &slot).unwrap();
            journal.append_slot(1, 1, &slot).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        let gapped: String = text
            .lines()
            .enumerate()
            .filter(|(index, _)| *index != 1)
            .map(|(_, line)| format!("{line}\n"))
            .collect();
        fs::write(&path, gapped).unwrap();
        let result = JournalHandle::new(path, JournalScope::Campaign).open_ambient(None);
        let message = result.err().expect("gap is rejected").to_string();
        assert!(message.contains("sequence"), "{message}");
    }

    #[test]
    fn scope_mismatch_is_loud() {
        let path = scratch("scope");
        drop(open(&path, JournalScope::Campaign));
        let result = JournalHandle::new(path, JournalScope::Search).open_ambient(None);
        assert!(result.is_err());
    }

    #[test]
    fn primary_open_rejects_an_edited_spec() {
        let path = scratch("edited");
        let spec = CampaignSpec::default();
        let mut edited = spec.clone();
        edited.seed = spec.seed.wrapping_add(1);
        let handle = JournalHandle::new(path.clone(), JournalScope::Campaign);
        handle.open_primary(&spec).expect("fresh journal opens");
        // A fresh handle models a new process resuming against an edited
        // configuration; the pinned hash must reject it.
        let reopened = JournalHandle::new(path, JournalScope::Campaign);
        let message = reopened
            .open_primary(&edited)
            .err()
            .expect("edited spec is rejected")
            .to_string();
        assert!(message.contains("config hash"), "{message}");
    }

    #[test]
    fn unknown_schema_is_loud() {
        let path = scratch("schema");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(
            &path,
            "{\"schema\":\"mls-journal-v9\",\"scope\":\"campaign\"}\n",
        )
        .unwrap();
        let result = JournalHandle::new(path, JournalScope::Campaign).open_ambient(None);
        assert!(result.is_err());
    }
}
