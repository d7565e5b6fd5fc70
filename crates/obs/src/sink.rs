//! File sinks: the versioned JSONL event log and hand-rolled JSON
//! rendering (the obs crate is dependency-free by design, so it writes
//! its own JSON — the subset it emits is flat objects of scalars).

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag stamped on the first line of every JSONL log. Bump when the
/// event shape changes incompatibly.
pub const SCHEMA: &str = "mls-obs-v1";

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (non-finite values become `null`,
/// which keeps the log parseable no matter what an instrument observed).
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Incremental builder for one flat JSON object, rendered as a single line.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&json_escape(key));
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&json_escape(value));
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&json_f64(value));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the one-line rendering.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Seconds since the Unix epoch, as a float (best-effort: 0 when the
/// clock is before the epoch).
pub fn unix_seconds() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// A per-process artifact file name, `<stem>-<pid>.<ext>`, so processes
/// sharing one artifact directory stay collision-free.
pub fn artifact_name(stem: &str, ext: &str) -> String {
    format!("{stem}-{}.{ext}", std::process::id())
}

/// The append-only JSONL event log. Opens lazily on the first event so a
/// run that enables obs but emits nothing leaves no file behind; writes
/// are best-effort (an unwritable sink must never perturb the engine).
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    writer: Mutex<Option<BufWriter<File>>>,
}

impl EventLog {
    /// A log that will write `obs-<pid>.jsonl` under `dir` when first
    /// used.
    pub fn new(dir: &Path) -> Self {
        Self {
            path: dir.join(artifact_name("obs", "jsonl")),
            writer: Mutex::new(None),
        }
    }

    /// The file this log writes to (whether or not it exists yet).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one pre-rendered JSON line. Opens the file (writing the
    /// schema header line) on first use; errors are swallowed.
    pub fn write_line(&self, line: &str) {
        let mut guard = match self.writer.lock() {
            Ok(guard) => guard,
            Err(_) => return,
        };
        if guard.is_none() {
            let Some(writer) = self.open() else { return };
            *guard = Some(writer);
        }
        if let Some(writer) = guard.as_mut() {
            let _ = writer.write_all(line.as_bytes());
            let _ = writer.write_all(b"\n");
        }
    }

    fn open(&self) -> Option<BufWriter<File>> {
        let dir = self.path.parent()?;
        fs::create_dir_all(dir).ok()?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .ok()?;
        let mut writer = BufWriter::new(file);
        let mut header = JsonObject::new();
        header
            .str("schema", SCHEMA)
            .u64("pid", u64::from(std::process::id()))
            .f64("start_unix_s", unix_seconds());
        let _ = writer.write_all(header.finish().as_bytes());
        let _ = writer.write_all(b"\n");
        Some(writer)
    }

    /// Flushes buffered events to disk. Returns the log path when the file
    /// was actually created (i.e. at least one event was written).
    pub fn flush(&self) -> Option<PathBuf> {
        let mut guard = self.writer.lock().ok()?;
        let writer = guard.as_mut()?;
        let _ = writer.flush();
        Some(self.path.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_control_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn object_builder_renders_flat_json() {
        let mut object = JsonObject::new();
        object
            .str("event", "probe")
            .u64("count", 3)
            .i64("delta", -2)
            .f64("seconds", 0.25)
            .f64("bad", f64::NAN)
            .bool("ok", true);
        assert_eq!(
            object.finish(),
            r#"{"event":"probe","count":3,"delta":-2,"seconds":0.25,"bad":null,"ok":true}"#
        );
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
