//! What a run prints and persists: run-time provenance, the human
//! summary, the one-line JSON result and the span artifact.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::layers::PER_LAYER;
use crate::workloads::RunOptions;
use crate::{RunResult, END_TO_END};

/// Where a result came from, read when the benchmark runs (never baked in
/// at build time, so a rebuilt-but-not-reconfigured binary cannot report
/// a stale revision).
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Hardware threads the OS offers.
    pub nproc: usize,
    /// Mission workers used.
    pub threads: usize,
    /// Build profile of this binary.
    pub profile: &'static str,
}

impl Provenance {
    /// Reads the provenance of a run at `threads` workers from the
    /// checkout rooted at `root`.
    pub fn read(root: &Path, threads: usize) -> Self {
        Self {
            git_rev: git_rev(root).unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// Resolves `HEAD` of the git checkout at `root` by reading `.git`
/// directly (loose ref, then `packed-refs`); `None` when `root` is not a
/// git checkout.
pub fn git_rev(root: &Path) -> Option<String> {
    let mut git = root.join(".git");
    if git.is_file() {
        // A linked checkout: `.git` names the real git directory.
        let pointer = fs::read_to_string(&git).ok()?;
        git = root.join(pointer.trim().strip_prefix("gitdir:")?.trim());
    }
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref:").map(str::trim) else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

/// Formats a float with all its digits, as JSON (non-finite → 0).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The metrics a run reports: end-to-end with tracing off, per-layer with
/// it on.
pub fn reported_metrics(result: &RunResult, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        let layers = result.layers.as_ref().map(|l| &l.metrics);
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = layers.and_then(|m| m.get(name)).copied().unwrap_or(0.0);
                (*name, value, *unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| (*name, result.end_to_end[name], *unit))
            .collect()
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(result: &RunResult, trace: bool) -> String {
    let metrics = reported_metrics(result, trace)
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.tally.failed == 0,
        result.tally.attempted,
        result.tally.failed
    )
}

/// The human summary printed before the result line.
pub fn summary(options: &RunOptions, provenance: &Provenance, result: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "repobench {} seed={} seconds={} trace={} | git {} | nproc {} threads {} | {} build",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        provenance.git_rev,
        provenance.nproc,
        provenance.threads,
        provenance.profile
    );
    let walls: Vec<String> = result
        .timed
        .round_walls
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    let _ = writeln!(
        out,
        "untraced: {} round(s) of {} missions, round walls [{}] s",
        walls.len(),
        result.timed.missions,
        walls.join(", ")
    );
    for (name, unit) in END_TO_END {
        let _ = writeln!(out, "  {name:<16} {:>14.6} {unit}", result.end_to_end[name]);
    }
    let _ = writeln!(
        out,
        "  {:<16} {:>14.6} ratio ({} failed of {} attempted)",
        "failed_ratio",
        result.tally.failed as f64 / result.tally.attempted.max(1) as f64,
        result.tally.failed,
        result.tally.attempted
    );
    for failure in &result.tally.failures {
        let _ = writeln!(out, "  FAILED: {failure}");
    }
    if let Some(layers) = &result.layers {
        let _ = writeln!(out, "traced run: per-layer metrics");
        for (name, value, unit) in reported_metrics(result, true) {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        }
        for (variant, busy) in &layers.by_variant {
            let mut ranked: Vec<(&&str, &f64)> = busy.iter().collect();
            ranked.sort_by(|a, b| b.1.total_cmp(a.1));
            let total: f64 = busy.values().sum();
            let top: Vec<String> = ranked
                .iter()
                .take(3)
                .map(|(layer, s)| format!("{layer} {s:.3} s"))
                .collect();
            let _ = writeln!(
                out,
                "  largest layers on {variant} missions ({total:.3} s of layer time): {}",
                top.join(", ")
            );
        }
    }
    out
}

/// Writes the run's artifact — provenance, every metric, per-variant layer
/// time and every span — once, atomically.
pub fn write_artifact(
    dir: &Path,
    options: &RunOptions,
    provenance: &Provenance,
    result: &RunResult,
) -> std::io::Result<PathBuf> {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"schema\":\"repobench-v1\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"git_rev\":\"{}\",\"nproc\":{},\"threads\":{},\"profile\":\"{}\",\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"round_walls_s\":[{}]",
        options.workload.name(),
        options.seed,
        num(options.seconds),
        options.trace,
        mls_obs::json_escape(&provenance.git_rev),
        provenance.nproc,
        provenance.threads,
        provenance.profile,
        result.tally.failed == 0,
        result.tally.attempted,
        result.tally.failed,
        result
            .tally
            .failures
            .iter()
            .map(|f| format!("\"{}\"", mls_obs::json_escape(f)))
            .collect::<Vec<_>>()
            .join(","),
        result
            .timed
            .round_walls
            .iter()
            .map(|w| num(*w))
            .collect::<Vec<_>>()
            .join(","),
    );
    let metrics = |trace: bool| {
        reported_metrics(result, trace)
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = write!(json, ",\"end_to_end\":{{{}}}", metrics(false));
    if let (Some(layers), Some(traced)) = (&result.layers, &result.traced) {
        let _ = write!(json, ",\"per_layer\":{{{}}}", metrics(true));
        let by_variant = layers
            .by_variant
            .iter()
            .map(|(variant, busy)| {
                let layers = busy
                    .iter()
                    .map(|(layer, s)| format!("\"{layer}\":{}", num(*s)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("\"{variant}\":{{{layers}}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(json, ",\"busy_s_by_variant\":{{{by_variant}}}");
        // Spans as [mission, id, parent (-1: none), layer, start_ns, end_ns].
        json.push_str(",\"spans\":[");
        let mut first = true;
        for span in traced.missions.iter().flat_map(|t| &t.spans) {
            if !first {
                json.push(',');
            }
            first = false;
            let parent = span.parent.map_or(-1, i64::from);
            let _ = write!(
                json,
                "[{},{},{},\"{}\",{},{}]",
                span.mission,
                span.id,
                parent,
                span.layer.name(),
                span.start,
                span.end
            );
        }
        json.push(']');
    }
    json.push_str("}\n");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        options.workload.name(),
        options.seed,
        u8::from(options.trace)
    ));
    mls_obs::atomic_write(&path, json.as_bytes())?;
    Ok(path)
}
