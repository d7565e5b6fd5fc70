//! `MLS_OBS` / `MLS_OBS_DIR` parsing into an [`ObsConfig`].
//!
//! Grammar of `MLS_OBS` (case-insensitive, whitespace ignored):
//!
//! | value                  | effect                                    |
//! |------------------------|-------------------------------------------|
//! | unset, ``, `0`, `off`  | observability fully off                   |
//! | `1`, `on`              | JSONL log + exposition dump               |
//! | `all`                  | JSONL + exposition + stderr progress line |
//! | comma list             | exactly the named sinks                   |
//!
//! Comma-list tokens: `jsonl`, `expo` (or `exposition`), `progress`.
//! Unknown tokens are ignored so a newer flag in an older binary degrades
//! to "fewer sinks", never to a crash.
//!
//! `MLS_OBS_DIR` overrides where artifacts land (default
//! `target/reports/obs`).

use std::path::PathBuf;

/// Default artifact directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/reports/obs";

/// Which sinks an observability run drives, and where file sinks write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Append structured events to the versioned JSONL log under [`ObsConfig::dir`].
    pub jsonl: bool,
    /// Write a Prometheus-style text exposition dump on [`crate::flush`].
    pub exposition: bool,
    /// Print a throttled progress line to stderr while missions fly.
    pub progress: bool,
    /// Directory the JSONL log and exposition dump land in.
    pub dir: PathBuf,
}

impl ObsConfig {
    /// Everything off — the default when `MLS_OBS` is unset.
    pub fn disabled() -> Self {
        Self {
            jsonl: false,
            exposition: false,
            progress: false,
            dir: PathBuf::from(DEFAULT_DIR),
        }
    }

    /// The `MLS_OBS=1` configuration: JSONL log + exposition dump.
    pub fn standard() -> Self {
        Self {
            jsonl: true,
            exposition: true,
            ..Self::disabled()
        }
    }

    /// The `MLS_OBS=all` configuration: every sink.
    pub fn all() -> Self {
        Self {
            progress: true,
            ..Self::standard()
        }
    }

    /// Whether any sink is configured at all.
    pub fn any_sink(&self) -> bool {
        self.jsonl || self.exposition || self.progress
    }

    /// Parses the contents of `MLS_OBS` and `MLS_OBS_DIR` (passed as
    /// values so tests never mutate process environment).
    pub fn from_values(obs: Option<&str>, dir: Option<&str>) -> Self {
        let mut config = match obs.map(str::trim) {
            None | Some("" | "0") => Self::disabled(),
            Some(value) => match value.to_ascii_lowercase().as_str() {
                "off" | "none" | "false" => Self::disabled(),
                "1" | "on" | "true" => Self::standard(),
                "all" => Self::all(),
                list => {
                    let mut config = Self::disabled();
                    for token in list.split(',').map(str::trim) {
                        match token {
                            "jsonl" => config.jsonl = true,
                            "expo" | "exposition" => config.exposition = true,
                            "progress" => config.progress = true,
                            _ => {}
                        }
                    }
                    config
                }
            },
        };
        if let Some(dir) = dir.map(str::trim).filter(|dir| !dir.is_empty()) {
            config.dir = PathBuf::from(dir);
        }
        config
    }

    /// Reads `MLS_OBS` / `MLS_OBS_DIR` from the process environment.
    pub fn from_env() -> Self {
        Self::from_values(
            std::env::var("MLS_OBS").ok().as_deref(),
            std::env::var("MLS_OBS_DIR").ok().as_deref(),
        )
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_zero_mean_off() {
        for value in [None, Some(""), Some("0"), Some("off"), Some("  OFF ")] {
            let config = ObsConfig::from_values(value, None);
            assert!(!config.any_sink(), "{value:?} should disable obs");
        }
    }

    #[test]
    fn one_and_on_enable_file_sinks_only() {
        for value in ["1", "on", "ON", " true "] {
            let config = ObsConfig::from_values(Some(value), None);
            assert!(config.jsonl && config.exposition && !config.progress);
        }
    }

    #[test]
    fn all_enables_everything() {
        let config = ObsConfig::from_values(Some("all"), None);
        assert!(config.jsonl && config.exposition && config.progress);
    }

    #[test]
    fn comma_list_selects_exact_sinks() {
        let config = ObsConfig::from_values(Some("progress, expo"), None);
        assert!(!config.jsonl && config.exposition && config.progress);
        let config = ObsConfig::from_values(Some("jsonl"), None);
        assert!(config.jsonl && !config.exposition && !config.progress);
    }

    #[test]
    fn unknown_tokens_are_ignored() {
        let config = ObsConfig::from_values(Some("jsonl,flamegraph"), None);
        assert!(config.jsonl && !config.exposition);
    }

    #[test]
    fn dir_override_applies() {
        let config = ObsConfig::from_values(Some("1"), Some("/tmp/obs-test"));
        assert_eq!(config.dir, PathBuf::from("/tmp/obs-test"));
        let config = ObsConfig::from_values(Some("1"), Some("  "));
        assert_eq!(config.dir, PathBuf::from(DEFAULT_DIR));
    }
}
