//! The D001–D005 and D007 rule catalog and the `mls-lint: allow`
//! machinery (D006 is retired, never reused).
//!
//! Every rule is a pass over the lexed token stream of one file, scoped by
//! the file's [`FileClass`] (which protocol surfaces the path belongs to)
//! and skipping `#[cfg(test)]` / `#[test]` regions — test code may panic,
//! spawn and time freely, because the determinism contract it exists to
//! *check* only covers shipped paths. `docs/LINT.md` is the rule catalog
//! with the rationale for each rule and the exact allow grammar.

use std::collections::BTreeMap;

use crate::lexer::{lex, number_is_float, Token, TokenKind};
use crate::report::{Finding, Suppressed};

/// The rule identifiers, in catalog order. `A000`/`A001` are the
/// meta-rules (malformed and stale allows) and cannot be allowed away.
pub const RULES: [&str; 6] = ["D001", "D002", "D003", "D004", "D005", "D007"];

/// Which restricted surfaces a file belongs to. Derived from the
/// workspace-relative path by [`classify`]; fixture files (named
/// `fixture_*.rs`) get every restriction so each rule can be pinned by a
/// self-contained test corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// D001 applies: report/trace/wire/corpus serialization paths, where
    /// iteration order becomes artifact bytes.
    pub serialization: bool,
    /// D005 applies: wire/frame encoders, where floats must cross as
    /// `to_bits` and never as formatted text.
    pub wire: bool,
    /// D003 *exempt*: the `MissionExecutor` pool — the only sanctioned
    /// thread-spawn site.
    pub spawn_sanctioned: bool,
    /// D002 *exempt*: `mls-obs` (the clock belongs to observability) and
    /// `mls-bench` (wall-clock measurement is its purpose; `BENCH_perf.json`
    /// is expected to vary run to run).
    pub clock_exempt: bool,
    /// D007 applies: artifact writer paths, where durable outputs must go
    /// through `mls_obs::atomic_write` (tmp + fsync + rename) so a crash
    /// never leaves a torn file under the final name.
    pub artifact: bool,
}

impl FileClass {
    /// Every restriction on, no exemptions — the class fixture files get.
    pub fn restricted() -> Self {
        FileClass {
            serialization: true,
            wire: true,
            spawn_sanctioned: false,
            clock_exempt: false,
            artifact: true,
        }
    }
}

/// Classifies a workspace-relative path (forward slashes) onto the
/// restricted surfaces. The path lists mirror the protocol surfaces named
/// in `docs/ARCHITECTURE.md` ("Determinism contract").
pub fn classify(rel: &str) -> FileClass {
    let name = rel.rsplit('/').next().unwrap_or(rel);
    if name.starts_with("fixture_") {
        return FileClass::restricted();
    }
    let serialization = rel.starts_with("crates/trace/src/")
        || matches!(
            rel,
            "crates/campaign/src/report.rs"
                | "crates/campaign/src/wire.rs"
                | "crates/campaign/src/spec.rs"
        );
    let wire = matches!(
        rel,
        "crates/campaign/src/wire.rs" | "crates/trace/src/format.rs"
    );
    let spawn_sanctioned = rel == "crates/campaign/src/executor.rs";
    let clock_exempt = rel.starts_with("crates/obs/src/") || rel.starts_with("crates/bench/src/");
    let artifact = rel.starts_with("crates/trace/src/")
        || rel.starts_with("crates/obs/src/")
        || rel.starts_with("crates/bench/src/")
        || matches!(
            rel,
            "crates/campaign/src/journal.rs"
                | "crates/campaign/src/report.rs"
                | "crates/campaign/src/search.rs"
                | "crates/lint/src/bin/mls-lint.rs"
        );
    FileClass {
        serialization,
        wire,
        spawn_sanctioned,
        clock_exempt,
        artifact,
    }
}

/// A parsed `// mls-lint: allow(D00x): <reason>` comment.
#[derive(Debug)]
struct Allow {
    rule: String,
    reason: String,
    /// Line the comment sits on.
    line: u32,
    /// Line the allow applies to: its own line when trailing code, the
    /// next code line when the comment stands alone.
    target: u32,
    /// Set once a finding is suppressed by this allow; a cold allow is
    /// stale and reported as A001.
    used: bool,
    in_test: bool,
}

/// Everything the engine derives from one file before rules run.
struct FileView<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    /// Indices into `tokens` of code tokens (no whitespace, no comments).
    code: Vec<usize>,
    /// Per-token flag: inside a `#[cfg(test)]` module or `#[test]` fn body.
    in_test: Vec<bool>,
    lines: Vec<&'a str>,
}

impl<'a> FileView<'a> {
    fn new(src: &'a str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let in_test = test_regions(src, &tokens, &code);
        FileView {
            src,
            tokens,
            code,
            in_test,
            lines: src.lines().collect(),
        }
    }

    fn text(&self, token_index: usize) -> &'a str {
        self.tokens[token_index].text(self.src)
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map_or(String::new(), |l| l.trim().to_string())
    }

    /// The code token `offset` positions before/after `code[pos]`.
    fn rel(&self, pos: usize, offset: isize) -> Option<usize> {
        let target = pos as isize + offset;
        if target < 0 {
            return None;
        }
        self.code.get(target as usize).copied()
    }

    fn is_punct(&self, token_index: Option<usize>, ch: &str) -> bool {
        token_index.is_some_and(|i| self.tokens[i].kind == TokenKind::Punct && self.text(i) == ch)
    }

    fn is_ident(&self, token_index: Option<usize>, name: &str) -> bool {
        token_index.is_some_and(|i| self.tokens[i].kind == TokenKind::Ident && self.text(i) == name)
    }
}

/// Computes, for every token, whether it sits inside test-only code:
/// the brace block following a `#[cfg(test)]` or `#[test]` attribute,
/// transitively. `#[cfg(not(test))]` does not count.
fn test_regions(src: &str, tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    // Stack of open braces; each entry records whether its block is test.
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_test = false;
    let mut c = 0usize;
    while c < code.len() {
        let i = code[c];
        let inside = pending_test || stack.last().copied().unwrap_or(false);
        // Everything from here to the region exit keeps the current flag.
        in_test[i] = stack.last().copied().unwrap_or(false) || pending_test;
        let tok = &tokens[i];
        if tok.kind == TokenKind::Punct {
            match tok.text(src) {
                "#" => {
                    // Scan the attribute `#[…]` / `#![…]`, collecting idents.
                    let mut d = c + 1;
                    if code.get(d).is_some_and(|&j| tokens[j].text(src) == "!") {
                        d += 1;
                    }
                    if code.get(d).is_some_and(|&j| tokens[j].text(src) == "[") {
                        let mut depth = 0usize;
                        let mut idents: Vec<&str> = Vec::new();
                        while let Some(&j) = code.get(d) {
                            in_test[j] = inside;
                            match tokens[j].text(src) {
                                "[" => depth += 1,
                                "]" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                t if tokens[j].kind == TokenKind::Ident => idents.push(t),
                                _ => {}
                            }
                            d += 1;
                        }
                        let is_test_attr = idents.as_slice() == ["test"]
                            || (idents.first() == Some(&"cfg")
                                && idents.contains(&"test")
                                && !idents.contains(&"not"));
                        pending_test = pending_test || is_test_attr;
                        c = d + 1;
                        continue;
                    }
                }
                "{" => {
                    stack.push(inside);
                    pending_test = false;
                }
                "}" => {
                    stack.pop();
                }
                ";" => pending_test = false,
                _ => {}
            }
        }
        c += 1;
    }
    in_test
}

/// Parses allow comments out of the token stream. Malformed ones (bad rule
/// id, missing reason) become `A000` findings immediately.
fn collect_allows(view: &FileView<'_>, file: &str, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, tok) in view.tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = view.text(i).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("mls-lint:") else {
            continue;
        };
        let line = tok.line;
        let mut fail = |message: String| {
            findings.push(Finding {
                rule: "A000".into(),
                file: file.into(),
                line,
                snippet: view.snippet(line),
                message,
            });
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else {
            fail("malformed mls-lint comment: expected `allow(D00x): <reason>`".into());
            continue;
        };
        let Some((rule, rest)) = rest.split_once(')') else {
            fail("malformed allow: missing `)` after the rule id".into());
            continue;
        };
        if !RULES.contains(&rule) {
            fail(format!(
                "unknown rule `{rule}` in allow (catalog: D001-D005, D007; D006 is retired)"
            ));
            continue;
        }
        let reason = rest.trim_start_matches(':').trim();
        if reason.is_empty() {
            fail(format!(
                "allow({rule}) without a reason — the justification is mandatory"
            ));
            continue;
        }
        // A comment with code before it on the same line targets that line;
        // a standalone comment targets the next line holding code.
        let standalone = !view
            .code
            .iter()
            .any(|&j| view.tokens[j].line == line && view.tokens[j].start < tok.start);
        let target = if standalone { line + 1 } else { line };
        let in_test = view
            .code
            .iter()
            .find(|&&j| view.tokens[j].line >= target)
            .is_some_and(|&j| view.in_test[j]);
        allows.push(Allow {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line,
            target,
            used: false,
            in_test,
        });
    }
    allows
}

/// Runs every rule over one file. `rel` is the workspace-relative path used
/// in diagnostics; `class` scopes the path-dependent rules. Returns the
/// surviving findings (allow-suppressed ones removed, `A000`/`A001` meta
/// findings added) plus the suppressions that were exercised.
pub fn check_source(rel: &str, src: &str, class: FileClass) -> (Vec<Finding>, Vec<Suppressed>) {
    let view = FileView::new(src);
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows = collect_allows(&view, rel, &mut findings);
    let mut raw: Vec<Finding> = Vec::new();

    let mut emit = |rule: &str, line: u32, message: String| {
        raw.push(Finding {
            rule: rule.into(),
            file: rel.into(),
            line,
            snippet: view.snippet(line),
            message,
        });
    };

    for (pos, &i) in view.code.iter().enumerate() {
        if view.in_test[i] {
            continue;
        }
        let tok = &view.tokens[i];
        let line = tok.line;
        match tok.kind {
            TokenKind::Ident => {
                let name = view.text(i);
                let path_call = |target: &str| {
                    // `name :: target` — the qualified-call shape every
                    // clock/spawn rule keys on.
                    view.is_punct(view.rel(pos, 1), ":")
                        && view.is_punct(view.rel(pos, 2), ":")
                        && view.is_ident(view.rel(pos, 3), target)
                };
                match name {
                    "HashMap" | "HashSet" if class.serialization => emit(
                        "D001",
                        line,
                        format!(
                            "{name} in a serialization path: iteration order becomes \
                             artifact bytes — use BTreeMap/BTreeSet or an explicit sort"
                        ),
                    ),
                    "Instant" | "SystemTime" if !class.clock_exempt && path_call("now") => {
                        // Gated pattern: `observing.then(Instant::now)` —
                        // the obs-enabled flag decides whether the clock is
                        // read at all, so determinism is obs-independent.
                        // Walk back over leading path segments so the
                        // fully-qualified `observing.then(std::time::…)`
                        // form gates too.
                        let mut head = pos;
                        while view.is_punct(view.rel(head, -1), ":")
                            && view.is_punct(view.rel(head, -2), ":")
                            && view
                                .rel(head, -3)
                                .is_some_and(|j| view.tokens[j].kind == TokenKind::Ident)
                        {
                            head -= 3;
                        }
                        let gated = view.is_punct(view.rel(head, -1), "(")
                            && view.is_ident(view.rel(head, -2), "then");
                        if !gated {
                            emit(
                                "D002",
                                line,
                                format!(
                                    "{name}::now() outside mls-obs and not behind an \
                                     obs-enabled `.then(…)` gate: wall clock reads must \
                                     never influence report bytes"
                                ),
                            );
                        }
                    }
                    "thread" if !class.spawn_sanctioned && path_call("spawn") => emit(
                        "D003",
                        line,
                        "thread::spawn outside MissionExecutor: ad-hoc threads \
                         break the deterministic scheduling argument"
                            .into(),
                    ),
                    "OsRng" | "ThreadRng" | "thread_rng" | "from_entropy" | "getrandom"
                    | "RandomState" => emit(
                        "D004",
                        line,
                        format!(
                            "{name}: unseeded entropy — every stochastic component \
                             must draw from the vendored seeded RNG"
                        ),
                    ),
                    "to_string" if class.wire => {
                        // Only a float receiver trips the rule: a lexer
                        // cannot type-check, but `1.5.to_string()` and
                        // `(x as f64).to_string()`-style chains it can see.
                        let receiver_float = view
                            .rel(pos, -1)
                            .filter(|&d| view.tokens[d].kind == TokenKind::Punct)
                            .filter(|&d| view.text(d) == ".")
                            .and_then(|_| view.rel(pos, -2))
                            .is_some_and(|r| {
                                (view.tokens[r].kind == TokenKind::Number
                                    && number_is_float(view.text(r)))
                                    || view.text(r) == "f32"
                                    || view.text(r) == "f64"
                                    // `(x as f64).to_string()` — the cast is
                                    // the last token before the close paren.
                                    || (view.text(r) == ")"
                                        && view.rel(pos, -3).is_some_and(|q| {
                                            view.text(q) == "f32" || view.text(q) == "f64"
                                        }))
                            });
                        if receiver_float {
                            emit(
                                "D005",
                                line,
                                "float formatted with to_string() in a wire path: \
                                 floats cross the wire as to_bits() only"
                                    .into(),
                            );
                        }
                    }
                    "File" if class.artifact && path_call("create") => emit(
                        "D007",
                        line,
                        "File::create in an artifact path: a crash mid-write leaves a \
                         torn file under the final name — write durable artifacts via \
                         mls_obs::atomic_write (tmp + fsync + rename)"
                            .into(),
                    ),
                    "fs" if class.artifact && path_call("write") => emit(
                        "D007",
                        line,
                        "fs::write in an artifact path: a crash mid-write leaves a \
                         torn file under the final name — write durable artifacts via \
                         mls_obs::atomic_write (tmp + fsync + rename)"
                            .into(),
                    ),
                    _ => {}
                }
            }
            TokenKind::Str | TokenKind::RawStr if class.wire => {
                let text = view.text(i);
                for spec in ["{:?}", "{:#?}", "{:e}", "{:E}"] {
                    if text.contains(spec) {
                        emit(
                            "D005",
                            line,
                            format!(
                                "`{spec}` format in a wire path string: debug/exponent \
                                 rendering is not a stable wire encoding — floats cross \
                                 as to_bits(), frames as canonical fields"
                            ),
                        );
                        break;
                    }
                }
            }
            _ => {}
        }
    }

    // Apply allows: a finding is suppressed when an allow for its rule
    // targets its line.
    let mut suppressed = Vec::new();
    for finding in raw {
        let hit = allows
            .iter_mut()
            .find(|a| a.rule == finding.rule && a.target == finding.line);
        match hit {
            Some(allow) => {
                allow.used = true;
                suppressed.push(Suppressed {
                    rule: finding.rule,
                    file: finding.file,
                    line: finding.line,
                    reason: allow.reason.clone(),
                });
            }
            None => findings.push(finding),
        }
    }

    // A cold allow is itself an error: the violation it justified is gone,
    // so the justification must go too (or the rule drifted — either way a
    // human looks). Allows inside test regions are ignored, not stale:
    // rules never ran there.
    for allow in &allows {
        if !allow.used && !allow.in_test {
            findings.push(Finding {
                rule: "A001".into(),
                file: rel.into(),
                line: allow.line,
                snippet: view.snippet(allow.line),
                message: format!(
                    "stale allow({}): line {} no longer trips the rule — remove the \
                     allow or restore the justification",
                    allow.rule, allow.target
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    (findings, suppressed)
}

/// Per-rule finding counts, for the report summary.
pub fn count_by_rule(findings: &[Finding]) -> BTreeMap<String, usize> {
    let mut by_rule = BTreeMap::new();
    for f in findings {
        *by_rule.entry(f.rule.clone()).or_insert(0) += 1;
    }
    by_rule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_knows_the_protocol_surfaces() {
        assert!(classify("crates/trace/src/format.rs").serialization);
        assert!(classify("crates/trace/src/format.rs").wire);
        assert!(classify("crates/campaign/src/wire.rs").wire);
        assert!(classify("crates/campaign/src/executor.rs").spawn_sanctioned);
        assert!(!classify("crates/campaign/src/runner.rs").spawn_sanctioned);
        assert!(classify("crates/obs/src/span.rs").clock_exempt);
        assert!(classify("crates/bench/src/bin/perfsuite.rs").clock_exempt);
        assert!(classify("crates/trace/src/corpus.rs").artifact);
        assert!(classify("crates/campaign/src/journal.rs").artifact);
        assert!(classify("crates/lint/src/bin/mls-lint.rs").artifact);
        assert!(!classify("crates/planning/src/astar.rs").artifact);
        assert!(!classify("crates/planning/src/astar.rs").serialization);
        assert_eq!(
            classify("fixtures/fixture_d001_bad.rs"),
            FileClass::restricted()
        );
    }

    #[test]
    fn test_regions_shield_rules() {
        let src = "
fn ship() { let t = std::time::Instant::now(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let t = std::time::Instant::now(); }
}
";
        let (findings, _) = check_source("x.rs", src, FileClass::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod ship { fn f() { std::thread::spawn(|| ()); } }\n";
        let (findings, _) = check_source("x.rs", src, FileClass::default());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "D003");
    }

    #[test]
    fn gated_clock_reads_pass() {
        let src = "fn f(observing: bool) { let t = observing.then(Instant::now); }\n";
        let (findings, _) = check_source("x.rs", src, FileClass::default());
        assert!(findings.is_empty(), "{findings:?}");

        let qualified =
            "fn f(observing: bool) { let t = observing.then(std::time::Instant::now); }\n";
        let (findings, _) = check_source("x.rs", qualified, FileClass::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn float_to_string_variants_trip_d005() {
        let class = FileClass {
            wire: true,
            ..FileClass::default()
        };
        for src in [
            "fn f() -> String { 1.5f64.to_string() }\n",
            "fn f(x: u32) -> String { (x as f64).to_string() }\n",
        ] {
            let (findings, _) = check_source("x.rs", src, class);
            assert_eq!(findings.len(), 1, "{src}: {findings:?}");
            assert_eq!(findings[0].rule, "D005");
        }
        // Strings stay allowed: only float receivers trip the rule.
        let (findings, _) =
            check_source("x.rs", "fn f() -> String { \"cell\".to_string() }\n", class);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allows_suppress_and_go_stale() {
        let good = "// mls-lint: allow(D003): test harness thread, joined before asserts\n\
                    fn f() { std::thread::spawn(|| ()); }\n";
        let (findings, suppressed) = check_source("x.rs", good, FileClass::default());
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].rule, "D003");

        let stale = "// mls-lint: allow(D003): nothing here anymore\nfn f() {}\n";
        let (findings, _) = check_source("x.rs", stale, FileClass::default());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "A001");

        let missing_reason = "// mls-lint: allow(D003)\nfn f() { std::thread::spawn(|| ()); }\n";
        let (findings, _) = check_source("x.rs", missing_reason, FileClass::default());
        assert!(findings.iter().any(|f| f.rule == "A000"));
        assert!(findings.iter().any(|f| f.rule == "D003"));
    }

    #[test]
    fn torn_write_shapes_trip_d007() {
        let class = FileClass {
            artifact: true,
            ..FileClass::default()
        };
        for src in [
            "fn f() { let file = std::fs::File::create(\"report.json\").unwrap(); }\n",
            "fn f() { std::fs::write(\"report.json\", b\"{}\").unwrap(); }\n",
        ] {
            let (findings, _) = check_source("x.rs", src, class);
            assert_eq!(findings.len(), 1, "{src}: {findings:?}");
            assert_eq!(findings[0].rule, "D007");
        }
        // Outside artifact paths and inside tests the shapes are free.
        let (findings, _) = check_source(
            "x.rs",
            "fn f() { std::fs::write(\"scratch\", b\"x\").unwrap(); }\n",
            FileClass::default(),
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn strings_and_comments_never_trip_ident_rules() {
        let src = "fn f() { let s = \"thread::spawn HashMap OsRng\"; } // Instant::now()\n";
        let (findings, _) = check_source("x.rs", src, FileClass::restricted());
        assert!(findings.is_empty(), "{findings:?}");
    }
}
