//! The self-check corpus: every rule's positive and negative case pinned
//! against the fixture files, plus the exact JSON diagnostics for the whole
//! corpus as a golden artifact.
//!
//! Regenerate the golden after an intentional diagnostic change with
//! `MLS_LINT_BLESS=1 cargo test -p mls-lint --test fixtures`.

use std::fs;
use std::path::{Path, PathBuf};

use mls_lint::lint_files;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_files() -> Vec<String> {
    let mut files: Vec<String> = fs::read_dir(fixtures_root())
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_rule_has_a_pinned_positive_and_negative_case() {
    for rule in mls_lint::rules::RULES {
        let lower = rule.to_lowercase();
        let bad = lint_files(&fixtures_root(), &[format!("fixture_{lower}_bad.rs")])
            .expect("lint bad fixture");
        assert_eq!(
            bad.findings.len(),
            1,
            "{rule} positive case must yield exactly one finding: {:?}",
            bad.findings
        );
        assert_eq!(bad.findings[0].rule, rule);
        assert!(!bad.clean(), "{rule} positive case must fail the run");

        let ok = lint_files(&fixtures_root(), &[format!("fixture_{lower}_ok.rs")])
            .expect("lint ok fixture");
        assert!(
            ok.clean(),
            "{rule} negative case must be clean: {:?}",
            ok.findings
        );
    }
}

#[test]
fn allow_grammar_suppresses_stales_and_rejects_malformed() {
    let root = fixtures_root();

    let allowed = lint_files(&root, &["fixture_allow_ok.rs".into()]).expect("lint allow fixture");
    assert!(allowed.clean(), "{:?}", allowed.findings);
    assert_eq!(allowed.suppressed.len(), 1);
    assert_eq!(allowed.suppressed[0].rule, "D001");
    assert_eq!(
        allowed.suppressed[0].reason,
        "membership-only duplicate check, never iterated"
    );

    let stale = lint_files(&root, &["fixture_stale_allow.rs".into()]).expect("lint stale fixture");
    assert_eq!(stale.findings.len(), 1, "{:?}", stale.findings);
    assert_eq!(stale.findings[0].rule, "A001");

    let malformed =
        lint_files(&root, &["fixture_malformed_allow.rs".into()]).expect("lint malformed fixture");
    let rules: Vec<&str> = malformed.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(
        rules.contains(&"A000") && rules.contains(&"D001"),
        "a reason-less allow is a finding and suppresses nothing: {rules:?}"
    );
}

#[test]
fn golden_json_diagnostics_for_the_whole_corpus() {
    let report = lint_files(&fixtures_root(), &fixture_files()).expect("lint corpus");
    let rendered = report.to_json();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fixtures_lint.json");
    if std::env::var_os("MLS_LINT_BLESS").is_some() {
        fs::create_dir_all(golden_path.parent().expect("golden dir")).expect("mkdir");
        fs::write(&golden_path, &rendered).expect("bless golden");
    }
    let golden = fs::read_to_string(&golden_path)
        .expect("golden missing — run MLS_LINT_BLESS=1 cargo test -p mls-lint --test fixtures");
    assert_eq!(
        rendered, golden,
        "diagnostics drifted from tests/golden/fixtures_lint.json; re-bless if intentional"
    );
}

#[test]
fn report_json_is_parseable() {
    let report = lint_files(&fixtures_root(), &fixture_files()).expect("lint corpus");
    let value: serde_json::Value =
        serde_json::parse(&report.to_json()).expect("report must be valid JSON");
    assert_eq!(
        value.get("schema").and_then(|v| v.as_str()),
        Some("mls-lint-v1")
    );
}
