//! Build-time host metadata for the persisted perf reports.
//!
//! `BENCH_perf.json` numbers are only comparable across commits when the
//! report says what produced them, so the git revision and the cargo
//! profile are resolved here and baked into the binary — no runtime git
//! dependency, and a stale working tree can't mislabel a measurement.

use std::process::Command;

fn main() {
    let rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=MLS_GIT_REV={rev}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=MLS_BUILD_PROFILE={profile}");

    // Re-stamp when the checked-out commit moves. HEAD changes only on a
    // branch switch or a detached checkout; a commit on the current branch
    // moves the branch's ref file instead, or `packed-refs` when the ref is
    // packed, so both are watched too.
    let git_dir = "../../.git";
    println!("cargo:rerun-if-changed={git_dir}/HEAD");
    if let Ok(head) = std::fs::read_to_string(format!("{git_dir}/HEAD")) {
        if let Some(reference) = head.trim().strip_prefix("ref: ") {
            println!("cargo:rerun-if-changed={git_dir}/{reference}");
        }
    }
    println!("cargo:rerun-if-changed={git_dir}/packed-refs");
}
