//! `repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--threads <n>]`
//!
//! Runs one workload (`sil-open`, `planner-constrained`, `falsify-v1`),
//! prints a human summary and, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. Exits 1 when a correctness check failed,
//! 2 on a usage or set-up error.

use std::path::Path;
use std::process::ExitCode;

use mls_repobench::report::{result_line, summary, write_artifact, Provenance};
use mls_repobench::workloads::{RunOptions, Workload};

fn usage(message: &str) -> ExitCode {
    eprintln!("repobench: {message}");
    eprintln!(
        "usage: repobench --workload <sil-open|planner-constrained|falsify-v1> --seed <n> \
         --seconds <s> --trace <0|1> [--threads <n>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--threads" => match value.parse::<usize>() {
                Ok(n) if (1..=64).contains(&n) => threads = n,
                _ => return usage(&format!("bad --threads {value}")),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };

    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    let options = RunOptions {
        workload,
        seed,
        seconds,
        trace,
        threads,
        work_dir: out_dir.join(format!("work-{}-{seed}", workload.name())),
    };
    let provenance = Provenance::read(bench_dir.parent().unwrap_or(bench_dir), threads);
    let _ = std::fs::remove_dir_all(&options.work_dir);

    let result = match mls_repobench::run(&options) {
        Ok(result) => result,
        Err(err) => {
            eprintln!("repobench: set-up failed: {err}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&options.work_dir);
    print!("{}", summary(&options, &provenance, &result));
    match write_artifact(&out_dir, &options, &provenance, &result) {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(err) => eprintln!("repobench: could not write the artifact: {err}"),
    }
    println!("{}", result_line(&result, trace));
    if result.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
