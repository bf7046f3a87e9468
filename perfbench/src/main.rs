//! End-to-end and per-layer benchmark of the RH NOrec reproduction.
//!
//! ```text
//! perfbench --workload <rbtree-smt|kv-steal|batch-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload built from the seed, checks its outputs against the
//! benchmark's own models, and prints as its last line one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! catalogue untraced, the per-layer catalogue with `--trace 1`). The
//! traced run also writes its spans to `perfbench/out/`. See README.md.

mod batch_zipf;
mod kv_steal;
mod rbtree_smt;
mod report;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use report::{Outcome, END_TO_END, PER_LAYER};

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run: per-layer metrics and spans instead of end-to-end.
    pub trace: bool,
}

/// Writes a traced run's spans to `perfbench/out/<workload>.jsonl`
/// (relative to the directory the benchmark runs from), replacing the
/// previous traced run's. A write error is reported and leaves the
/// result line alone.
pub fn write_spans(workload: &str, spans: &spans::Spans) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{workload}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()));
    match written {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: could not write {}: {e}", path.display()),
    }
}

const WORKLOADS: [&str; 3] = ["rbtree-smt", "kv-steal", "batch-zipf"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<(String, RunArgs)> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().ok()?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))?,
                )
            }
            "--trace" => {
                trace = Some(matches!(value.as_str(), "1")).filter(|_| value == "0" || value == "1")
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some((
        workload,
        RunArgs {
            seed: seed?,
            seconds: Duration::from_secs(seconds?),
            trace: trace?,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((workload, run)) = parse(&args) else {
        return usage();
    };
    let outcome = match workload.as_str() {
        "rbtree-smt" => rbtree_smt::run(run),
        "kv-steal" => kv_steal::run(run),
        _ => batch_zipf::run(run),
    };
    let catalogue = if run.trace { PER_LAYER } else { END_TO_END };
    let outcome = Outcome {
        metrics: outcome.metrics.restrict(catalogue),
        ..outcome
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, r) = parse(&args("--workload kv-steal --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (w.as_str(), r.seed, r.seconds.as_secs(), r.trace),
            ("kv-steal", 7, 10, true)
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload kv-steal --seed x --seconds 1 --trace 0",
            "--workload kv-steal --seed 1 --seconds 0 --trace 0",
            "--workload kv-steal --seed 1 --seconds 1 --trace 2",
            "--workload kv-steal --seed 1 --seconds 1",
            "--workload kv-steal --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(&args(bad)).is_none(), "{bad}");
        }
    }
}
