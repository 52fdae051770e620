//! The repository benchmark: the paper's three costs — tick latency,
//! checkpoint time and recovery time — measured on the real engine over
//! a recorded trace, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cou-zipf --seed 1 --seconds 12 --trace 0
//! ```
//!
//! One invocation runs one workload (see `workload::WORKLOADS`):
//!
//! 1. **Set-up** (timed as `setup_s`, repeated): record the workload's
//!    trace file from `--seed` and apply it in memory shard by shard to
//!    get each shard's ground-truth fingerprint. The engine only ever
//!    sees the recorded file; it is removed at exit.
//! 2. **Rounds**, until `--seconds` have passed: one `Run::execute` over
//!    the file with every engine knob pinned, then several recoveries of
//!    the finished run through the public `mmoc_storage::recovery`
//!    functions, each checked against the ground truth.
//! 3. With `--trace 0`, the end-to-end metrics; with `--trace 1`, half
//!    the time runs untraced and half traced (spans around every call
//!    into a layer, written to `.perfbench-out/` at exit), followed by
//!    timed calls into single layers, and the per-layer metrics.
//!
//! Every metric is printed with its median, quartiles, sample count and
//! raw per-round values; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 0 only when every output check passed.

mod measure;
mod metrics;
mod spans;
mod stats;
mod workload;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Run length used when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 12;
/// Scratch files of running invocations (trace file, engine files).
const WORK_ROOT: &str = ".perfbench-work";
/// Span traces and full reports kept after the run.
const OUT_ROOT: &str = ".perfbench-out";

const USAGE: &str = "usage: perfbench --workload <cou-zipf|redo-ring|game-replica> \
                     [--seed N] [--seconds N] [--trace 0|1]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(&flag, &value()?)?,
            "--seconds" => args.seconds = number(&flag, &value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn number(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
}

/// Removes the invocation's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind either (fails while another
        // invocation still holds a directory there, which is fine).
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = workload::check_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let Some(w) = workload::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let work = WorkDir(Path::new(WORK_ROOT).join(format!(
        "{}-s{}-p{}",
        w.name,
        args.seed,
        std::process::id()
    )));
    let outcome = metrics::bench(w, args.seed, args.seconds, args.trace, &work.0);
    drop(work);
    match outcome.and_then(|out| report(w, &args, &out).map(|()| out)) {
        Ok(out) if out.correct() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print the human-readable table, keep the full report (raw samples
/// included) under `.perfbench-out/`, and print the result line last.
fn report(w: &workload::Workload, args: &Args, out: &metrics::Outcome) -> io::Result<()> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} rounds={} cores={cores}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.rounds
    );
    println!(
        "  {} x{} shards, writer {} (ran: {}), depth {}, replication {}",
        w.algorithm.name(),
        w.shards,
        w.writer,
        out.writers.join(", "),
        w.pipeline_depth,
        w.replication
    );
    for m in &out.metrics {
        println!("{}", m.lines());
        let moves = metrics::moves(m.name);
        if !moves.is_empty() {
            println!("      moves: {moves}");
        }
    }
    println!(
        "  failed_frac {:.6} ({} of {} runs and recovery samples)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    std::fs::create_dir_all(OUT_ROOT)?;
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let detail: Vec<String> = out.metrics.iter().map(stats::Metric::detail_json).collect();
    let path = Path::new(OUT_ROOT).join(format!("{stem}.json"));
    std::fs::write(
        &path,
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"rounds\":{},\"metrics\":[{}]}}\n",
            w.name,
            args.seed,
            args.seconds,
            args.trace,
            out.rounds,
            detail.join(",")
        ),
    )?;
    println!("  report: {}", path.display());
    if let Some(tracer) = &out.tracer {
        let spans = Path::new(OUT_ROOT).join(format!("{stem}.spans.jsonl"));
        tracer.write_jsonl(&spans)?;
        println!("  spans: {} ({} spans)", spans.display(), tracer.len());
    }
    println!(
        "{}",
        stats::result_line(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse(&["--workload", "cou-zipf"]).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        let a = parse(&[
            "--workload",
            "redo-ring",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x", "--seconds"]).is_err());
        assert!(parse(&["--workload", "x", "--bogus", "1"]).is_err());
    }
}
