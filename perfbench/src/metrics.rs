//! The metric catalogue and the measurement loop that fills it.
//!
//! `END_TO_END` and `PER_LAYER` list every metric with its unit, the
//! direction that is better, and — for layer metrics — the end-to-end
//! metric a change in that layer should move. `BENCHMARK.json` mirrors
//! these lists (a test keeps them in step).

use crate::measure::{self, Phases, RecoverySample, RunSample};
use crate::spans::Tracer;
use crate::stats::{mean, median, quantile, Metric};
use crate::workload::{prepare_repeated, Prepared, Workload};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric(s) a change in this layer should move.
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
    }
}

/// What a user of the engine sees, reported with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    def("ticks_per_s", "1/s", "higher", ""),
    def("tick_p50_us", "us", "lower", ""),
    def("tick_p99_us", "us", "lower", ""),
    def("checkpoint_p50_ms", "ms", "lower", ""),
    def("recovery_p50_ms", "ms", "lower", ""),
    def("setup_s", "s", "lower", ""),
    def("peak_rss_mb", "MB", "lower", ""),
];

/// Single layers, named after the repository's modules, reported with
/// `--trace 1`.
#[rustfmt::skip]
pub const PER_LAYER: &[Def] = &[
    def("workload.pull_p50_us",         "us",    "lower",  "ticks_per_s, recovery_p50_ms"),
    def("core.tick_p50_us",             "us",    "lower",  "tick_p50_us, tick_p99_us, ticks_per_s"),
    def("core.bit_ops_per_tick",        "count", "lower",  "tick_p50_us, ticks_per_s"),
    def("core.copies_per_tick",         "count", "lower",  "tick_p50_us, tick_p99_us"),
    def("core.locks_per_tick",          "count", "lower",  "tick_p50_us, tick_p99_us"),
    def("core.apply_ns",                "ns",    "lower",  "recovery_p50_ms, ticks_per_s"),
    def("engine.overhead_p50_us",       "us",    "lower",  "tick_p50_us"),
    def("engine.overhead_p99_us",       "us",    "lower",  "tick_p99_us"),
    def("engine.sync_pause_p99_us",     "us",    "lower",  "tick_p99_us"),
    def("writer.ack_p50_ms",            "ms",    "lower",  "checkpoint_p50_ms"),
    def("writer.ack_p90_ms",            "ms",    "lower",  "checkpoint_p50_ms"),
    def("writer.checkpoints",           "count", "higher", "checkpoint_p50_ms, ticks_per_s"),
    def("writer.fsyncs_per_job",        "count", "lower",  "checkpoint_p50_ms"),
    def("writer.batch_jobs_avg",        "count", "higher", "checkpoint_p50_ms"),
    def("writer.sqe_batch_avg",         "count", "higher", "checkpoint_p50_ms"),
    def("writer.kb_per_checkpoint",     "KiB",   "lower",  "checkpoint_p50_ms"),
    def("writer.flush_mbps",            "MB/s",  "higher", "checkpoint_p50_ms, ticks_per_s"),
    def("writer.device_frac",           "frac",  "higher", "checkpoint_p50_ms"),
    def("writer.retries",               "count", "lower",  "checkpoint_p50_ms"),
    def("writer.degraded_jobs",         "count", "lower",  "checkpoint_p50_ms"),
    def("files.write_mbps",             "MB/s",  "higher", "checkpoint_p50_ms"),
    def("files.sync_ms",                "ms",    "lower",  "checkpoint_p50_ms"),
    def("files.commit_ms",              "ms",    "lower",  "checkpoint_p50_ms"),
    def("log_store.append_mbps",        "MB/s",  "higher", "checkpoint_p50_ms"),
    def("log_store.sync_ms",            "ms",    "lower",  "checkpoint_p50_ms"),
    def("device.bdisk_mbps",            "MB/s",  "higher", "checkpoint_p50_ms"),
    def("recovery.open_ms",             "ms",    "lower",  "recovery_p50_ms"),
    def("recovery.read_ms",             "ms",    "lower",  "recovery_p50_ms"),
    def("recovery.adopt_ms",            "ms",    "lower",  "recovery_p50_ms"),
    def("recovery.skip_ms",             "ms",    "lower",  "recovery_p50_ms"),
    def("recovery.apply_ms",            "ms",    "lower",  "recovery_p50_ms"),
    def("recovery.ticks_skipped",       "count", "lower",  "recovery_p50_ms"),
    def("recovery.ticks_replayed",      "count", "lower",  "recovery_p50_ms"),
    def("recovery.updates_replayed",    "count", "lower",  "recovery_p50_ms"),
    def("recovery.closure_err",         "frac",  "lower",  "recovery_p50_ms"),
    def("replica.fetch_ms",             "ms",    "lower",  "recovery_p50_ms"),
    def("replica.hit_frac",             "frac",  "higher", "recovery_p50_ms, peak_rss_mb"),
    def("sharded.recovery_parallelism", "count", "higher", "recovery_p50_ms"),
    def("run.outside_loop_frac",        "frac",  "lower",  "ticks_per_s"),
    def("tracing.overhead_frac",        "frac",  "lower",  ""),
];

/// Largest accepted `recovery.closure_err`: the phase-by-phase replay
/// and the `recover_*` call do the same work, so their times must agree
/// this closely.
pub const CLOSURE_TOLERANCE: f64 = 0.10;

/// |phase-by-phase time − `recover_*` time| ÷ `recover_*` time, each
/// taken as the median of its samples. Both must run on threads of
/// their own: where a thread runs moves these times by up to a fifth.
pub fn closure_error(phased: &[f64], whole: &[f64]) -> f64 {
    (median(phased) - median(whole)).abs() / median(whole)
}

/// Set-up repetitions per invocation (`setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Recoveries of each finished run.
const RECOVERIES_PER_ROUND: usize = 2;
/// Rounds every measured phase runs at least, however short `--seconds`.
const MIN_ROUNDS: usize = 2;
/// Checkpoints a round must complete for its checkpoint percentiles to
/// count, so that its p90 (`writer.ack_p90_ms`) has ten beyond it. The traces are sized for
/// about 300 per round; a round that falls short ran while the device
/// was several times slower than usual.
const MIN_CHECKPOINTS: f64 = 100.0;
/// Store cycles timed per layer microbenchmark.
const STORE_CYCLES: usize = 12;
/// Repetitions of the no-op driver run and of the apply loop.
const CORE_REPS: usize = 3;
/// Updates timed by the apply loop.
const APPLY_UPDATES: usize = 1 << 20;

pub fn moves(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .map_or("", |d| d.moves)
}

fn metric(name: &'static str, samples: Vec<f64>) -> Metric {
    let d = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
    Metric::new(d.name, d.unit, d.better, samples)
}

/// Everything one invocation measured.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rounds: usize,
    /// Writer backends that ran, as the engine reported them.
    pub writers: Vec<&'static str>,
    pub tracer: Option<Arc<Tracer>>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Attempts and failures over runs and recovery samples.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Writer backends the runs reported as the ones that ran.
    writers: BTreeSet<&'static str>,
}

impl Tally {
    /// Count one attempt; returns whether it passed.
    fn attempt(&mut self, errors: &[String]) -> bool {
        self.attempted += 1;
        if errors.is_empty() {
            return true;
        }
        self.failed += 1;
        self.errors.extend(errors.iter().cloned());
        false
    }
}

/// One round's run reduced to the figures the metrics use, so rounds do
/// not keep full reports: those would grow the benchmark's own memory
/// into the peak it measures.
struct RunFigures {
    wall_s: f64,
    ticks_per_s: f64,
    tick_p50_us: f64,
    tick_p99_us: f64,
    pull_p50_us: f64,
    outside_loop_frac: f64,
    checkpoint_p50_ms: f64,
    ack_p50_ms: f64,
    ack_p90_ms: f64,
    overhead_p50_us: f64,
    overhead_p99_us: f64,
    sync_pause_p99_us: f64,
    bit_ops_per_tick: f64,
    copies_per_tick: f64,
    locks_per_tick: f64,
    checkpoints: f64,
    kb_per_checkpoint: f64,
    flush_mbps: f64,
    /// Mean objects per normal (non-full-flush) checkpoint of shard 0.
    objects_per_checkpoint: f64,
    detail: mmoc_core::RealRunDetail,
}

impl RunFigures {
    fn of(x: &RunSample) -> Self {
        let world = &x.report.world.metrics;
        let ticks = |f: fn(&mmoc_core::TickMetrics) -> f64| -> Vec<f64> {
            world.ticks.iter().map(f).collect()
        };
        let checkpoints = |f: fn(&mmoc_core::CheckpointRecord) -> f64| -> Vec<f64> {
            world.checkpoints.iter().map(f).collect()
        };
        let durations = checkpoints(|c| c.duration_s);
        let acks = checkpoints(|c| c.duration_s - c.sync_pause_s);
        let overheads = ticks(|t| t.overhead_s);
        let n_ckpt = world.checkpoints.len() as f64;
        RunFigures {
            wall_s: x.wall_s,
            ticks_per_s: x.report.ticks as f64 / x.wall_s,
            tick_p50_us: quantile(&x.ticks.tick_s, 0.5) * 1e6,
            tick_p99_us: quantile(&x.ticks.tick_s, 0.99) * 1e6,
            pull_p50_us: quantile(&x.ticks.pull_s, 0.5) * 1e6,
            outside_loop_frac: (x.wall_s - x.ticks.loop_s) / x.wall_s,
            checkpoint_p50_ms: quantile(&durations, 0.5) * 1e3,
            ack_p50_ms: quantile(&acks, 0.5) * 1e3,
            ack_p90_ms: quantile(&acks, 0.9) * 1e3,
            overhead_p50_us: quantile(&overheads, 0.5) * 1e6,
            overhead_p99_us: quantile(&overheads, 0.99) * 1e6,
            sync_pause_p99_us: quantile(&ticks(|t| t.sync_pause_s), 0.99) * 1e6,
            bit_ops_per_tick: mean(&ticks(|t| t.bit_ops as f64)),
            copies_per_tick: mean(&ticks(|t| t.copies as f64)),
            locks_per_tick: mean(&ticks(|t| t.locks as f64)),
            checkpoints: n_ckpt,
            kb_per_checkpoint: world.total_bytes_written() as f64 / n_ckpt.max(1.0) / 1024.0,
            flush_mbps: x.detail.bytes_written as f64 / x.wall_s / 1e6,
            objects_per_checkpoint: x.report.shards[0]
                .summary
                .metrics
                .avg_objects_per_normal_checkpoint(),
            detail: x.detail,
        }
    }
}

/// The rounds whose checkpoint percentiles count (see
/// [`MIN_CHECKPOINTS`]).
fn resolved(runs: &[RunFigures]) -> Vec<&RunFigures> {
    runs.iter()
        .filter(|x| x.checkpoints >= MIN_CHECKPOINTS)
        .collect()
}

/// The rounds of one measured phase.
#[derive(Default)]
struct Rounds {
    runs: Vec<RunFigures>,
    recoveries: Vec<RecoverySample>,
    /// Phase-by-phase recoveries (traced rounds only), one per shard.
    phases: Vec<Phases>,
}

/// Run rounds until `budget` has passed (at least [`MIN_ROUNDS`]): one
/// engine run, then [`RECOVERIES_PER_ROUND`] recoveries of it, and with a
/// tracer one more recovery replayed phase by phase.
fn run_rounds(
    w: &Workload,
    prep: &Prepared,
    work: &Path,
    budget: Duration,
    tracer: Option<&Arc<Tracer>>,
    tally: &mut Tally,
) -> Rounds {
    let dir = work.join("run");
    let deadline = Instant::now() + budget;
    let mut out = Rounds::default();
    let mut attempts = 0;
    while attempts < MIN_ROUNDS || Instant::now() < deadline {
        attempts += 1;
        let replicas = w.replica_set(&prep.map);
        let run = match measure::run_once(w, prep, &dir, replicas.clone(), tracer) {
            Ok(run) => run,
            Err(e) => {
                tally.attempt(&[format!("run failed: {e}")]);
                continue;
            }
        };
        tally.writers.insert(run.detail.writer_backend.label());
        if !tally.attempt(&run.errors) {
            continue;
        }
        out.runs.push(RunFigures::of(&run));
        drop(run);
        for _ in 0..RECOVERIES_PER_ROUND {
            let sample = measure::recover_once(w, prep, &dir, replicas.as_deref());
            if tally.attempt(&sample.errors) {
                out.recoveries.push(sample);
            }
        }
        if let Some(t) = tracer {
            match traced_recovery(w, prep, &dir, replicas.as_deref(), t) {
                Ok(phases) => {
                    tally.attempt(&[]);
                    out.phases.extend(phases);
                }
                Err(e) => {
                    tally.attempt(&[format!("phase-by-phase recovery failed: {e}")]);
                }
            }
        }
    }
    let short = out.runs.len() - resolved(&out.runs).len();
    if short == out.runs.len() && short > 0 {
        tally.attempt(&[format!("no round completed {MIN_CHECKPOINTS} checkpoints")]);
    } else if short > 0 {
        eprintln!(
            "perfbench: {short} of {} rounds completed fewer than {MIN_CHECKPOINTS} checkpoints; their checkpoint times are left out",
            out.runs.len()
        );
    }
    out
}

/// One recovery replayed phase by phase, every shard on its own thread,
/// under one `recovery.sample` span.
fn traced_recovery(
    w: &Workload,
    prep: &Prepared,
    dir: &Path,
    replicas: Option<&mmoc_storage::ReplicaSet>,
    tracer: &Arc<Tracer>,
) -> io::Result<Vec<Phases>> {
    let root = tracer.open();
    let t0 = Instant::now();
    let results: Vec<io::Result<Phases>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..prep.n_shards())
            .map(|s| {
                scope
                    .spawn(move || measure::recover_phases(w, prep, dir, replicas, s, tracer, root))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recovery thread panicked"))
            .collect()
    });
    tracer.close(root, "recovery.sample", 0, None, t0, Instant::now());
    results.into_iter().collect()
}

/// Peak resident memory of the process so far. Set-up streams the trace
/// and keeps only the ground-truth tables, so the peak is the run phase's.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// Run one workload for `seconds` and collect its metrics.
pub fn bench(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: &Path,
) -> io::Result<Outcome> {
    let (prep, setup_s) = prepare_repeated(w, seed, &work.join("setup"), SETUP_REPS)?;
    let budget = Duration::from_secs(seconds);
    let mut tally = Tally::default();
    let (metrics, rounds, tracer) = if trace {
        let tracer = Arc::new(Tracer::new());
        let (metrics, rounds) = per_layer(w, &prep, work, budget, &tracer, &mut tally)?;
        (metrics, rounds, Some(tracer))
    } else {
        let r = run_rounds(w, &prep, work, budget, None, &mut tally);
        let rss = peak_rss_mb()?;
        (end_to_end(&r, setup_s, rss), r.runs.len(), None)
    };
    Ok(Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        rounds,
        writers: tally.writers.into_iter().collect(),
        tracer,
    })
}

fn per_round<T>(xs: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    xs.iter().map(f).collect()
}

fn end_to_end(r: &Rounds, setup_s: Vec<f64>, peak_rss_mb: f64) -> Vec<Metric> {
    let runs = &r.runs;
    let ckpt = resolved(runs);
    vec![
        metric("ticks_per_s", per_round(runs, |x| x.ticks_per_s)),
        metric("tick_p50_us", per_round(runs, |x| x.tick_p50_us)),
        metric("tick_p99_us", per_round(runs, |x| x.tick_p99_us)),
        metric(
            "checkpoint_p50_ms",
            per_round(&ckpt, |x| x.checkpoint_p50_ms),
        ),
        metric(
            "recovery_p50_ms",
            per_round(&r.recoveries, |s| s.wall_s * 1e3),
        ),
        metric("setup_s", setup_s),
        metric("peak_rss_mb", vec![peak_rss_mb]),
    ]
}

/// The traced invocation: untraced rounds for half the budget, traced
/// rounds for the other half, then timed calls into single layers.
fn per_layer(
    w: &Workload,
    prep: &Prepared,
    work: &Path,
    budget: Duration,
    tracer: &Arc<Tracer>,
    tally: &mut Tally,
) -> io::Result<(Vec<Metric>, usize)> {
    let probe_dir = work.join("probe");
    std::fs::create_dir_all(&probe_dir)?;
    let t0 = Instant::now();
    let bdisk_mbps = mmoc_bench::micro::measure_disk_bandwidth(&probe_dir)? / 1e6;
    tracer.record("device.probe", 0, None, t0, Instant::now());

    let plain = run_rounds(w, prep, work, budget / 2, None, tally);
    let traced = run_rounds(w, prep, work, budget / 2, Some(tracer), tally);
    let runs = &traced.runs;
    let ckpt = resolved(runs);

    let core: Vec<f64> = (0..CORE_REPS)
        .map(|_| measure::core_ticks(w, prep, tracer).map(|t| quantile(&t.tick_s, 0.5) * 1e6))
        .collect::<io::Result<_>>()?;
    let apply: Vec<f64> = (0..CORE_REPS)
        .map(|_| measure::apply_ns(prep, APPLY_UPDATES, tracer))
        .collect::<io::Result<_>>()?;

    // Store microbenchmarks at the workload's checkpoint size.
    let objects = mean(&per_round(runs, |x| x.objects_per_checkpoint))
        .round()
        .max(1.0) as u32;
    let g0 = prep.map.shard_geometry(0);
    let files = measure::backup_cycles(g0, &work.join("files"), objects, STORE_CYCLES, tracer)?;
    let log = measure::log_cycles(g0, &work.join("log"), objects, STORE_CYCLES, tracer)?;

    let recover_star: Vec<f64> = traced
        .recoveries
        .iter()
        .flat_map(|s| s.shard_s.iter().copied())
        .collect();
    let phase_total = per_round(&traced.phases, Phases::total_s);
    let closure = closure_error(&phase_total, &recover_star);
    if closure > CLOSURE_TOLERANCE {
        // A measurement-quality warning, not an output failure.
        eprintln!(
            "perfbench: warning: recovery phases and recover_* differ by {closure:.3} (tolerance {CLOSURE_TOLERANCE})"
        );
    }
    let n_shards = prep.n_shards();
    let per_sample = |f: fn(&Phases) -> f64| -> Vec<f64> {
        traced
            .phases
            .chunks(n_shards)
            .map(|c| c.iter().map(f).sum())
            .collect()
    };
    let served: Vec<bool> = traced
        .recoveries
        .iter()
        .flat_map(|s| s.from_replica.iter().copied())
        .chain(traced.phases.iter().map(|p| p.from_replica))
        .collect();
    let hit_frac = served.iter().filter(|&&b| b).count() as f64 / served.len().max(1) as f64;
    let wall_plain = median(&per_round(&plain.runs, |x| x.wall_s));
    let wall_traced = median(&per_round(runs, |x| x.wall_s));

    let ms = |f: fn(&Phases) -> f64| per_round(&traced.phases, |p| f(p) * 1e3);
    let metrics = vec![
        metric("workload.pull_p50_us", per_round(runs, |x| x.pull_p50_us)),
        metric("core.tick_p50_us", core),
        metric(
            "core.bit_ops_per_tick",
            per_round(runs, |x| x.bit_ops_per_tick),
        ),
        metric(
            "core.copies_per_tick",
            per_round(runs, |x| x.copies_per_tick),
        ),
        metric("core.locks_per_tick", per_round(runs, |x| x.locks_per_tick)),
        metric("core.apply_ns", apply),
        metric(
            "engine.overhead_p50_us",
            per_round(runs, |x| x.overhead_p50_us),
        ),
        metric(
            "engine.overhead_p99_us",
            per_round(runs, |x| x.overhead_p99_us),
        ),
        metric(
            "engine.sync_pause_p99_us",
            per_round(runs, |x| x.sync_pause_p99_us),
        ),
        metric("writer.ack_p50_ms", per_round(&ckpt, |x| x.ack_p50_ms)),
        metric("writer.ack_p90_ms", per_round(&ckpt, |x| x.ack_p90_ms)),
        metric("writer.checkpoints", per_round(runs, |x| x.checkpoints)),
        metric(
            "writer.fsyncs_per_job",
            per_round(runs, |x| x.detail.fsyncs_per_job()),
        ),
        metric(
            "writer.batch_jobs_avg",
            per_round(runs, |x| x.detail.avg_batch_jobs),
        ),
        metric(
            "writer.sqe_batch_avg",
            per_round(runs, |x| x.detail.avg_sqe_batch),
        ),
        metric(
            "writer.kb_per_checkpoint",
            per_round(runs, |x| x.kb_per_checkpoint),
        ),
        metric("writer.flush_mbps", per_round(runs, |x| x.flush_mbps)),
        metric(
            "writer.device_frac",
            per_round(runs, |x| x.flush_mbps / bdisk_mbps),
        ),
        metric(
            "writer.retries",
            per_round(runs, |x| x.detail.retries as f64),
        ),
        metric(
            "writer.degraded_jobs",
            per_round(runs, |x| x.detail.degraded_jobs as f64),
        ),
        metric(
            "files.write_mbps",
            per_round(&files, |c| c.bytes as f64 / c.write_s / 1e6),
        ),
        metric("files.sync_ms", per_round(&files, |c| c.sync_s * 1e3)),
        metric("files.commit_ms", per_round(&files, |c| c.commit_s * 1e3)),
        metric(
            "log_store.append_mbps",
            per_round(&log, |c| c.bytes as f64 / c.write_s / 1e6),
        ),
        metric("log_store.sync_ms", per_round(&log, |c| c.sync_s * 1e3)),
        metric("device.bdisk_mbps", vec![bdisk_mbps]),
        metric("recovery.open_ms", ms(|p| p.open_s)),
        metric("recovery.read_ms", ms(|p| p.read_s)),
        metric("recovery.adopt_ms", ms(|p| p.adopt_s)),
        metric("recovery.skip_ms", ms(|p| p.skip_s)),
        metric("recovery.apply_ms", ms(|p| p.apply_s)),
        metric(
            "recovery.ticks_skipped",
            per_sample(|p| p.ticks_skipped as f64),
        ),
        metric(
            "recovery.ticks_replayed",
            per_sample(|p| p.ticks_replayed as f64),
        ),
        metric(
            "recovery.updates_replayed",
            per_sample(|p| p.updates_replayed as f64),
        ),
        metric("recovery.closure_err", vec![closure]),
        metric(
            "replica.fetch_ms",
            traced
                .phases
                .iter()
                .filter(|p| p.from_replica)
                .map(|p| p.read_s * 1e3)
                .collect(),
        ),
        metric("replica.hit_frac", vec![hit_frac]),
        metric(
            "sharded.recovery_parallelism",
            per_round(&traced.recoveries, |s| {
                s.shard_s.iter().sum::<f64>() / s.wall_s
            }),
        ),
        metric(
            "run.outside_loop_frac",
            per_round(runs, |x| x.outside_loop_frac),
        ),
        metric(
            "tracing.overhead_frac",
            vec![(wall_traced - wall_plain) / wall_plain],
        ),
    ];
    Ok((metrics, runs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly this catalogue, with the same
    /// units and directions.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name, d.unit, d.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        // Every listed workload exists here; redo-ring is the one left out.
        let listed: Vec<&str> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|n| compact.contains(&format!("{{\"name\":\"{n}\",\"why\":")))
            .collect();
        assert_eq!(listed, ["cou-zipf", "game-replica"]);
        assert_eq!(compact.matches("\"why\":").count(), listed.len());
    }
}
