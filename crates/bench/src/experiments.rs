//! The evaluation experiments (§5–6): one function per figure.
//!
//! Every function returns plain data; the `figures` binary renders it to
//! stdout and CSV. Default parameters match the paper exactly (Table 4);
//! tick counts are overridable because the full 1,000-tick sweeps take
//! minutes.

use mmoc_core::run::{EngineDetail, RunReport, TraceSpec, WriterBackend};
use mmoc_core::{Algorithm, DiskOrg, Run};
use mmoc_game::{GameConfig, GameServer};
use mmoc_sim::{HardwareParams, SimConfig};
use mmoc_storage::RealConfig;
use mmoc_workload::{SyntheticConfig, TraceStats};
use serde::Serialize;
use std::io;
use std::path::Path;

/// The Figure 2/6 update-rate grid: 1,000 … 256,000 doubling.
pub const FIG2_RATES: [u32; 9] = [
    1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000,
];

/// The Figure 4 skew grid.
pub const FIG4_SKEWS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 0.99];

/// One sweep measurement: one algorithm at one parameter point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepRow {
    /// The swept parameter (updates/tick, skew, object size, …).
    pub x: f64,
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Average overhead per tick, seconds.
    pub overhead_s: f64,
    /// Average time to checkpoint, seconds.
    pub checkpoint_s: f64,
    /// Estimated recovery time, seconds.
    pub recovery_s: f64,
}

impl SweepRow {
    fn from_report(x: f64, r: &RunReport) -> Self {
        SweepRow {
            x,
            algorithm: r.algorithm,
            overhead_s: r.world.avg_overhead_s,
            checkpoint_s: r.world.avg_checkpoint_s,
            recovery_s: r.recovery_s().unwrap_or(f64::NAN),
        }
    }
}

/// Run closures on worker threads, at most `width` at a time, preserving
/// input order in the output.
pub fn parallel_map<T, R, F>(items: Vec<T>, width: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let mut items = items.into_iter();
    loop {
        let wave: Vec<T> = items.by_ref().take(width.max(1)).collect();
        if wave.is_empty() {
            break;
        }
        let f = &f;
        let results: Vec<R> = std::thread::scope(|s| {
            let handles: Vec<_> = wave.into_iter().map(|it| s.spawn(move || f(it))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("experiment worker panicked"))
                .collect()
        });
        out.extend(results);
    }
    out
}

fn run_sim(alg: Algorithm, trace: SyntheticConfig) -> RunReport {
    run_sim_on(SimConfig::default(), alg, trace)
}

fn run_sim_on(config: SimConfig, alg: Algorithm, trace: impl TraceSpec) -> RunReport {
    Run::algorithm(alg)
        .engine(config)
        .trace(trace)
        .execute()
        .expect("simulation runs")
}

/// Figure 2: scaling the number of updates per tick (skew 0.8, 10M cells).
/// Returns one row per (rate, algorithm).
pub fn fig2(rates: &[u32], ticks: u64) -> Vec<SweepRow> {
    let jobs: Vec<(u32, Algorithm)> = rates
        .iter()
        .flat_map(|&r| Algorithm::ALL.into_iter().map(move |a| (r, a)))
        .collect();
    parallel_map(jobs, 8, |(rate, alg)| {
        let trace = SyntheticConfig::paper_default()
            .with_updates_per_tick(rate)
            .with_ticks(ticks);
        SweepRow::from_report(f64::from(rate), &run_sim(alg, trace))
    })
}

/// Figure 3 data: per-tick lengths at 64,000 updates/tick, plus the
/// half-a-tick latency limit.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// Base tick period, seconds.
    pub tick_period_s: f64,
    /// The latency limit: base period + half a tick (pauses beyond half a
    /// tick must be masked by the game, §5.2).
    pub latency_limit_s: f64,
    /// `(algorithm, tick lengths in seconds, one per tick)`.
    pub series: Vec<(Algorithm, Vec<f64>)>,
}

/// Figure 3: the latency analysis at 64,000 updates per tick.
pub fn fig3(ticks: u64) -> Fig3Data {
    let config = SimConfig::default();
    let tick_period_s = config.tick_period_s();
    let series = parallel_map(Algorithm::ALL.to_vec(), 6, |alg| {
        let trace = SyntheticConfig::paper_default().with_ticks(ticks);
        let report = run_sim_on(config, alg, trace);
        (alg, report.world.metrics.tick_lengths_s(tick_period_s))
    });
    Fig3Data {
        tick_period_s,
        latency_limit_s: tick_period_s * 1.5,
        series,
    }
}

/// Figure 4: the skew sweep (64,000 updates/tick).
pub fn fig4(skews: &[f64], ticks: u64) -> Vec<SweepRow> {
    let jobs: Vec<(f64, Algorithm)> = skews
        .iter()
        .flat_map(|&sk| Algorithm::ALL.into_iter().map(move |a| (sk, a)))
        .collect();
    parallel_map(jobs, 8, |(skew, alg)| {
        let trace = SyntheticConfig::paper_default()
            .with_skew(skew)
            .with_ticks(ticks);
        SweepRow::from_report(skew, &run_sim(alg, trace))
    })
}

/// Table 5: characteristics of the Knights and Archers trace.
pub fn table5(config: GameConfig) -> TraceStats {
    TraceStats::scan(&mut GameServer::new(config))
}

/// Figure 5: all six algorithms over the game trace. `x` is unused (0).
pub fn fig5(config: GameConfig) -> Vec<SweepRow> {
    parallel_map(Algorithm::ALL.to_vec(), 6, |alg| {
        let report = run_sim_on(SimConfig::default(), alg, config);
        SweepRow::from_report(0.0, &report)
    })
}

/// Where a Figure 6 row came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Source {
    /// The cost-model simulator.
    Simulation,
    /// The real disk-backed engine.
    Implementation,
}

impl Source {
    /// Label used in CSV and stdout.
    pub fn label(self) -> &'static str {
        match self {
            Source::Simulation => "simulation",
            Source::Implementation => "implementation",
        }
    }
}

/// One Figure 6 measurement.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig6Row {
    /// Updates per tick.
    pub updates_per_tick: u32,
    /// Naive-Snapshot or Copy-on-Update.
    pub algorithm: Algorithm,
    /// Simulation or implementation.
    pub source: Source,
    /// Average overhead per tick, seconds.
    pub overhead_s: f64,
    /// Average time to checkpoint, seconds.
    pub checkpoint_s: f64,
    /// Recovery time (estimated for simulation, measured for the
    /// implementation), seconds.
    pub recovery_s: f64,
}

/// Figure 6: validate the simulation against the real implementation of
/// Naive-Snapshot and Copy-on-Update. `scratch` hosts the backup files;
/// `paced_hz` paces the real mutator (None = run ticks back to back).
pub fn fig6(
    rates: &[u32],
    ticks: u64,
    scratch: &Path,
    paced_hz: Option<f64>,
) -> io::Result<Vec<Fig6Row>> {
    let mut rows = Vec::new();
    for &rate in rates {
        let trace = SyntheticConfig::paper_default()
            .with_updates_per_tick(rate)
            .with_ticks(ticks);

        // Simulation side. The paper validated only Naive + COU; the
        // unified driver lets us validate the entire design space.
        for alg in Algorithm::ALL {
            let r = run_sim(alg, trace);
            rows.push(Fig6Row {
                updates_per_tick: rate,
                algorithm: alg,
                source: Source::Simulation,
                overhead_s: r.world.avg_overhead_s,
                checkpoint_s: r.world.avg_checkpoint_s,
                recovery_s: r.recovery_s().unwrap_or(f64::NAN),
            });
        }

        // Implementation side: the same six algorithms on real hardware.
        let real_config = |sub: &str| -> RealConfig {
            let mut c = RealConfig::new(scratch.join(format!("{sub}_{rate}")));
            if let Some(hz) = paced_hz {
                c = c.paced_at_hz(hz);
            }
            c
        };
        for alg in Algorithm::ALL {
            let report = Run::algorithm(alg)
                .engine(real_config(alg.short_name()))
                .trace(trace)
                .execute()
                .map_err(|e| io::Error::other(e.to_string()))?;
            rows.push(Fig6Row {
                updates_per_tick: rate,
                algorithm: report.algorithm,
                source: Source::Implementation,
                overhead_s: report.world.avg_overhead_s,
                checkpoint_s: report.world.avg_checkpoint_s,
                recovery_s: report.recovery_s().unwrap_or(f64::NAN),
            });
        }
    }
    Ok(rows)
}

/// Ablation: atomic-object size sweep (64 B – 4 KiB) at the Figure 2
/// defaults. Smaller-than-sector objects inflate double-backup costs
/// (§4.1); larger objects inflate copy-on-update copies.
pub fn ablation_objsize(sizes: &[u32], ticks: u64) -> Vec<SweepRow> {
    let jobs: Vec<(u32, Algorithm)> = sizes
        .iter()
        .flat_map(|&s| {
            [Algorithm::NaiveSnapshot, Algorithm::CopyOnUpdate]
                .into_iter()
                .map(move |a| (s, a))
        })
        .collect();
    parallel_map(jobs, 8, |(size, alg)| {
        let mut trace = SyntheticConfig::paper_default().with_ticks(ticks);
        trace.geometry.object_size = size;
        SweepRow::from_report(f64::from(size), &run_sim(alg, trace))
    })
}

/// Ablation: the sorted-I/O optimization for double backups. Analytic, per
/// the disk model: sorted writes cost one full transfer; unsorted writes
/// pay a seek + half-rotation per object. Returns
/// `(updates_per_tick, sorted_s, unsorted_s)` per Figure 2 rate, using the
/// dirty-set sizes measured by Copy-on-Update runs.
pub fn ablation_sorted_io(rates: &[u32], ticks: u64) -> Vec<(u32, f64, f64)> {
    // 2009-era disk: ~8 ms average seek + ~4.2 ms half rotation (7200rpm).
    const SEEK_S: f64 = 0.008;
    const HALF_ROTATION_S: f64 = 0.0042;
    let hw = HardwareParams::paper();
    parallel_map(rates.to_vec(), 8, |rate| {
        let trace = SyntheticConfig::paper_default()
            .with_updates_per_tick(rate)
            .with_ticks(ticks);
        let report = run_sim(Algorithm::CopyOnUpdate, trace);
        let k = report.world.metrics.avg_objects_per_normal_checkpoint();
        let sorted = report.world.avg_checkpoint_s;
        let per_object = SEEK_S + HALF_ROTATION_S + 512.0 / hw.disk_bandwidth;
        (rate, sorted, k * per_object)
    })
}

/// Extension (the paper's stated future work): how faster hardware shifts
/// the trade-offs. Sweeps disk bandwidth at the Figure 2 defaults.
pub fn ext_hardware(disk_bandwidths: &[f64], ticks: u64) -> Vec<SweepRow> {
    let algs = [
        Algorithm::NaiveSnapshot,
        Algorithm::CopyOnUpdate,
        Algorithm::PartialRedo,
        Algorithm::CopyOnUpdatePartialRedo,
    ];
    let jobs: Vec<(f64, Algorithm)> = disk_bandwidths
        .iter()
        .flat_map(|&bw| algs.into_iter().map(move |a| (bw, a)))
        .collect();
    parallel_map(jobs, 8, |(bw, alg)| {
        let config = SimConfig {
            hardware: HardwareParams::paper().with_disk_bandwidth(bw),
            ..SimConfig::default()
        };
        let trace = SyntheticConfig::paper_default().with_ticks(ticks);
        let report = run_sim_on(config, alg, trace);
        SweepRow::from_report(bw, &report)
    })
}

/// The shard-count grid of the scaling experiment.
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// One shard-scaling measurement: one algorithm at one shard count, over
/// fixed total state.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ShardScaleRow {
    /// Number of shards the (fixed-size) world was split into.
    pub n_shards: u32,
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// World average overhead per tick, seconds (per-tick max across
    /// shards, averaged).
    pub overhead_s: f64,
    /// Average time to checkpoint across all shards' checkpoints,
    /// seconds.
    pub checkpoint_s: f64,
    /// World recovery time, seconds: shards restore in parallel, so
    /// this is the slowest shard (estimated for the simulator, the
    /// measured parallel wall time for the real engine).
    pub recovery_s: f64,
    /// What a *serial* one-shard-after-another recovery would cost:
    /// the per-shard recovery times summed.
    pub serial_recovery_s: f64,
    /// Aggregate wall clock of the run, seconds: the max over shards'
    /// virtual clocks (simulator) or the measured run duration (real
    /// engine).
    pub wall_clock_s: f64,
}

/// Shard scaling: split the paper's synthetic state into N ∈
/// [`SHARD_COUNTS`] shards at a fixed total size and update rate, and
/// measure overhead and recovery time per algorithm. The per-shard flush
/// shrinks with N while recovery parallelizes — the scale axis the paper
/// left on the table.
pub fn shard_scaling(shard_counts: &[u32], rate: u32, ticks: u64) -> Vec<ShardScaleRow> {
    let jobs: Vec<(u32, Algorithm)> = shard_counts
        .iter()
        .flat_map(|&n| Algorithm::ALL.into_iter().map(move |a| (n, a)))
        .collect();
    parallel_map(jobs, 8, |(n, alg)| {
        let trace = SyntheticConfig::paper_default()
            .with_updates_per_tick(rate)
            .with_ticks(ticks);
        let report = Run::algorithm(alg)
            .engine(SimConfig::default())
            .trace(trace)
            .shards(n)
            .execute()
            .expect("sharded simulation runs");
        let wall_clock_s = match report.detail {
            EngineDetail::Sim(d) => d.wall_clock_s,
            _ => f64::NAN,
        };
        ShardScaleRow {
            n_shards: n,
            algorithm: alg,
            overhead_s: report.world.avg_overhead_s,
            checkpoint_s: report.world.avg_checkpoint_s,
            recovery_s: report.recovery_s().unwrap_or(f64::NAN),
            serial_recovery_s: report
                .shards
                .iter()
                .filter_map(|s| s.summary.recovery_s)
                .sum(),
            wall_clock_s,
        }
    })
}

/// Shard scaling on the real engine (scaled-down state so it fits test
/// and CI budgets): wall-clock overhead plus *measured* parallel
/// recovery time per shard count, for one algorithm.
pub fn shard_scaling_real(
    algorithm: Algorithm,
    shard_counts: &[u32],
    ticks: u64,
    scratch: &Path,
) -> io::Result<Vec<ShardScaleRow>> {
    let trace = SyntheticConfig {
        geometry: mmoc_core::StateGeometry::small(8_192, 8), // 256 KB state, 4,096 objects
        ticks,
        updates_per_tick: 2_000,
        skew: 0.8,
        seed: 77,
    };
    let mut rows = Vec::new();
    for &n in shard_counts {
        let config = RealConfig::new(scratch.join(format!("shards_{n}")));
        let t0 = std::time::Instant::now();
        let report = Run::algorithm(algorithm)
            .engine(config)
            .trace(trace)
            .shards(n)
            .execute()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let run_wall_s = t0.elapsed().as_secs_f64();
        let (recovery_s, serial_recovery_s) = match report.detail {
            EngineDetail::Real(d) => (
                d.recovery_wall_s.expect("recovery measured"),
                d.serial_recovery_s.expect("recovery measured"),
            ),
            _ => (f64::NAN, f64::NAN),
        };
        rows.push(ShardScaleRow {
            n_shards: n,
            algorithm,
            overhead_s: report.world.avg_overhead_s,
            checkpoint_s: report.world.avg_checkpoint_s,
            recovery_s,
            serial_recovery_s,
            wall_clock_s: run_wall_s,
        });
    }
    Ok(rows)
}

/// One writer-durability measurement: one algorithm at one shard count
/// under one flush-writer implementation and one adaptive batch window.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WriterBackendRow {
    /// Writer backend this grid cell requested.
    pub backend: WriterBackend,
    /// Backend that actually executed the flush jobs: equal to `backend`
    /// except when the probe-gated io_uring ring fell back to the batched
    /// engine on a kernel without `io_uring`, so a fallback never
    /// masquerades as a ring measurement in the tracked artifact.
    pub effective_backend: WriterBackend,
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Number of shards the world was split into.
    pub n_shards: u32,
    /// Adaptive batch window, microseconds (always 0 for the thread
    /// pool, which has no batches).
    pub window_us: u64,
    /// Checkpoint pipeline depth the run executed at (1 = the historical
    /// stop-and-wait write path).
    pub pipeline_depth: u32,
    /// World average overhead per tick, seconds.
    pub overhead_s: f64,
    /// Average time to checkpoint, seconds.
    pub checkpoint_s: f64,
    /// Measured parallel recovery time, seconds.
    pub recovery_s: f64,
    /// Wall-clock duration of the whole run, seconds.
    pub run_wall_s: f64,
    /// Completed checkpoints (identical to the writer's flush jobs).
    pub checkpoints: u64,
    /// Data `fsync` calls the writer issued across the run.
    pub data_fsyncs: u64,
    /// `syncfs`-style whole-device barriers issued in place of per-file
    /// fsyncs (zero unless the device barrier is enabled and usable).
    pub device_syncs: u64,
    /// Data fsync calls per completed checkpoint: 1.0 under per-job
    /// durability, below 1.0 when the scheduler coalesced targets.
    pub fsyncs_per_checkpoint: f64,
    /// Job-weighted average batch occupancy (1.0 for the thread pool).
    pub avg_batch_jobs: f64,
    /// Job-weighted average occupancy of the io_uring submission rounds
    /// that carried each job's data writes — 0.0 for the
    /// syscall-per-write backends, so a nonzero value doubles as ground
    /// truth that the ring actually ran.
    pub avg_sqe_batch: f64,
    /// Checkpoint payload bytes the writer flushed across the run.
    pub bytes_written: u64,
    /// Median checkpoint ack latency, seconds: from the flush job's
    /// enqueue at the writer to its durable ack (the record's duration
    /// minus the mutator-side synchronous pause), so a batched run's
    /// figure includes any channel wait and adaptive-window hold — the
    /// latency the window trades away — without charging the writer for
    /// eager copy pauses it never sees.
    pub ack_p50_s: f64,
    /// 99th-percentile checkpoint ack latency, seconds.
    pub ack_p99_s: f64,
    /// Checkpoints acked durable per second of *run* wall-clock (the
    /// end-of-run recovery measurement is excluded, so the tracked
    /// figure moves only when the checkpoint path does).
    pub throughput_cps: f64,
    /// Retry attempts the writer spent masking transient I/O faults —
    /// each re-issue of a failed data write / fsync / meta commit. Zero
    /// on a healthy disk or when the retry budget is 0.
    pub retries: u64,
    /// Operations whose retry budget ran out: the error took the
    /// degradation ladder instead of being masked.
    pub retry_exhausted: u64,
    /// Backend the run degraded *away from* mid-run: `Some(IoUring)`
    /// when the ring latched its dead flag after retry exhaustion and
    /// jobs finished on the synchronous redo path. Distinct from
    /// `effective_backend`, which records the up-front capability-probe
    /// fallback — a degraded cell *did* run the requested backend until
    /// the fault burst killed it.
    pub degraded_from: Option<WriterBackend>,
    /// Whether the end-of-run recovery reproduced the crash state.
    pub verified: bool,
}

/// Writer-durability comparison: the thread pool, the batched-submission
/// engine, and the real io_uring ring across a (shard count × batch
/// window × pipeline depth) grid, on the **same bookkeeping** — identical trace,
/// identical algorithm spec, identical shard map per cell; only flush-job
/// scheduling and durability policy differ. Runs every algorithm per cell
/// on the real engine (scaled-down state so it fits test and CI budgets)
/// and reports the paper's three metrics plus the durability-scheduler
/// instrumentation: fsyncs per checkpoint, batch occupancy, ack-latency
/// percentiles, and checkpoint throughput. The thread pool has no
/// batches, so it runs only at window 0; depths above 1 run only the
/// log-organized algorithms (the driver clamps copy-organized checkpoints
/// to one in flight, so those cells would duplicate depth 1).
pub fn writer_backends(
    shard_counts: &[u32],
    windows_us: &[u64],
    depths: &[u32],
    ticks: u64,
    scratch: &Path,
) -> io::Result<Vec<WriterBackendRow>> {
    let trace = SyntheticConfig {
        geometry: mmoc_core::StateGeometry::small(8_192, 8), // 256 KB state, 4,096 objects
        ticks,
        updates_per_tick: 2_000,
        skew: 0.8,
        seed: 91,
    };
    let mut rows = Vec::new();
    for &n in shard_counts {
        for alg in Algorithm::ALL {
            for backend in WriterBackend::ALL {
                for &window_us in windows_us {
                    for &depth in depths {
                        if depth != 1 && alg.spec().disk_org != DiskOrg::Log {
                            // Copy-organized checkpoints never overlap
                            // (the driver caps them at one in flight), so
                            // a deep cell repeats the depth-1 measurement.
                            continue;
                        }
                        if window_us != 0
                            && (backend == WriterBackend::ThreadPool || (n == 1 && depth == 1))
                        {
                            // The pool has no batches to hold open, and a
                            // 1-shard depth-1 batch is full from its first
                            // job (the window waits while batch < shards ×
                            // depth), so these cells would duplicate the
                            // window-0 row. At depth > 1 a 1-shard window
                            // can hold several of the shard's segments, so
                            // those cells stay.
                            continue;
                        }
                        let dir = scratch.join(format!(
                            "{}_{n}_{}_{window_us}_d{depth}",
                            alg.short_name(),
                            backend.label()
                        ));
                        let t0 = std::time::Instant::now();
                        let report = Run::algorithm(alg)
                            .engine(RealConfig::new(dir))
                            .trace(trace)
                            .shards(n)
                            .writer(backend)
                            .batch_window(std::time::Duration::from_micros(window_us))
                            .pipeline_depth(depth)
                            .execute()
                            .map_err(|e| io::Error::other(e.to_string()))?;
                        let run_wall_s = t0.elapsed().as_secs_f64();
                        let EngineDetail::Real(detail) = report.detail else {
                            return Err(io::Error::other("real-engine detail expected"));
                        };
                        // Writer-side ack latency: the record's duration
                        // spans enqueue → durable ack plus the mutator's
                        // synchronous pause (driver adds sync_pause_s);
                        // strip the pause so the percentiles isolate the
                        // writer path.
                        let mut acks: Vec<f64> = report
                            .world
                            .metrics
                            .checkpoints
                            .iter()
                            .map(|c| (c.duration_s - c.sync_pause_s).max(0.0))
                            .collect();
                        let checkpoints = report.world.checkpoints_completed;
                        // Throughput over the run itself: execute() also
                        // spans the end-of-run recovery measurement, which
                        // says nothing about the writer.
                        let run_only_s = run_wall_s - detail.recovery_wall_s.unwrap_or(0.0);
                        rows.push(WriterBackendRow {
                            backend,
                            effective_backend: detail.writer_backend,
                            algorithm: alg,
                            n_shards: n,
                            window_us,
                            pipeline_depth: detail.pipeline_depth,
                            overhead_s: report.world.avg_overhead_s,
                            checkpoint_s: report.world.avg_checkpoint_s,
                            recovery_s: report.recovery_s().unwrap_or(f64::NAN),
                            run_wall_s,
                            checkpoints,
                            data_fsyncs: detail.data_fsyncs,
                            device_syncs: detail.device_syncs,
                            fsyncs_per_checkpoint: if checkpoints == 0 {
                                0.0
                            } else {
                                detail.data_fsyncs as f64 / checkpoints as f64
                            },
                            avg_batch_jobs: detail.avg_batch_jobs,
                            avg_sqe_batch: detail.avg_sqe_batch,
                            bytes_written: detail.bytes_written,
                            ack_p99_s: mmoc_core::sample_quantile(&mut acks, 0.99),
                            ack_p50_s: mmoc_core::sample_quantile(&mut acks, 0.50),
                            throughput_cps: if run_only_s > 0.0 {
                                checkpoints as f64 / run_only_s
                            } else {
                                0.0
                            },
                            retries: detail.retries,
                            retry_exhausted: detail.retry_exhausted,
                            degraded_from: (detail.degraded_jobs > 0)
                                .then_some(detail.writer_backend),
                            verified: report.verified_consistent() == Some(true),
                        });
                    }
                }
            }
        }
    }
    Ok(rows)
}

/// One recovery-tier measurement: one algorithm at one shard count,
/// crash-recovered twice from the same finished run — once from the disk
/// organization's files, once from the peer-memory replica tier.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RecoveryTierRow {
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Number of shards the world was split into.
    pub n_shards: u32,
    /// Disk path: wall time reading + installing the newest consistent
    /// image (for log organizations, the segment-scanning reconstruct),
    /// slowest shard, seconds.
    pub disk_restore_s: f64,
    /// Disk path: wall time moving the trace to the restored tick and
    /// replaying the tail from there, slowest shard.
    pub disk_replay_s: f64,
    /// Disk path: total recovery wall time, slowest shard (shards
    /// recover in parallel, so the slowest one is the world figure).
    pub disk_total_s: f64,
    /// Replica path: wall time fetching + installing the mirror image
    /// (a memcpy from peer memory), slowest shard.
    pub replica_restore_s: f64,
    /// Replica path: wall time moving the trace to the restored tick and
    /// replaying the tail from there, slowest shard.
    pub replica_replay_s: f64,
    /// Replica path: total recovery wall time, slowest shard.
    pub replica_total_s: f64,
    /// `disk_restore_s / replica_restore_s`: how much faster the replica
    /// tier materializes the recovery anchor state. The tail replay from
    /// the anchor to the crash tick is deterministic and *identical* for
    /// both tiers (both anchor at the last committed checkpoint), so the
    /// tier's advantage — a memcpy from peer memory instead of replaying
    /// the on-disk log — lives entirely in the restore phase; folding the
    /// shared tail into the ratio would only dilute it toward 1.
    pub speedup: f64,
    /// Whether both recovered states matched the in-memory ground truth
    /// on every shard (byte-level via fingerprints).
    pub state_matches: bool,
}

/// Recovery-tier comparison: for every (algorithm × shard count) cell,
/// run the trace once with a retained [`mmoc_storage::ReplicaSet`]
/// installed, then crash-recover every shard twice — through the
/// production disk path and through the replica tier — and report both
/// timing breakdowns plus a fingerprint cross-check against ground
/// truth. Long traces on purpose: the log organizations' reconstruct
/// scans every segment since the last full flush, which is exactly the
/// cost the in-memory tier exists to skip.
pub fn recovery_tiers(ticks: u64, scratch: &Path) -> io::Result<Vec<RecoveryTierRow>> {
    use mmoc_core::{ShardFilter, ShardMap};
    use mmoc_storage::recovery::{
        recover_and_replay, recover_and_replay_log, recover_from_replica, RecoveryOpts,
    };
    use mmoc_storage::{shard_dir, ReplicaSet};
    use std::sync::Arc;

    // Larger than the writer grid's state on purpose: the disk path's
    // log reconstruct scales with segment payload, and sub-millisecond
    // scans would drown the comparison in timer noise. Objects are
    // deliberately fine-grained (32 B — game-entity scale, the paper's
    // workload) because the reconstruct pays a per-object parse (id
    // header + object read) that the replica tier's bulk memcpy skips.
    let trace = SyntheticConfig {
        geometry: mmoc_core::StateGeometry {
            rows: 32_768,
            cols: 8,
            cell_size: 4,
            object_size: 32,
        }, // 1 MB state, 32,768 atomic objects
        ticks,
        updates_per_tick: 16_000,
        skew: 0.8,
        seed: 133,
    };
    // Sharded worlds only: the tier's contract is recovering a single
    // crashed shard from its *peers'* memory, so a 1-shard world (where
    // the lone mirror is self-hosted) is not a configuration anyone
    // would deploy it in.
    let mut rows = Vec::new();
    for &n in &[2_u32, 4] {
        for alg in Algorithm::ALL {
            let map = ShardMap::new(trace.geometry, n).map_err(io::Error::other)?;
            let geometries: Vec<_> = (0..n as usize).map(|s| map.shard_geometry(s)).collect();
            let set = Arc::new(ReplicaSet::new(1, &geometries));
            let dir = scratch.join(format!("tier_{}_{n}", alg.short_name()));
            Run::algorithm(alg)
                .engine(
                    RealConfig::new(&dir)
                        .without_recovery()
                        .with_replica_set(set.clone()),
                )
                .trace(trace)
                .shards(n)
                .execute()
                .map_err(|e| io::Error::other(e.to_string()))?;

            let mut row = RecoveryTierRow {
                algorithm: alg,
                n_shards: n,
                disk_restore_s: 0.0,
                disk_replay_s: 0.0,
                disk_total_s: 0.0,
                replica_restore_s: 0.0,
                replica_replay_s: 0.0,
                replica_total_s: 0.0,
                speedup: f64::NAN,
                state_matches: true,
            };
            for s in 0..n as usize {
                let g = map.shard_geometry(s);
                let sdir = shard_dir(&dir, s, n as usize);
                let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
                let mut disk = match alg.spec().disk_org {
                    DiskOrg::DoubleBackup => recover_and_replay(&sdir, g, &mut replay, ticks),
                    DiskOrg::Log => recover_and_replay_log(&sdir, g, &mut replay, ticks),
                }?;
                let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
                let mut via = recover_from_replica(
                    &set,
                    s as u32,
                    g,
                    &mut replay,
                    ticks,
                    &RecoveryOpts::default(),
                )
                .ok_or_else(|| io::Error::other("replica fetch missed after a clean run"))??;

                // Restore phases are sub-millisecond here, so a single
                // sample is mostly allocator page faults and scheduler
                // noise. Re-run each restore a few times (crash tick 0
                // makes a recovery restore-only — the replay loop never
                // pulls a tick) and keep the fastest, for both tiers
                // alike.
                const RESTORE_REPS: usize = 5;
                for _ in 0..RESTORE_REPS {
                    let mut idle = ShardFilter::new(trace.build(), map.clone(), s);
                    let r = match alg.spec().disk_org {
                        DiskOrg::DoubleBackup => recover_and_replay(&sdir, g, &mut idle, 0),
                        DiskOrg::Log => recover_and_replay_log(&sdir, g, &mut idle, 0),
                    }?;
                    disk.restore_s = disk.restore_s.min(r.restore_s);
                    let mut idle = ShardFilter::new(trace.build(), map.clone(), s);
                    let r = recover_from_replica(
                        &set,
                        s as u32,
                        g,
                        &mut idle,
                        0,
                        &RecoveryOpts::default(),
                    )
                    .ok_or_else(|| io::Error::other("replica fetch missed on re-run"))??;
                    via.restore_s = via.restore_s.min(r.restore_s);
                }

                // Ground truth: the shard's full trace applied in memory.
                let mut truth = mmoc_core::StateTable::new(g).map_err(io::Error::other)?;
                let mut src = ShardFilter::new(trace.build(), map.clone(), s);
                let mut buf = Vec::new();
                while mmoc_core::TraceSource::next_tick(&mut src, &mut buf) {
                    for &u in &buf {
                        truth.apply_unchecked(u);
                    }
                }
                row.state_matches &= disk.table.fingerprint() == truth.fingerprint()
                    && via.table.fingerprint() == truth.fingerprint();

                row.disk_restore_s = row.disk_restore_s.max(disk.restore_s);
                row.disk_replay_s = row.disk_replay_s.max(disk.skip_s + disk.replay_s);
                row.disk_total_s = row.disk_total_s.max(disk.total_s());
                row.replica_restore_s = row.replica_restore_s.max(via.restore_s);
                row.replica_replay_s = row.replica_replay_s.max(via.skip_s + via.replay_s);
                row.replica_total_s = row.replica_total_s.max(via.total_s());
            }
            row.speedup = if row.replica_restore_s > 0.0 {
                row.disk_restore_s / row.replica_restore_s
            } else {
                f64::NAN
            };
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Render one JSON value for a float: JSON has no NaN/∞, so non-finite
/// measurements (e.g. recovery when it was not measured) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Write the machine-readable perf results of [`writer_backends`] as
/// `BENCH_writers.json`: one object per (backend, algorithm, shards,
/// window, depth) cell with throughput, fsyncs per checkpoint and
/// ack-latency percentiles — the artifact CI uploads so the repo's
/// writer-path perf trajectory is tracked release over release.
/// Hand-rolled JSON because the offline build's serde is a no-op shim.
pub fn write_writers_json(path: &Path, rows: &[WriterBackendRow]) -> io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{\n  \"bench\": \"writers\",\n  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"backend\": \"{}\", \"effective_backend\": \"{}\", \
             \"algorithm\": \"{}\", \"n_shards\": {}, \
             \"window_us\": {}, \"pipeline_depth\": {}, \"throughput_cps\": {}, \
             \"checkpoints\": {}, \"data_fsyncs\": {}, \"device_syncs\": {}, \
             \"fsyncs_per_checkpoint\": {}, \"avg_batch_jobs\": {}, \
             \"avg_sqe_batch\": {}, \"bytes_written\": {}, \
             \"ack_p50_s\": {}, \"ack_p99_s\": {}, \"overhead_s\": {}, \"checkpoint_s\": {}, \
             \"recovery_s\": {}, \"run_wall_s\": {}, \"retries\": {}, \
             \"retry_exhausted\": {}, \"degraded_from\": {}, \"verified\": {}}}{sep}",
            r.backend.label(),
            r.effective_backend.label(),
            r.algorithm.short_name(),
            r.n_shards,
            r.window_us,
            r.pipeline_depth,
            json_num(r.throughput_cps),
            r.checkpoints,
            r.data_fsyncs,
            r.device_syncs,
            json_num(r.fsyncs_per_checkpoint),
            json_num(r.avg_batch_jobs),
            json_num(r.avg_sqe_batch),
            r.bytes_written,
            json_num(r.ack_p50_s),
            json_num(r.ack_p99_s),
            json_num(r.overhead_s),
            json_num(r.checkpoint_s),
            json_num(r.recovery_s),
            json_num(r.run_wall_s),
            r.retries,
            r.retry_exhausted,
            r.degraded_from
                .map_or_else(|| "null".to_string(), |b| format!("\"{}\"", b.label())),
            r.verified,
        )?;
    }
    writeln!(f, "  ]\n}}")?;
    Ok(())
}

/// Write the machine-readable results of [`recovery_tiers`] as
/// `BENCH_recovery.json`: one object per (algorithm, shards) cell with
/// both tiers' timing breakdowns and the speedup — the artifact CI
/// uploads so the replica tier's advantage is tracked release over
/// release. Hand-rolled JSON because the offline build's serde is a
/// no-op shim.
pub fn write_recovery_json(path: &Path, rows: &[RecoveryTierRow]) -> io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{\n  \"bench\": \"recovery\",\n  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"algorithm\": \"{}\", \"n_shards\": {}, \
             \"disk_restore_s\": {}, \"disk_replay_s\": {}, \"disk_total_s\": {}, \
             \"replica_restore_s\": {}, \"replica_replay_s\": {}, \
             \"replica_total_s\": {}, \"speedup\": {}, \"state_matches\": {}}}{sep}",
            r.algorithm.short_name(),
            r.n_shards,
            json_num(r.disk_restore_s),
            json_num(r.disk_replay_s),
            json_num(r.disk_total_s),
            json_num(r.replica_restore_s),
            json_num(r.replica_replay_s),
            json_num(r.replica_total_s),
            json_num(r.speedup),
            r.state_matches,
        )?;
    }
    writeln!(f, "  ]\n}}")?;
    Ok(())
}

/// A reduced-scale geometry check used by tests: every figure function
/// must run end to end on small inputs.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_produces_full_grid() {
        let rows = fig2(&[1_000, 4_000], 40);
        assert_eq!(rows.len(), 2 * 6);
        for r in &rows {
            assert!(r.checkpoint_s > 0.0, "{:?}", r);
            assert!(r.recovery_s > 0.0);
        }
        // Naive's overhead is rate-independent.
        let naive: Vec<&SweepRow> = rows
            .iter()
            .filter(|r| r.algorithm == Algorithm::NaiveSnapshot)
            .collect();
        assert!((naive[0].overhead_s - naive[1].overhead_s).abs() < 1e-6);
    }

    #[test]
    fn fig3_series_cover_all_algorithms() {
        let data = fig3(30);
        assert_eq!(data.series.len(), 6);
        for (alg, lengths) in &data.series {
            assert_eq!(lengths.len(), 30, "{alg}");
            assert!(lengths.iter().all(|&l| l >= data.tick_period_s));
        }
        assert!(data.latency_limit_s > data.tick_period_s);
    }

    #[test]
    fn fig4_produces_full_grid() {
        let rows = fig4(&[0.0, 0.99], 30);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn fig5_and_table5_run_on_a_small_battle() {
        let cfg = GameConfig::small().with_ticks(30);
        let stats = table5(cfg);
        assert_eq!(stats.ticks, 30);
        let rows = fig5(cfg);
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn fig6_runs_sim_and_impl() {
        let dir = tempfile::tempdir().unwrap();
        // One rate, few ticks: enough to exercise the sim + real paths
        // end to end (the real engines still write the 40 MB backups).
        let rows = fig6(&[1_000], 12, dir.path(), None).unwrap();
        assert_eq!(rows.len(), 12, "6 algorithms x sim + impl");
        let impl_rows: Vec<_> = rows
            .iter()
            .filter(|r| r.source == Source::Implementation)
            .collect();
        assert_eq!(impl_rows.len(), 6);
        for r in impl_rows {
            assert!(r.recovery_s.is_finite(), "recovery must be measured");
        }
    }

    #[test]
    fn shard_scaling_produces_full_grid() {
        let rows = shard_scaling(&[1, 4], 16_000, 30);
        assert_eq!(rows.len(), 2 * 6);
        for r in &rows {
            assert!(r.checkpoint_s > 0.0, "{r:?}");
            assert!(r.recovery_s > 0.0, "{r:?}");
        }
        // Parallel restore: recovery at 4 shards never exceeds 1 shard
        // (same total state, each shard restores a quarter of it).
        for alg in Algorithm::ALL {
            let at = |n: u32| {
                rows.iter()
                    .find(|r| r.algorithm == alg && r.n_shards == n)
                    .unwrap()
            };
            assert!(
                at(4).recovery_s <= at(1).recovery_s * 1.0001,
                "{alg}: rec(4)={} > rec(1)={}",
                at(4).recovery_s,
                at(1).recovery_s
            );
        }
    }

    #[test]
    fn shard_scaling_real_runs() {
        let dir = tempfile::tempdir().unwrap();
        let rows = shard_scaling_real(Algorithm::CopyOnUpdate, &[1, 2], 20, dir.path()).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.recovery_s > 0.0);
        }
    }

    #[test]
    fn writer_backends_compare_on_the_same_bookkeeping() {
        let dir = tempfile::tempdir().unwrap();
        let rows = writer_backends(&[1, 2], &[0, 500], &[1, 2], 10, dir.path()).unwrap();
        assert_eq!(
            rows.len(),
            6 * (3 + 5) + 3 * (5 + 5),
            "depth 1: 6 algorithms x (x1: pool/batched/uring@0; x2: pool@0 + \
             batched@{{0,500us}} + uring@{{0,500us}}); depth 2: 3 log \
             algorithms x (x1 and x2 each: pool@0 + batched@{{0,500us}} + \
             uring@{{0,500us}}) — windowed 1-shard cells duplicate window 0 \
             only at depth 1, and copy-organized algorithms never pipeline, \
             so their deep cells are skipped"
        );
        for r in &rows {
            assert!(
                r.verified,
                "{} [{}] must round-trip",
                r.algorithm, r.backend
            );
            assert!(r.recovery_s > 0.0, "{r:?}");
            assert!(r.checkpoint_s > 0.0, "{r:?}");
            // The instrumentation invariants: one flush job per completed
            // checkpoint, fsyncs never exceed jobs, and the pool pays
            // exactly one data fsync per job (sync_data defaults on).
            assert!(r.checkpoints > 0, "{r:?}");
            assert!(r.data_fsyncs <= r.checkpoints, "{r:?}");
            assert!(r.ack_p99_s >= r.ack_p50_s, "{r:?}");
            assert!(r.throughput_cps > 0.0, "{r:?}");
            assert!(r.bytes_written > 0, "checkpoints moved bytes: {r:?}");
            // The bench grid injects no transient faults, so the retry
            // and degradation counters must read as a healthy disk.
            assert_eq!(r.retries, 0, "{r:?}");
            assert_eq!(r.retry_exhausted, 0, "{r:?}");
            assert_eq!(r.degraded_from, None, "{r:?}");
            match r.backend {
                WriterBackend::ThreadPool => {
                    assert_eq!(r.window_us, 0, "pool runs only at window 0");
                    assert_eq!(r.data_fsyncs, r.checkpoints, "{r:?}");
                    assert!((r.avg_batch_jobs - 1.0).abs() < 1e-12, "{r:?}");
                    assert_eq!(r.effective_backend, r.backend, "{r:?}");
                    assert_eq!(r.avg_sqe_batch, 0.0, "{r:?}");
                }
                WriterBackend::AsyncBatched => {
                    assert!(r.avg_batch_jobs >= 1.0, "{r:?}");
                    assert_eq!(r.effective_backend, r.backend, "{r:?}");
                    assert_eq!(r.avg_sqe_batch, 0.0, "{r:?}");
                }
                WriterBackend::IoUring => {
                    assert!(r.avg_batch_jobs >= 1.0, "{r:?}");
                    match r.effective_backend {
                        // On kernels with io_uring the ring must actually
                        // run — nonzero SQE occupancy is the ground truth.
                        WriterBackend::IoUring => {
                            assert!(r.avg_sqe_batch > 0.0, "ring never ran: {r:?}");
                        }
                        // The probe-gated fallback is the one permitted
                        // substitution, and it must be surfaced, not hidden.
                        WriterBackend::AsyncBatched => {
                            assert_eq!(r.avg_sqe_batch, 0.0, "{r:?}");
                        }
                        WriterBackend::ThreadPool => {
                            panic!("ring can only fall back to batched: {r:?}")
                        }
                    }
                }
            }
        }
        // Every cell of the grid appears (the windowed cell at 2 shards,
        // where the window can actually engage).
        for alg in Algorithm::ALL {
            for (backend, n, window) in [
                (WriterBackend::ThreadPool, 1u32, 0u64),
                (WriterBackend::AsyncBatched, 1, 0),
                (WriterBackend::IoUring, 1, 0),
                (WriterBackend::ThreadPool, 2, 0),
                (WriterBackend::AsyncBatched, 2, 0),
                (WriterBackend::AsyncBatched, 2, 500),
                (WriterBackend::IoUring, 2, 0),
                (WriterBackend::IoUring, 2, 500),
            ] {
                assert!(
                    rows.iter().any(|r| r.algorithm == alg
                        && r.backend == backend
                        && r.n_shards == n
                        && r.window_us == window
                        && r.pipeline_depth == 1),
                    "{alg} [{backend} x{n} @{window}us] missing"
                );
            }
            let deep = alg.spec().disk_org == DiskOrg::Log;
            for (backend, n, window) in [
                (WriterBackend::ThreadPool, 1u32, 0u64),
                (WriterBackend::AsyncBatched, 1, 0),
                (WriterBackend::AsyncBatched, 1, 500),
                (WriterBackend::IoUring, 1, 0),
                (WriterBackend::IoUring, 1, 500),
                (WriterBackend::ThreadPool, 2, 0),
                (WriterBackend::AsyncBatched, 2, 0),
                (WriterBackend::AsyncBatched, 2, 500),
                (WriterBackend::IoUring, 2, 0),
                (WriterBackend::IoUring, 2, 500),
            ] {
                assert_eq!(
                    rows.iter().any(|r| r.algorithm == alg
                        && r.backend == backend
                        && r.n_shards == n
                        && r.window_us == window
                        && r.pipeline_depth == 2),
                    deep,
                    "{alg} [{backend} x{n} @{window}us d2]: deep cells exist \
                     exactly for log-organized algorithms"
                );
            }
        }
    }

    #[test]
    fn writers_json_is_written_and_wellformed() {
        let dir = tempfile::tempdir().unwrap();
        let rows = writer_backends(&[1], &[0], &[1], 8, dir.path()).unwrap();
        let path = dir.path().join("BENCH_writers.json");
        write_writers_json(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert_eq!(
            text.matches("\"backend\"").count(),
            rows.len(),
            "one object per row"
        );
        for key in [
            "\"throughput_cps\"",
            "\"fsyncs_per_checkpoint\"",
            "\"ack_p50_s\"",
            "\"ack_p99_s\"",
            "\"window_us\"",
            "\"pipeline_depth\"",
            "\"device_syncs\"",
            "\"effective_backend\"",
            "\"avg_sqe_batch\"",
            "\"bytes_written\"",
            "\"retries\"",
            "\"retry_exhausted\"",
            "\"degraded_from\"",
        ] {
            assert!(text.contains(key), "{key} missing from {text}");
        }
        assert!(!text.contains("NaN"), "JSON must not carry NaN");
    }

    #[test]
    fn recovery_tiers_compare_and_serialize() {
        let dir = tempfile::tempdir().unwrap();
        let rows = recovery_tiers(24, dir.path()).unwrap();
        assert_eq!(rows.len(), 2 * 6, "{{1,4}} shards x 6 algorithms");
        for r in &rows {
            assert!(r.state_matches, "{r:?}: tiers must agree with truth");
            assert!(r.disk_total_s > 0.0, "{r:?}");
            assert!(r.replica_total_s > 0.0, "{r:?}");
        }
        let path = dir.path().join("BENCH_recovery.json");
        write_recovery_json(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert_eq!(text.matches("\"algorithm\"").count(), rows.len());
        for key in ["\"disk_total_s\"", "\"replica_total_s\"", "\"speedup\""] {
            assert!(text.contains(key), "{key} missing");
        }
        assert!(!text.contains("NaN"), "JSON must not carry NaN");
    }

    #[test]
    fn ablations_run() {
        let rows = ablation_objsize(&[256, 1024], 30);
        assert_eq!(rows.len(), 4);
        let rows = ablation_sorted_io(&[1_000], 30);
        assert_eq!(rows.len(), 1);
        let (_, sorted, unsorted) = rows[0];
        assert!(
            unsorted > sorted,
            "unsorted double-backup writes must be slower"
        );
        let rows = ext_hardware(&[60e6, 2e9], 30);
        assert_eq!(rows.len(), 8);
    }
}
