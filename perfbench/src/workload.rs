//! The benchmark's workloads, the pinned engine configuration, and the
//! set-up phase: record the trace file from the seed and compute the
//! ground-truth state of every shard from it.

use mmoc_core::{Algorithm, ShardFilter, ShardMap, StateGeometry, StateTable, WriterBackend};
use mmoc_game::{GameConfig, GameServer};
use mmoc_storage::{RealConfig, ReplicaSet};
use mmoc_workload::{write_trace_file, SyntheticConfig, TraceFileReader, TraceSource};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a workload's updates come from before they are recorded.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Synthetic Zipf trace over `rows × 10` 4-byte cells.
    Zipf {
        rows: u32,
        ticks: u64,
        updates_per_tick: u32,
        skew: f64,
    },
    /// A Knights-and-Archers battle, scaled down from the paper's 400k
    /// units.
    Game {
        units: u32,
        map_size: u32,
        ticks: u64,
    },
}

/// One named workload: the trace shape plus every engine knob it depends
/// on. All run as a closed loop: one unpaced game loop starts its next
/// tick as soon as the last one ends.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub algorithm: Algorithm,
    pub shards: u32,
    pub writer: WriterBackend,
    pub pipeline_depth: u32,
    /// Replication factor K of a retained `ReplicaSet`; 0 = tier off.
    pub replication: u32,
    pub source: Source,
}

/// Object size of every workload: one disk sector, as in the paper.
const OBJECT_SIZE: u32 = 512;

/// Query lookups per tick, split over the shards: `RealConfig::new`'s
/// default, which the repository's `figures` harnesses also run at.
const QUERY_OPS_PER_TICK: u32 = 1_000;

pub const WORKLOADS: [Workload; 3] = [
    // The paper's recommended algorithm with its §6 writer: dirty-bit
    // bookkeeping, the copy-on-update slow path racing the sweep, sorted
    // writes to the double backup. No log, ring or replica.
    Workload {
        name: "cou-zipf",
        algorithm: Algorithm::CopyOnUpdate,
        shards: 1,
        writer: WriterBackend::ThreadPool,
        pipeline_depth: 1,
        replication: 0,
        source: Source::Zipf {
            rows: 10_000,
            ticks: 24_000,
            updates_per_tick: 300,
            skew: 0.8,
        },
    },
    // Hundreds of small eager checkpoints per run through the io_uring
    // ring: batched flushes, fsync coalescing and log appends are the
    // busy layers, the eager copy pause is the per-tick cost, and
    // recovery reconstructs from the log. Not listed in BENCHMARK.json: on
    // a shared 2-core machine its tick p99 lands in one of two clusters
    // from run to run (run-to-run spread 0.41), and with four checkpoints
    // queued per shard its checkpoint p90 follows the device's latency
    // swings (spread up to 0.40). The largest bound the benchmark may set
    // is 0.25. Run it by hand to measure the ring.
    Workload {
        name: "redo-ring",
        algorithm: Algorithm::PartialRedo,
        shards: 2,
        writer: WriterBackend::IoUring,
        pipeline_depth: 4,
        replication: 0,
        source: Source::Zipf {
            rows: 40_000,
            ticks: 12_000,
            updates_per_tick: 100,
            skew: 0.8,
        },
    },
    // Clustered, churning game updates over 13 attributes, the batched
    // writer without the ring, and the replica push; restore is a memory
    // fetch, so replay is almost all of recovery.
    Workload {
        name: "game-replica",
        algorithm: Algorithm::CopyOnUpdatePartialRedo,
        shards: 2,
        writer: WriterBackend::AsyncBatched,
        pipeline_depth: 1,
        replication: 1,
        source: Source::Game {
            units: 16_384,
            map_size: 1_024,
            ticks: 4_500,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn geometry(&self) -> StateGeometry {
        match self.source {
            Source::Zipf { rows, .. } => StateGeometry {
                rows,
                cols: 10,
                cell_size: 4,
                object_size: OBJECT_SIZE,
            },
            Source::Game { .. } => self.game_config(0).geometry(),
        }
    }

    fn game_config(&self, seed: u64) -> GameConfig {
        let Source::Game {
            units,
            map_size,
            ticks,
        } = self.source
        else {
            unreachable!("game_config on a Zipf workload");
        };
        GameConfig {
            units,
            map_size,
            ticks,
            ..GameConfig::paper()
        }
        .with_seed(seed)
    }

    /// Record the workload's trace for `seed` to `path`; returns the
    /// number of ticks written.
    fn record(&self, seed: u64, path: &Path) -> io::Result<u64> {
        match self.source {
            Source::Zipf {
                ticks,
                updates_per_tick,
                skew,
                ..
            } => {
                let mut src = SyntheticConfig {
                    geometry: self.geometry(),
                    ticks,
                    updates_per_tick,
                    skew,
                    seed,
                }
                .build();
                write_trace_file(path, &mut src)
            }
            Source::Game { .. } => {
                let config = self.game_config(seed);
                config.validate().map_err(io::Error::other)?;
                write_trace_file(path, &mut GameServer::new(config))
            }
        }
    }

    /// The engine configuration of one run rooted at `dir`, with every
    /// field the workload depends on set explicitly. `replicas` is the
    /// retained replica tier of a replicated workload.
    pub fn engine(&self, dir: &Path, replicas: Option<Arc<ReplicaSet>>) -> RealConfig {
        let mut c = RealConfig::new(dir);
        c.tick_period = Duration::from_nanos(33_333_333);
        c.paced = false;
        c.query_ops_per_tick = QUERY_OPS_PER_TICK;
        c.bit_test_cost_s = 2e-9;
        c.sync_data = true;
        c.measure_recovery = false;
        c.writer_pool_threads = 1;
        c.writer_backend = self.writer;
        c.batch_window = Duration::ZERO;
        c.auto_window = false;
        c.coalesce_fsync = true;
        c.device_sync = false;
        c.pipeline_depth = self.pipeline_depth;
        c.crash = None;
        c.fault = None;
        c.retry_max = 3;
        c.retry_backoff = Duration::ZERO;
        c.replication_factor = self.replication;
        c.replica_set = replicas;
        c.env_error = None;
        c
    }

    /// A fresh replica tier for one run, or `None` when the workload
    /// runs without one.
    pub fn replica_set(&self, map: &ShardMap) -> Option<Arc<ReplicaSet>> {
        (self.replication > 0).then(|| {
            let geometries: Vec<_> = (0..map.n_shards()).map(|s| map.shard_geometry(s)).collect();
            Arc::new(ReplicaSet::new(self.replication, &geometries))
        })
    }
}

/// Refuse to run with any `MMOC_*` variable set: `RealConfig::new` reads
/// nine of them, two of which arm crash and fault injection.
pub fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MMOC_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with engine overrides in the environment: {}",
            set.join(", ")
        ))
    }
}

/// The recorded trace and its ground truth.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub trace_path: PathBuf,
    pub map: ShardMap,
    pub ticks: u64,
    pub updates: u64,
    /// Updates routed to each shard.
    pub shard_updates: Vec<u64>,
    /// Fingerprint of each shard's state after the whole trace.
    pub truth: Vec<u64>,
}

impl Prepared {
    pub fn n_shards(&self) -> usize {
        self.map.n_shards()
    }

    /// A fresh cursor over shard `s`'s slice of the recorded trace.
    pub fn shard_trace(&self, s: usize) -> io::Result<ShardFilter<TraceFileReader>> {
        Ok(ShardFilter::new(
            TraceFileReader::open(&self.trace_path)?,
            self.map.clone(),
            s,
        ))
    }
}

/// The set-up phase: create the work directory, record the trace file
/// from `seed`, and apply it in memory shard by shard (`ShardFilter` +
/// `StateTable`) to get each shard's ground-truth fingerprint.
pub fn prepare(w: &Workload, seed: u64, work: &Path) -> io::Result<Prepared> {
    std::fs::create_dir_all(work)?;
    let trace_path = work.join("trace.bin");
    let ticks = w.record(seed, &trace_path)?;
    let map = ShardMap::new(w.geometry(), w.shards).map_err(io::Error::other)?;
    let mut prep = Prepared {
        trace_path,
        map,
        ticks,
        updates: 0,
        shard_updates: Vec::new(),
        truth: Vec::new(),
    };
    let mut buf = Vec::new();
    for s in 0..prep.n_shards() {
        let mut src = prep.shard_trace(s)?;
        let mut table = StateTable::new(src.geometry()).map_err(io::Error::other)?;
        let mut n = 0u64;
        while src.next_tick(&mut buf) {
            for &u in &buf {
                table.apply_unchecked(u);
            }
            n += buf.len() as u64;
        }
        prep.shard_updates.push(n);
        prep.truth.push(table.fingerprint());
    }
    prep.updates = prep.shard_updates.iter().sum();
    Ok(prep)
}

/// Run the set-up `reps` times, timing each, and check that every
/// repetition recorded the same trace. Returns the last preparation and
/// the set-up times in seconds.
pub fn prepare_repeated(
    w: &Workload,
    seed: u64,
    work: &Path,
    reps: usize,
) -> io::Result<(Prepared, Vec<f64>)> {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<Prepared> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let prep = prepare(w, seed, work)?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            if prev.truth != prep.truth || prev.updates != prep.updates {
                return Err(io::Error::other(
                    "the same seed recorded two different traces",
                ));
            }
        }
        last = Some(prep);
    }
    Ok((last.expect("at least one set-up repetition"), times))
}
