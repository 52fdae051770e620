//! Measurements through the repository's public seams: one engine run
//! over the recorded trace (`Run::execute`), parallel recovery of the
//! finished run (`mmoc_storage::recovery`), the same recovery replayed as
//! separate public calls, and timed calls into single layers.

use crate::spans::{SpanId, Tracer};
use crate::workload::{Prepared, Workload};
use mmoc_core::run::{EngineDetail, RealRunDetail, RunReport, TraceFn};
use mmoc_core::{
    Bookkeeper, CellUpdate, CheckpointBackend, CheckpointPlan, DiskOrg, FlushCompletion,
    FlushCursor, ObjectId, Run, ShardedDriver, StateGeometry, StateTable, TickDriver, TickOps,
    UpdateOps,
};
use mmoc_storage::files::BackupSet;
use mmoc_storage::log_store::LogStore;
use mmoc_storage::recovery::{
    recover_and_replay, recover_and_replay_log, recover_from_replica, RecoveryOpts,
};
use mmoc_storage::{shard_dir, ReplicaSet};
use mmoc_workload::{TraceFileReader, TraceSource};
use std::convert::Infallible;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One trace pull: when `next_tick` was entered and when it returned.
pub type Pull = (Instant, Instant);

/// A trace cursor that timestamps every pull. The tick drivers pull
/// exactly once per tick, so the gap between one pull's return and the
/// next pull's entry is one tick of the game loop. With a tracer
/// attached, every pull is also recorded as a `workload.next_tick` span.
pub struct TimedSource<S> {
    inner: S,
    pulls: Vec<Pull>,
    sink: Arc<Mutex<Vec<Pull>>>,
    tracer: Option<(Arc<Tracer>, SpanId)>,
}

impl<S: TraceSource> TimedSource<S> {
    pub fn new(
        inner: S,
        capacity: usize,
        sink: Arc<Mutex<Vec<Pull>>>,
        tracer: Option<(Arc<Tracer>, SpanId)>,
    ) -> Self {
        TimedSource {
            inner,
            pulls: Vec::with_capacity(capacity),
            sink,
            tracer,
        }
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn geometry(&self) -> StateGeometry {
        self.inner.geometry()
    }

    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
        let start = Instant::now();
        let more = self.inner.next_tick(buf);
        let end = Instant::now();
        self.pulls.push((start, end));
        if let Some((t, parent)) = &self.tracer {
            t.record("workload.next_tick", *parent, None, start, end);
        }
        more
    }

    fn total_ticks(&self) -> Option<u64> {
        self.inner.total_ticks()
    }
}

impl<S> Drop for TimedSource<S> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.pulls);
        }
    }
}

/// Per-tick game-loop times and pull times of one run, from its pulls.
#[derive(Debug, Clone, Default)]
pub struct TickTimes {
    /// Gap between successive pulls: one entry per executed tick.
    pub tick_s: Vec<f64>,
    /// Duration of each pull, the final (empty) pull included.
    pub pull_s: Vec<f64>,
    /// First pull's entry to last pull's return.
    pub loop_s: f64,
}

impl TickTimes {
    pub fn from_pulls(pulls: &[Pull]) -> Self {
        let tick_s = pulls
            .windows(2)
            .map(|w| w[1].0.duration_since(w[0].1).as_secs_f64())
            .collect();
        let pull_s = pulls
            .iter()
            .map(|(s, e)| e.duration_since(*s).as_secs_f64())
            .collect();
        let loop_s = match (pulls.first(), pulls.last()) {
            (Some(first), Some(last)) => last.1.duration_since(first.0).as_secs_f64(),
            _ => 0.0,
        };
        TickTimes {
            tick_s,
            pull_s,
            loop_s,
        }
    }
}

/// One engine run over the recorded trace.
#[derive(Debug, Clone)]
pub struct RunSample {
    /// Wall time of `Run::execute`.
    pub wall_s: f64,
    pub ticks: TickTimes,
    pub report: RunReport,
    pub detail: RealRunDetail,
    /// Output-check failures of this run (empty when it passed).
    pub errors: Vec<String>,
}

/// Execute the workload once through `Run::execute`, with its files
/// under `dir` (emptied first). Every engine knob comes from
/// [`Workload::engine`]; the builder sets only what `RealConfig` has no
/// field for. With a tracer, the run is recorded as a `run.execute` span
/// with one child per trace pull.
pub fn run_once(
    w: &Workload,
    prep: &Prepared,
    dir: &Path,
    replicas: Option<Arc<ReplicaSet>>,
    tracer: Option<&Arc<Tracer>>,
) -> io::Result<RunSample> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let sink = Arc::new(Mutex::new(Vec::new()));
    let path = prep.trace_path.clone();
    let capacity = prep.ticks as usize + 1;
    let span = tracer.map(|t| (Arc::clone(t), t.open()));
    let spec = {
        let sink = Arc::clone(&sink);
        let span = span.clone();
        TraceFn(move || {
            let file = TraceFileReader::open(&path).expect("recorded trace file opens");
            TimedSource::new(file, capacity, Arc::clone(&sink), span.clone())
        })
    };
    let run = Run::algorithm(w.algorithm)
        .engine(w.engine(dir, replicas))
        .trace(spec)
        .shards(w.shards)
        .batching(false)
        .fidelity_check(false);
    let t0 = Instant::now();
    let result = run.execute();
    let t1 = Instant::now();
    if let Some((t, id)) = &span {
        t.close(*id, "run.execute", 0, None, t0, t1);
    }
    let report = result.map_err(|e| io::Error::other(e.to_string()))?;
    let pulls = std::mem::take(&mut *sink.lock().expect("pull sink poisoned"));
    let EngineDetail::Real(detail) = report.detail else {
        return Err(io::Error::other(
            "the real engine returned a non-real report",
        ));
    };
    let errors = check_run(w, prep, &report, &detail);
    Ok(RunSample {
        wall_s: t1.duration_since(t0).as_secs_f64(),
        ticks: TickTimes::from_pulls(&pulls),
        report,
        detail,
        errors,
    })
}

/// Output checks of one run: the whole trace was applied, shard by shard,
/// and the writer that ran is the one requested.
fn check_run(
    w: &Workload,
    prep: &Prepared,
    report: &RunReport,
    detail: &RealRunDetail,
) -> Vec<String> {
    let mut errors = Vec::new();
    if report.ticks != prep.ticks || report.updates != prep.updates {
        errors.push(format!(
            "run applied {} ticks / {} updates, trace has {} / {}",
            report.ticks, report.updates, prep.ticks, prep.updates
        ));
    }
    for (s, shard) in report.shards.iter().enumerate() {
        if prep.shard_updates.get(s) != Some(&shard.updates) {
            errors.push(format!("shard {s} applied {} updates", shard.updates));
        }
    }
    if detail.writer_backend != w.writer || detail.writer_fallback_from.is_some() {
        errors.push(format!(
            "requested writer {} but {} ran",
            w.writer, detail.writer_backend
        ));
    }
    if report.world.checkpoints_completed == 0 {
        errors.push("the run completed no checkpoint".into());
    }
    errors
}

/// One recovery of a finished run: every shard restored and replayed to
/// the last tick in parallel, one thread per shard.
#[derive(Debug, Clone)]
pub struct RecoverySample {
    pub wall_s: f64,
    /// Each shard's time inside its `recover_*` call.
    pub shard_s: Vec<f64>,
    /// Whether each shard restored from a replica mirror.
    pub from_replica: Vec<bool>,
    pub errors: Vec<String>,
}

/// Recover every shard of the run under `dir` through the public
/// `mmoc_storage::recovery` functions (the replica tier first when the
/// workload retains one) and compare each state with the ground truth.
pub fn recover_once(
    w: &Workload,
    prep: &Prepared,
    dir: &Path,
    replicas: Option<&ReplicaSet>,
) -> RecoverySample {
    let n = prep.n_shards();
    let t0 = Instant::now();
    let results: Vec<io::Result<(f64, bool, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|s| scope.spawn(move || recover_shard(w, prep, dir, replicas, s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recovery thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut sample = RecoverySample {
        wall_s,
        shard_s: Vec::with_capacity(n),
        from_replica: Vec::with_capacity(n),
        errors: Vec::new(),
    };
    for (s, r) in results.into_iter().enumerate() {
        match r {
            Ok((secs, via_replica, fingerprint)) => {
                sample.shard_s.push(secs);
                sample.from_replica.push(via_replica);
                if fingerprint != prep.truth[s] {
                    sample.errors.push(format!(
                        "shard {s} recovered a state unlike the ground truth"
                    ));
                }
            }
            Err(e) => sample
                .errors
                .push(format!("shard {s} recovery failed: {e}")),
        }
    }
    sample
}

/// Recover one shard; returns (seconds inside `recover_*`, whether the
/// replica tier served it, recovered fingerprint).
fn recover_shard(
    w: &Workload,
    prep: &Prepared,
    dir: &Path,
    replicas: Option<&ReplicaSet>,
    s: usize,
) -> io::Result<(f64, bool, u64)> {
    let g = prep.map.shard_geometry(s);
    let sdir = shard_dir(dir, s, prep.n_shards());
    let opts = RecoveryOpts::default();
    if let Some(set) = replicas {
        let mut trace = prep.shard_trace(s)?;
        let t0 = Instant::now();
        let hit = recover_from_replica(set, s as u32, g, &mut trace, prep.ticks, &opts);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(rec) = hit {
            return Ok((secs, true, rec?.table.fingerprint()));
        }
    }
    let mut trace = prep.shard_trace(s)?;
    let t0 = Instant::now();
    let rec = match w.algorithm.spec().disk_org {
        DiskOrg::DoubleBackup => recover_and_replay(&sdir, g, &mut trace, prep.ticks)?,
        DiskOrg::Log => recover_and_replay_log(&sdir, g, &mut trace, prep.ticks)?,
    };
    Ok((t0.elapsed().as_secs_f64(), false, rec.table.fingerprint()))
}

/// One shard's recovery replayed as separate public calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `BackupSet::open` / `LogStore::open` (zero for a replica fetch).
    pub open_s: f64,
    /// `newest_consistent` + `read_full`, `reconstruct`, or
    /// `ReplicaSet::fetch` when [`Phases::from_replica`].
    pub read_s: f64,
    /// `StateTable::from_image`.
    pub adopt_s: f64,
    /// `next_tick` up to the restored tick.
    pub skip_s: f64,
    /// `next_tick` + `apply_unchecked` up to the last tick.
    pub apply_s: f64,
    pub ticks_skipped: u64,
    pub ticks_replayed: u64,
    pub updates_replayed: u64,
    pub from_replica: bool,
}

impl Phases {
    pub fn total_s(&self) -> f64 {
        self.open_s + self.read_s + self.adopt_s + self.skip_s + self.apply_s
    }
}

/// Replay one recovery of shard `s` phase by phase, recording a span per
/// phase under `parent`, and check the state against the ground truth.
pub fn recover_phases(
    w: &Workload,
    prep: &Prepared,
    dir: &Path,
    replicas: Option<&ReplicaSet>,
    s: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> io::Result<Phases> {
    let g = prep.map.shard_geometry(s);
    let sdir = shard_dir(dir, s, prep.n_shards());
    let shard = Some(s as u32);
    let mut trace = prep.shard_trace(s)?;
    let mut ph = Phases::default();

    let t0 = Instant::now();
    let fetched = replicas.and_then(|set| set.fetch(s as u32, None));
    let (image, from_tick, t1, t2) = match fetched {
        Some((image, tick)) => {
            let t2 = Instant::now();
            ph.from_replica = true;
            tracer.record("replica.fetch", parent, shard, t0, t2);
            (image, tick, t0, t2)
        }
        None => match w.algorithm.spec().disk_org {
            DiskOrg::DoubleBackup => {
                let mut set = BackupSet::open(&sdir, g)?;
                let t1 = Instant::now();
                let (idx, tick) = set
                    .newest_consistent()
                    .ok_or_else(|| io::Error::other("no consistent backup"))?;
                let image = set.read_full(idx)?;
                (image, tick, t1, Instant::now())
            }
            DiskOrg::Log => {
                let mut log = LogStore::open(&sdir, g)?;
                let t1 = Instant::now();
                let (image, tick, _) = log.reconstruct()?;
                (image, tick, t1, Instant::now())
            }
        },
    };
    tracer.record("recovery.open", parent, shard, t0, t1);
    tracer.record("recovery.read", parent, shard, t1, t2);

    let mut table = StateTable::from_image(g, image).map_err(io::Error::other)?;
    let t3 = Instant::now();
    tracer.record("recovery.adopt", parent, shard, t2, t3);

    let mut buf = Vec::new();
    let mut tick = 0u64;
    while tick < from_tick && trace.next_tick(&mut buf) {
        tick += 1;
    }
    let t4 = Instant::now();
    tracer.record("recovery.skip", parent, shard, t3, t4);
    ph.ticks_skipped = tick;

    while tick < prep.ticks && trace.next_tick(&mut buf) {
        tick += 1;
        ph.ticks_replayed += 1;
        for &u in &buf {
            table.apply_unchecked(u);
        }
        ph.updates_replayed += buf.len() as u64;
    }
    let t5 = Instant::now();
    tracer.record("recovery.apply", parent, shard, t4, t5);

    if table.fingerprint() != prep.truth[s] {
        return Err(io::Error::other(format!(
            "shard {s}: phase-by-phase recovery diverged from the ground truth"
        )));
    }
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    ph.open_s = secs(t0, t1);
    ph.read_s = secs(t1, t2);
    ph.adopt_s = secs(t2, t3);
    ph.skip_s = secs(t3, t4);
    ph.apply_s = secs(t4, t5);
    Ok(ph)
}

/// A checkpoint backend that does nothing: flushes complete at the next
/// poll, copies and applies cost nothing. Driving it isolates the core
/// layer's per-tick work (routing, `Handle-Update` bookkeeping,
/// checkpoint sequencing).
struct NoopBackend;

impl CheckpointBackend for NoopBackend {
    type Error = Infallible;

    fn begin_tick(&mut self, _tick: u64) -> Result<(), Infallible> {
        Ok(())
    }

    fn cursor(&mut self) -> FlushCursor {
        FlushCursor::START
    }

    fn apply_update(
        &mut self,
        _update: CellUpdate,
        _obj: ObjectId,
        _ops: UpdateOps,
    ) -> Result<(), Infallible> {
        Ok(())
    }

    fn end_updates(&mut self, _bk: &Bookkeeper, _ops: &TickOps) -> Result<f64, Infallible> {
        Ok(0.0)
    }

    fn poll_completion(&mut self, _bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Infallible> {
        Ok(Some(FlushCompletion {
            duration_s: 0.0,
            objects_written: 0,
            bytes_written: 0,
        }))
    }

    fn start_checkpoint(
        &mut self,
        _bk: &Bookkeeper,
        _plan: &CheckpointPlan,
        _tick: u64,
    ) -> Result<f64, Infallible> {
        Ok(0.0)
    }

    fn end_tick(&mut self, _tick: u64) -> Result<(), Infallible> {
        Ok(())
    }

    fn drain(&mut self, bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Infallible> {
        self.poll_completion(bk)
    }
}

/// Drive the workload's algorithm over the recorded trace with no-op
/// backends (`ShardedDriver` + `TickDriver`); returns the game-loop tick
/// times.
pub fn core_ticks(w: &Workload, prep: &Prepared, tracer: &Tracer) -> io::Result<TickTimes> {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let parent = tracer.open();
    let t0 = Instant::now();
    {
        let mut trace = TimedSource::new(
            TraceFileReader::open(&prep.trace_path)?,
            prep.ticks as usize + 1,
            Arc::clone(&sink),
            None,
        );
        let driver = ShardedDriver::new(
            TickDriver::new(w.algorithm.spec())
                .with_batching(false)
                .with_pipeline_depth(w.pipeline_depth),
            prep.map.clone(),
        );
        let mut backends: Vec<NoopBackend> = (0..prep.n_shards()).map(|_| NoopBackend).collect();
        let run = match driver.run(&mut trace, &mut backends) {
            Ok(run) => run,
            Err(never) => match never {},
        };
        if run.updates != prep.updates {
            return Err(io::Error::other("no-op driver run lost updates"));
        }
    }
    tracer.close(parent, "core.driver_run", 0, None, t0, Instant::now());
    let pulls = std::mem::take(&mut *sink.lock().expect("pull sink poisoned"));
    Ok(TickTimes::from_pulls(&pulls))
}

/// Nanoseconds per `StateTable::apply_unchecked`, over up to `max`
/// updates of shard 0's slice of the trace held in memory.
pub fn apply_ns(prep: &Prepared, max: usize, tracer: &Tracer) -> io::Result<f64> {
    let mut trace = prep.shard_trace(0)?;
    let g = trace.geometry();
    let mut updates = Vec::new();
    let mut buf = Vec::new();
    while updates.len() < max && trace.next_tick(&mut buf) {
        updates.extend_from_slice(&buf);
    }
    let mut table = StateTable::new(g).map_err(io::Error::other)?;
    let t0 = Instant::now();
    for &u in &updates {
        table.apply_unchecked(std::hint::black_box(u));
    }
    let t1 = Instant::now();
    std::hint::black_box(table.fingerprint());
    tracer.record("core.apply_unchecked", 0, Some(0), t0, t1);
    Ok(t1.duration_since(t0).as_secs_f64() * 1e9 / updates.len().max(1) as f64)
}

/// Timings of one write-sync-commit cycle of a store at the workload's
/// checkpoint size.
#[derive(Debug, Clone, Copy)]
pub struct StoreCycle {
    pub write_s: f64,
    pub sync_s: f64,
    pub commit_s: f64,
    pub bytes: u64,
}

/// `count` object ids spread evenly over `n_objects`, ascending (the
/// sorted write order of both disk organizations).
fn spread_ids(n_objects: u32, count: u32) -> Vec<ObjectId> {
    let count = count.clamp(1, n_objects);
    (0..count)
        .map(|i| ObjectId((u64::from(i) * u64::from(n_objects) / u64::from(count)) as u32))
        .collect()
}

/// Time `reps` checkpoints of `objects` objects written to a double
/// backup under `dir`: `BackupSet::write_object` for each, `sync`, then
/// `commit`.
pub fn backup_cycles(
    g: StateGeometry,
    dir: &Path,
    objects: u32,
    reps: usize,
    tracer: &Tracer,
) -> io::Result<Vec<StoreCycle>> {
    let ids = spread_ids(g.n_objects(), objects);
    let data = vec![0xA5u8; g.object_size as usize];
    let image = vec![0u8; g.n_objects() as usize * g.object_size as usize];
    let mut set = BackupSet::create(dir, g, &image)?;
    let mut out = Vec::with_capacity(reps);
    for rep in 0..reps {
        let idx = rep % 2;
        let t0 = Instant::now();
        for &id in &ids {
            set.write_object(idx, id, &data)?;
        }
        let t1 = Instant::now();
        set.sync(idx)?;
        let t2 = Instant::now();
        set.commit(idx, rep as u64 + 1)?;
        let t3 = Instant::now();
        tracer.record("files.write_object", 0, None, t0, t1);
        tracer.record("files.sync", 0, None, t1, t2);
        tracer.record("files.commit", 0, None, t2, t3);
        out.push(StoreCycle {
            write_s: t1.duration_since(t0).as_secs_f64(),
            sync_s: t2.duration_since(t1).as_secs_f64(),
            commit_s: t3.duration_since(t2).as_secs_f64(),
            bytes: ids.len() as u64 * u64::from(g.object_size),
        });
    }
    Ok(out)
}

/// Time `reps` log segments of `objects` objects appended under `dir`:
/// `SegmentWriter::write_object` for each, then `finish` with a sync.
pub fn log_cycles(
    g: StateGeometry,
    dir: &Path,
    objects: u32,
    reps: usize,
    tracer: &Tracer,
) -> io::Result<Vec<StoreCycle>> {
    let ids = spread_ids(g.n_objects(), objects);
    let data = vec![0x5Au8; g.object_size as usize];
    let mut log = LogStore::create(dir, g)?;
    let mut out = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        let mut seg = log.begin_segment(rep as u64, rep as u64 + 1, rep == 0)?;
        for &id in &ids {
            seg.write_object(id, &data)?;
        }
        let t1 = Instant::now();
        let info = seg.finish(true)?;
        let t2 = Instant::now();
        tracer.record("log_store.write_object", 0, None, t0, t1);
        tracer.record("log_store.finish", 0, None, t1, t2);
        out.push(StoreCycle {
            write_s: t1.duration_since(t0).as_secs_f64(),
            sync_s: t2.duration_since(t1).as_secs_f64(),
            commit_s: 0.0,
            bytes: info.bytes,
        });
    }
    Ok(out)
}

/// Closure tests: the layer times the benchmark reports must add up to
/// the end-to-end times they split.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{closure_error, CLOSURE_TOLERANCE};
    use crate::workload::{prepare, Source};
    use mmoc_core::{Algorithm, WriterBackend};
    use std::path::PathBuf;

    /// Largest share of a run's wall time that may fall outside the game
    /// loop (store creation before the first pull, the final drain after
    /// the last one) in these small test runs.
    const OUTSIDE_LOOP_TOLERANCE: f64 = 0.25;

    /// Tests that time the engine take turns, so they do not compete for
    /// the cores with each other.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn small(algorithm: Algorithm, shards: u32) -> Workload {
        Workload {
            name: "test",
            algorithm,
            shards,
            writer: WriterBackend::ThreadPool,
            pipeline_depth: 1,
            replication: 0,
            source: Source::Zipf {
                rows: 4_000,
                ticks: 12_000,
                updates_per_tick: 100,
                skew: 0.8,
            },
        }
    }

    /// A scratch directory removed when the test ends.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn run(w: &Workload, tag: &str) -> (Scratch, Prepared, RunSample) {
        let scratch = Scratch::new(tag);
        let prep = prepare(w, 7, &scratch.0.join("setup")).expect("set-up");
        let sample = run_once(w, &prep, &scratch.0.join("run"), None, None).expect("run");
        assert!(sample.errors.is_empty(), "{:?}", sample.errors);
        (scratch, prep, sample)
    }

    /// Phase-by-phase recovery and the `recover_*` call time the same
    /// work: their medians agree within the benchmark's tolerance, for
    /// both disk organizations.
    #[test]
    fn recovery_phases_sum_to_the_recovery_call() {
        let _turn = serial();
        for (alg, tag) in [
            (Algorithm::CopyOnUpdate, "closure-backup"),
            (Algorithm::PartialRedo, "closure-log"),
        ] {
            // A longer trace than the other tests, so one recovery takes
            // tens of milliseconds rather than a few.
            let w = Workload {
                source: Source::Zipf {
                    rows: 4_000,
                    ticks: 20_000,
                    updates_per_tick: 100,
                    skew: 0.8,
                },
                ..small(alg, 1)
            };
            let (scratch, prep, _) = run(&w, tag);
            let dir = scratch.0.join("run");
            let tracer = Tracer::new();
            let mut whole = Vec::new();
            let mut phased = Vec::new();
            for i in 0..9 {
                let mut call = || {
                    let s = recover_once(&w, &prep, &dir, None);
                    assert!(s.errors.is_empty(), "{:?}", s.errors);
                    whole.push(s.shard_s[0]);
                };
                // Alternate which of the pair runs first.
                if i % 2 == 0 {
                    call();
                }
                // On a thread of its own, like each shard's recovery.
                let p = std::thread::scope(|s| {
                    s.spawn(|| recover_phases(&w, &prep, &dir, None, 0, &tracer, 0))
                        .join()
                        .expect("recovery thread")
                })
                .expect("phases");
                assert_eq!(p.ticks_skipped + p.ticks_replayed, prep.ticks);
                phased.push(p.total_s());
                if i % 2 == 1 {
                    call();
                }
            }
            let err = closure_error(&phased, &whole);
            assert!(
                err < CLOSURE_TOLERANCE,
                "{alg}: phases {phased:?} vs recover_* {whole:?} (error {err:.3})"
            );
        }
    }

    /// Each checkpoint record agrees with two timings taken apart from
    /// the writer's: its sync pause is the pause the engine charged to
    /// the tick that started it, and its whole duration (pause plus
    /// enqueue-to-durable ack) fits in the game-loop time, read from the
    /// benchmark's own pull timestamps, from the start of that tick to the
    /// end of the tick whose poll saw it complete.
    #[test]
    fn checkpoint_time_fits_its_ticks() {
        let _turn = serial();
        let w = small(Algorithm::PartialRedo, 1);
        let (_scratch, prep, sample) = run(&w, "closure-ckpt");
        let m = &sample.report.shards[0].summary.metrics;
        let t = &sample.ticks;
        // Game-loop time from the start of tick `a` to the end of tick
        // `b` (1-based): their gaps plus the pulls between them.
        let window = |a: u64, b: u64| -> f64 {
            let (a, b) = (a as usize, b as usize);
            t.tick_s[a - 1..b].iter().sum::<f64>() + t.pull_s[a..b].iter().sum::<f64>()
        };
        let mut paused = 0;
        let mut bounded = 0;
        for c in &m.checkpoints {
            assert!(
                c.sync_pause_s >= 0.0 && c.duration_s >= c.sync_pause_s,
                "{c:?}"
            );
            let tick = &m.ticks[(c.start_tick - 1) as usize];
            assert_eq!(tick.tick, c.start_tick);
            assert_eq!(tick.sync_pause_s, c.sync_pause_s, "{c:?}");
            paused += usize::from(c.sync_pause_s > 0.0);
            // Checkpoints drained after the last pull have no closing tick.
            if c.end_tick < prep.ticks {
                assert!(c.end_tick > c.start_tick, "{c:?}");
                let span = window(c.start_tick, c.end_tick);
                assert!(c.duration_s <= span, "{c:?} outlasts its ticks ({span} s)");
                bounded += 1;
            }
        }
        assert!(paused > 0, "an eager algorithm pauses at checkpoint start");
        assert!(
            bounded + 2 >= m.checkpoints.len(),
            "{bounded} of {}",
            m.checkpoints.len()
        );
    }

    /// One gap per tick and one pull per tick plus the final empty pull;
    /// together they account for the run's wall time, timed around
    /// `Run::execute`, up to store creation and the final drain.
    #[test]
    fn tick_and_pull_times_account_for_the_run() {
        let _turn = serial();
        let w = small(Algorithm::CopyOnUpdate, 2);
        let (_scratch, prep, sample) = run(&w, "closure-ticks");
        let t = &sample.ticks;
        assert_eq!(t.tick_s.len() as u64, prep.ticks);
        assert_eq!(t.pull_s.len() as u64, prep.ticks + 1);
        let summed: f64 = t.tick_s.iter().sum::<f64>() + t.pull_s.iter().sum::<f64>();
        let outside = (sample.wall_s - summed) / sample.wall_s;
        assert!(
            (0.0..OUTSIDE_LOOP_TOLERANCE).contains(&outside),
            "ticks and pulls leave {outside:.3} of the run's wall time unaccounted"
        );
    }

    /// The no-op driver sees every update of the trace, one gap per tick.
    #[test]
    fn core_driver_run_covers_the_trace() {
        let _turn = serial();
        let w = small(Algorithm::CopyOnUpdate, 2);
        let scratch = Scratch::new("core");
        let prep = prepare(&w, 3, &scratch.0).expect("set-up");
        let t = core_ticks(&w, &prep, &Tracer::new()).expect("core run");
        assert_eq!(t.tick_s.len() as u64, prep.ticks);
    }
}
