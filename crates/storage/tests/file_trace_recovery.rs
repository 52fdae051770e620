//! Recovery over a recorded trace file replays only the tail.
//!
//! `TraceFileReader` skips to the restored checkpoint's tick through the
//! file's tick index instead of re-reading every tick from 0. For each
//! restore path — backup set, checkpoint log, replica tier — and for a
//! crash at the checkpoint tick, mid-trace and at the end of the trace,
//! the recovered state must equal both the ground truth and the same
//! recovery driven through the sequential (read-and-discard) skip, and
//! exactly `crash_tick − from_tick` ticks must be replayed.

use mmoc_core::{
    CellUpdate, ObjectId, ShardFilter, ShardMap, StateGeometry, StateTable, TraceSource,
};
use mmoc_storage::files::BackupSet;
use mmoc_storage::log_store::LogStore;
use mmoc_storage::recovery::{
    recover_and_replay, recover_and_replay_log, recover_from_replica, RecoveredState, RecoveryOpts,
};
use mmoc_storage::ReplicaSet;
use mmoc_workload::{write_trace_file, SyntheticConfig, TraceFileReader};
use std::io;
use std::path::Path;

const TICKS: u64 = 40;
const CHECKPOINT_TICK: u64 = 15;
const N_SHARDS: u32 = 2;

fn trace_config() -> SyntheticConfig {
    SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: TICKS,
        updates_per_tick: 60,
        skew: 0.8,
        seed: 9031,
    }
}

/// Forwards `next_tick` only, so `skip_ticks` is the trait's default
/// read-and-discard loop: the sequential path the index replaces.
struct Sequential<S>(S);

impl<S: TraceSource> TraceSource for Sequential<S> {
    fn geometry(&self) -> StateGeometry {
        self.0.geometry()
    }

    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
        self.0.next_tick(buf)
    }
}

/// The state after the first `ticks` ticks of `src`.
fn state_after(src: &mut impl TraceSource, ticks: u64) -> StateTable {
    let mut table = StateTable::new(src.geometry()).unwrap();
    let mut buf = Vec::new();
    for _ in 0..ticks {
        assert!(src.next_tick(&mut buf));
        for &u in &buf {
            table.apply_unchecked(u);
        }
    }
    table
}

#[derive(Clone, Copy, Debug)]
enum Restore {
    Backup,
    Log,
    Replica,
}

fn recover(
    restore: Restore,
    dir: &Path,
    replicas: &ReplicaSet,
    shard: u32,
    trace: &mut impl TraceSource,
    crash_tick: u64,
) -> io::Result<RecoveredState> {
    let g = trace.geometry();
    match restore {
        Restore::Backup => recover_and_replay(&dir.join("backup"), g, trace, crash_tick),
        Restore::Log => recover_and_replay_log(&dir.join("log"), g, trace, crash_tick),
        Restore::Replica => recover_from_replica(
            replicas,
            shard,
            g,
            trace,
            crash_tick,
            &RecoveryOpts::default(),
        )
        .expect("the mirror is complete"),
    }
}

#[test]
fn file_trace_recovery_replays_only_the_tail() {
    let tmp = tempfile::tempdir().unwrap();
    let trace_path = tmp.path().join("trace.bin");
    write_trace_file(&trace_path, &mut trace_config().build()).unwrap();
    let map = ShardMap::new(trace_config().geometry, N_SHARDS).unwrap();
    let open =
        |s: usize| ShardFilter::new(TraceFileReader::open(&trace_path).unwrap(), map.clone(), s);
    let geometries: Vec<_> = (0..N_SHARDS as usize)
        .map(|s| map.shard_geometry(s))
        .collect();
    let replicas = ReplicaSet::new(1, &geometries);

    for s in 0..N_SHARDS as usize {
        // One checkpoint of the state at CHECKPOINT_TICK in each store.
        let g = map.shard_geometry(s);
        let dir = tmp.path().join(format!("shard{s}"));
        let image = state_after(&mut open(s), CHECKPOINT_TICK);
        let mut set = BackupSet::create(&dir.join("backup"), g, image.as_bytes()).unwrap();
        set.commit(0, CHECKPOINT_TICK).unwrap();
        drop(set);
        let ids: Vec<u32> = (0..g.n_objects()).collect();
        let objects = ids
            .iter()
            .map(|&id| (ObjectId(id), image.object_bytes(ObjectId(id)).unwrap()));
        let mut log = LogStore::create(&dir.join("log"), g).unwrap();
        log.append_segment(1, CHECKPOINT_TICK, true, objects, true)
            .unwrap();
        drop(log);
        replicas.publish(
            s as u32,
            CHECKPOINT_TICK,
            &ids,
            image.as_bytes(),
            g.object_size,
        );

        for crash_tick in [
            CHECKPOINT_TICK,
            u64::midpoint(CHECKPOINT_TICK, TICKS),
            TICKS,
        ] {
            let truth = state_after(&mut open(s), crash_tick);
            for restore in [Restore::Backup, Restore::Log, Restore::Replica] {
                let label = format!("shard {s}, {restore:?}, crash at {crash_tick}");
                let fast = recover(restore, &dir, &replicas, s as u32, &mut open(s), crash_tick)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let slow = recover(
                    restore,
                    &dir,
                    &replicas,
                    s as u32,
                    &mut Sequential(open(s)),
                    crash_tick,
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(fast.from_tick, CHECKPOINT_TICK, "{label}");
                assert_eq!(fast.ticks_replayed, crash_tick - CHECKPOINT_TICK, "{label}");
                assert_eq!(slow.ticks_replayed, fast.ticks_replayed, "{label}");
                assert_eq!(slow.updates_replayed, fast.updates_replayed, "{label}");
                assert_eq!(
                    fast.table.fingerprint(),
                    slow.table.fingerprint(),
                    "{label}"
                );
                assert_eq!(fast.table.as_bytes(), truth.as_bytes(), "{label}");
            }
        }
    }
}
