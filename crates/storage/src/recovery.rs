//! Real crash recovery: restore the newest backup, replay the stream.
//!
//! "In the event of a crash, the game state can be reconstructed by
//! reading the most recent checkpoint and replaying the logical log."
//! The logical log of these experiments is the deterministic update
//! stream itself (the paper drives both engines from trace files), so
//! replay moves the trace source to the checkpoint's consistent tick
//! ([`TraceSource::skip_ticks`]) and applies every tick after it. On an
//! indexed trace file or an in-memory trace the skip is O(1), so
//! recovery costs restore + Δticks; generator sources skip by
//! regenerating the ticks they pass.
//!
//! Both disk organizations are covered: [`recover_and_replay`] restores
//! the newest consistent [`BackupSet`] image, and
//! [`recover_and_replay_log`] reconstructs the newest image from the
//! [`LogStore`] (reading back through the log to the last full flush).

use crate::crash::{CrashPoint, CrashState};
use crate::fault::{FaultState, RetryCounters, RetryPolicy};
use crate::files::BackupSet;
use crate::log_store::LogStore;
use mmoc_core::{StateGeometry, StateTable};
use mmoc_workload::TraceSource;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Instrumentation threaded through one recovery attempt: a crash
/// lattice for the recovery-phase points (re-crash-during-recovery), a
/// transient-fault layer for the restore reads, and the retry policy
/// absorbing injected read faults. `Default` is production: nothing
/// armed, reads retried under the default bounded policy (a no-op when
/// nothing fails).
///
/// Re-entrancy contract: a recovery-phase crash point fires **once**
/// per [`CrashState`] (the fired latch), returning an error from the
/// recovery function without freezing anything — so re-invoking the
/// same recovery over the same directory (the process-restart model)
/// passes the point and must succeed.
#[derive(Debug, Default, Clone)]
pub struct RecoveryOpts {
    /// Crash lattice consulted at the recovery-phase points. For
    /// re-crash plans this is a *separate* state from the run's (whose
    /// fired latch the mid-run crash already consumed).
    pub crash: Option<Arc<CrashState>>,
    /// Transient-fault layer attached to the store being restored.
    pub fault: Option<Arc<FaultState>>,
    /// Bounded retry policy for the restore reads.
    pub retry: RetryPolicy,
}

impl RecoveryOpts {
    /// Consult the recovery crash lattice at `point`; firing turns
    /// into the error a re-crashed recovery attempt would surface.
    fn recrash(&self, point: CrashPoint) -> io::Result<()> {
        if let Some(c) = &self.crash {
            if c.reach(point).is_some() {
                return Err(io::Error::other(format!(
                    "injected re-crash during recovery at {}",
                    point.name()
                )));
            }
        }
        Ok(())
    }
}

/// A recovered state plus timing breakdown.
#[derive(Debug)]
pub struct RecoveredState {
    /// The reconstructed game state.
    pub table: StateTable,
    /// Tick the restored backup was consistent as of.
    pub from_tick: u64,
    /// Ticks whose updates were replayed.
    pub ticks_replayed: u64,
    /// Updates replayed.
    pub updates_replayed: u64,
    /// Wall time reading + installing the backup image.
    pub restore_s: f64,
    /// Wall time moving the trace to the restored tick
    /// ([`TraceSource::skip_ticks`]): O(1) on an indexed trace file or
    /// an in-memory trace, a read-and-discard loop on a generator.
    pub skip_s: f64,
    /// Wall time applying the replayed ticks.
    pub replay_s: f64,
}

impl RecoveredState {
    /// End-to-end recovery time: restore, skip and replay.
    pub fn total_s(&self) -> f64 {
        self.restore_s + self.skip_s + self.replay_s
    }
}

/// Restore from the backups under `dir` and replay `trace` (iterated from
/// its beginning) up to and including `crash_tick`.
pub fn recover_and_replay<S: TraceSource>(
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
) -> io::Result<RecoveredState> {
    recover_and_replay_with(dir, geometry, trace, crash_tick, &RecoveryOpts::default())
}

/// [`recover_and_replay`] with explicit instrumentation. Safely
/// re-entrant: a failed attempt (injected or real) leaves the backup
/// files untouched, so calling again over the same directory restores
/// the same image.
pub fn recover_and_replay_with<S: TraceSource>(
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> io::Result<RecoveredState> {
    let t0 = Instant::now();
    let mut set = BackupSet::open(dir, geometry)?;
    set.attach_fault(opts.fault.clone());
    let (idx, from_tick) = set
        .newest_consistent()
        .ok_or_else(|| io::Error::other("no consistent backup to restore"))?;
    let mut counters = RetryCounters::default();
    let image = opts.retry.run(&mut counters, || set.read_full(idx))?;
    opts.recrash(CrashPoint::RecoveryReadImage)?;
    restore_and_replay(geometry, image, from_tick, t0, trace, crash_tick, opts)
}

/// Restore from the checkpoint log under `dir` (reconstructing the newest
/// consistent image back to the last full flush) and replay `trace` up to
/// and including `crash_tick`.
pub fn recover_and_replay_log<S: TraceSource>(
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
) -> io::Result<RecoveredState> {
    recover_and_replay_log_with(dir, geometry, trace, crash_tick, &RecoveryOpts::default())
}

/// [`recover_and_replay_log`] with explicit instrumentation. Safely
/// re-entrant: reconstruction only reads, so a failed attempt can be
/// repeated over the same log.
pub fn recover_and_replay_log_with<S: TraceSource>(
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> io::Result<RecoveredState> {
    let t0 = Instant::now();
    let mut log = LogStore::open(dir, geometry)?;
    log.attach_fault(opts.fault.clone());
    let mut counters = RetryCounters::default();
    let (image, from_tick, _bytes_read) = opts.retry.run(&mut counters, || log.reconstruct())?;
    opts.recrash(CrashPoint::RecoveryReadImage)?;
    restore_and_replay(geometry, image, from_tick, t0, trace, crash_tick, opts)
}

/// Restore from the replica tier: fetch a complete peer mirror of
/// `shard`'s state (a memcpy — no disk reads) and replay `trace` from
/// the mirror's consistent tick up to and including `crash_tick`.
///
/// Returns `None` when the tier cannot serve — no [`ReplicaSet`] mirror
/// of the shard is complete (a push transaction was open at crash time,
/// or every hosting peer died mid-fetch per the armed
/// [`crash::CrashPoint::ReplicaFetch`] plan) — in which case the caller
/// falls back to the disk path with the trace cursor untouched.
///
/// [`ReplicaSet`]: crate::replica::ReplicaSet
/// [`crash::CrashPoint::ReplicaFetch`]: crate::crash::CrashPoint::ReplicaFetch
pub fn recover_from_replica<S: TraceSource>(
    replicas: &crate::replica::ReplicaSet,
    shard: u32,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> Option<io::Result<RecoveredState>> {
    let t0 = Instant::now();
    // One state-sized copy: clone the mirror image under its lock, then
    // adopt the clone as the recovered table's backing buffer. The fetch
    // consults the recovery-phase peer-death points (`replica-fetch`,
    // `replica-fetch-mid`) per mirror tried.
    let (image, from_tick) = replicas.fetch(shard, opts.crash.as_deref())?;
    Some(
        StateTable::from_image(geometry, image)
            .map_err(|e| io::Error::other(e.to_string()))
            .and_then(|table| replay_tail(table, from_tick, t0, trace, crash_tick, opts)),
    )
}

/// Shared tail of both disk restore paths: adopt the image as the
/// recovered table, replay the logical log (the deterministic trace) to
/// the crash tick.
fn restore_and_replay<S: TraceSource>(
    geometry: StateGeometry,
    image: Vec<u8>,
    from_tick: u64,
    restore_start: Instant,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> io::Result<RecoveredState> {
    let table =
        StateTable::from_image(geometry, image).map_err(|e| io::Error::other(e.to_string()))?;
    replay_tail(table, from_tick, restore_start, trace, crash_tick, opts)
}

/// Replay the logical log (the deterministic trace) over a restored
/// table up to and including `crash_tick`. `restore_start` closes the
/// restore-phase timing; then the trace skips the ticks the image
/// already holds (the skip phase) and the rest are applied (the replay
/// phase). The `recovery-replay-tick` point is reached once per
/// replayed tick, so a re-crash plan can land anywhere in the tail.
fn replay_tail<S: TraceSource>(
    mut table: StateTable,
    from_tick: u64,
    restore_start: Instant,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> io::Result<RecoveredState> {
    let restore_s = restore_start.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut tick = trace.skip_ticks(from_tick.min(crash_tick));
    let skip_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let mut buf = Vec::new();
    let mut ticks_replayed = 0u64;
    let mut updates_replayed = 0u64;
    while tick < crash_tick && trace.next_tick(&mut buf) {
        tick += 1;
        opts.recrash(CrashPoint::RecoveryReplayTick)?;
        ticks_replayed += 1;
        for &u in &buf {
            table.apply_unchecked(u);
            updates_replayed += 1;
        }
    }
    let replay_s = t2.elapsed().as_secs_f64();

    Ok(RecoveredState {
        table,
        from_tick,
        ticks_replayed,
        updates_replayed,
        restore_s,
        skip_s,
        replay_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::CellUpdate;
    use mmoc_workload::RecordedTrace;

    fn geometry() -> StateGeometry {
        StateGeometry::test_micro()
    }

    fn trace() -> RecordedTrace {
        let ticks: Vec<Vec<CellUpdate>> = (1..=10u32)
            .map(|t| vec![CellUpdate::new(t % 16, t % 4, t * 11)])
            .collect();
        RecordedTrace::new(geometry(), ticks)
    }

    #[test]
    fn recovery_restores_then_replays_the_tail() {
        let dir = tempfile::tempdir().unwrap();
        let g = geometry();
        let t = trace();

        // Build the state as of tick 6 and commit it as backup 0.
        let mut at6 = StateTable::new(g).unwrap();
        let mut replay = t.replay();
        let mut buf = Vec::new();
        for _ in 0..6 {
            replay.next_tick(&mut buf);
            for &u in &buf {
                at6.apply(u).unwrap();
            }
        }
        let mut set = BackupSet::create(dir.path(), g, at6.as_bytes()).unwrap();
        set.commit(0, 6).unwrap();
        drop(set);

        // Full state as of tick 10 for comparison.
        let mut at10 = at6.clone();
        for _ in 6..10 {
            replay.next_tick(&mut buf);
            for &u in &buf {
                at10.apply(u).unwrap();
            }
        }

        let rec = recover_and_replay(dir.path(), g, &mut t.replay(), 10).unwrap();
        assert_eq!(rec.from_tick, 6);
        assert_eq!(rec.ticks_replayed, 4);
        assert_eq!(rec.updates_replayed, 4);
        assert_eq!(rec.table.fingerprint(), at10.fingerprint());
        assert!(rec.restore_s >= 0.0 && rec.skip_s >= 0.0 && rec.replay_s >= 0.0);
    }

    #[test]
    fn recovery_without_backups_fails() {
        let dir = tempfile::tempdir().unwrap();
        let g = geometry();
        // Create then invalidate both backups.
        let mut set = BackupSet::create(dir.path(), g, &vec![0u8; 4 * 64]).unwrap();
        set.invalidate(0).unwrap();
        set.invalidate(1).unwrap();
        drop(set);
        let t = trace();
        assert!(recover_and_replay(dir.path(), g, &mut t.replay(), 5).is_err());
    }

    #[test]
    fn crash_at_checkpoint_tick_replays_nothing() {
        let dir = tempfile::tempdir().unwrap();
        let g = geometry();
        let t = trace();
        let mut at3 = StateTable::new(g).unwrap();
        let mut replay = t.replay();
        let mut buf = Vec::new();
        for _ in 0..3 {
            replay.next_tick(&mut buf);
            for &u in &buf {
                at3.apply(u).unwrap();
            }
        }
        let mut set = BackupSet::create(dir.path(), g, at3.as_bytes()).unwrap();
        set.commit(0, 3).unwrap();
        drop(set);

        let rec = recover_and_replay(dir.path(), g, &mut t.replay(), 3).unwrap();
        assert_eq!(rec.ticks_replayed, 0);
        assert_eq!(rec.table.fingerprint(), at3.fingerprint());
    }
}
