//! Reports from real (wall-clock) runs.

use mmoc_core::{Algorithm, RunMetrics};
use serde::{Deserialize, Serialize};

/// Wall-clock measurements of one real crash recovery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryMeasurement {
    /// Time to read and install the newest consistent backup, in seconds.
    pub restore_s: f64,
    /// Time to move the update stream to the checkpoint tick, in
    /// seconds (O(1) on indexed trace files; see
    /// [`crate::recovery::RecoveredState::skip_s`]).
    pub skip_s: f64,
    /// Time to replay the update stream from the checkpoint tick to the
    /// crash tick, in seconds.
    pub replay_s: f64,
    /// Total recovery time (restore + skip + replay).
    pub total_s: f64,
    /// Tick the restored backup was consistent as of.
    pub restored_from_tick: u64,
    /// Ticks replayed.
    pub ticks_replayed: u64,
    /// Individual updates replayed.
    pub updates_replayed: u64,
    /// Whether the recovered state's fingerprint equals the live state at
    /// the crash tick (the whole point of the exercise).
    pub state_matches: bool,
    /// True when the restore came from a peer shard's memory mirror (the
    /// replica tier) rather than the disk organization's files.
    pub from_replica: bool,
}

/// Writer-side instrumentation of one run (or one shard's slice of it):
/// how many flush jobs completed, how many data `fsync` calls reaching
/// their durability points actually cost, and how full the batches they
/// completed in were. Threaded from the writer backend through each
/// job's completion report, so the counts are exact, not sampled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriterStats {
    /// Flush jobs completed.
    pub flush_jobs: u64,
    /// Data `fsync` calls issued. The durability scheduler attributes
    /// every call to exactly one job (the one that triggered it), so the
    /// per-job sum is the true call count: `flush_jobs` under per-job
    /// durability with data syncing on, fewer when cross-shard fsync
    /// coalescing merged same-file targets, zero with syncing off.
    pub data_fsyncs: u64,
    /// `syncfs`-style whole-device barriers issued, attributed the same
    /// way (exactly one job per call). A barrier replaces the per-file
    /// fsyncs of every same-device file in its batch, so runs with the
    /// device barrier engaged report fewer `data_fsyncs` and a nonzero
    /// count here. Zero when the barrier is off or `syncfs` unavailable.
    pub device_syncs: u64,
    /// Sum over jobs of the occupancy of the batch each completed in
    /// (thread-pool jobs count as batches of one).
    pub batch_jobs_sum: u64,
    /// Largest batch any job completed in.
    pub max_batch_jobs: u32,
    /// Checkpoint payload bytes the writer flushed (object images /
    /// serialized log segments; excludes metadata commits).
    pub bytes_written: u64,
    /// Sum over jobs of the SQE count of the ring submission round that
    /// carried each job's data writes. Zero for the syscall-per-write
    /// backends — nonzero only when the real io_uring backend ran, which
    /// makes it double as ground truth that the ring was actually used.
    pub sqe_batch_sum: u64,
    /// Largest ring submission round any job's writes rode in.
    pub max_sqe_batch: u32,
    /// Retry attempts performed on transient I/O faults (each re-issue
    /// of a failed data write / fsync / meta commit under the bounded
    /// retry policy; zero when nothing failed).
    pub retries: u64,
    /// Operations whose retry budget ran out — the error took the
    /// degradation ladder (typed run error on the pool/batched
    /// engines, dead-flag redo on io_uring).
    pub retry_exhausted: u64,
    /// Jobs completed through the degradation ladder: on io_uring, the
    /// synchronous redo path after the ring's dead flag latched.
    pub degraded_jobs: u64,
}

impl WriterStats {
    /// Fold another stats block (e.g. a shard's) into this one.
    pub fn merge(&mut self, other: WriterStats) {
        self.flush_jobs += other.flush_jobs;
        self.data_fsyncs += other.data_fsyncs;
        self.device_syncs += other.device_syncs;
        self.batch_jobs_sum += other.batch_jobs_sum;
        self.max_batch_jobs = self.max_batch_jobs.max(other.max_batch_jobs);
        self.bytes_written += other.bytes_written;
        self.sqe_batch_sum += other.sqe_batch_sum;
        self.max_sqe_batch = self.max_sqe_batch.max(other.max_sqe_batch);
        self.retries += other.retries;
        self.retry_exhausted += other.retry_exhausted;
        self.degraded_jobs += other.degraded_jobs;
    }

    /// Job-weighted average batch occupancy (1.0 for the thread pool).
    pub fn avg_batch_jobs(&self) -> f64 {
        if self.flush_jobs == 0 {
            0.0
        } else {
            self.batch_jobs_sum as f64 / self.flush_jobs as f64
        }
    }

    /// Job-weighted average ring submission-round occupancy (0.0 for the
    /// syscall-per-write backends and for empty runs).
    pub fn avg_sqe_batch(&self) -> f64 {
        if self.flush_jobs == 0 {
            0.0
        } else {
            self.sqe_batch_sum as f64 / self.flush_jobs as f64
        }
    }
}

/// Result of one real engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RealReport {
    /// Algorithm executed (Naive-Snapshot or Copy-on-Update).
    pub algorithm: Algorithm,
    /// Ticks executed.
    pub ticks: u64,
    /// Updates applied.
    pub updates: u64,
    /// Checkpoints completed (data synced and metadata committed).
    pub checkpoints_completed: u64,
    /// Average measured overhead per tick, in seconds.
    pub avg_overhead_s: f64,
    /// Worst single-tick overhead, in seconds.
    pub max_overhead_s: f64,
    /// Average measured checkpoint duration (sync pause + write + fsync),
    /// in seconds.
    pub avg_checkpoint_s: f64,
    /// Raw per-tick and per-checkpoint series.
    pub metrics: RunMetrics,
    /// Writer-side durability instrumentation for this run's flush jobs.
    pub writer: WriterStats,
    /// Crash-recovery measurement, when enabled.
    pub recovery: Option<RecoveryMeasurement>,
}

impl RealReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let rec = self
            .recovery
            .map(|r| format!("{:.3} s (match: {})", r.total_s, r.state_matches))
            .unwrap_or_else(|| "n/a".into());
        format!(
            "{:<28} overhead {:>9.4} ms  checkpoint {:>7.3} s  recovery {rec}",
            self.algorithm.name(),
            self.avg_overhead_s * 1e3,
            self.avg_checkpoint_s,
        )
    }
}
