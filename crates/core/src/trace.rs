//! The streaming trace abstraction consumed by the tick driver.
//!
//! Both engines are driven by an *update trace*: for each tick, the set of
//! cells written (§4.4 of the paper). Traces can be enormous (256,000
//! updates × 1,000 ticks is a quarter of a billion updates), so the
//! engines consume them through this streaming interface — one tick's
//! batch at a time into a reused buffer — rather than materializing whole
//! traces.
//!
//! The trait lives in `mmoc-core` (it only speaks core types) so that the
//! unified [`crate::driver::TickDriver`] can consume it; `mmoc-workload`
//! re-exports it next to its generators.

use crate::geometry::{CellUpdate, StateGeometry};

/// A source of per-tick update batches.
pub trait TraceSource {
    /// Geometry of the state table this trace targets.
    fn geometry(&self) -> StateGeometry;

    /// Clear `buf` and fill it with the next tick's updates.
    ///
    /// Returns `false` (leaving `buf` empty) when the trace is exhausted.
    /// A tick with zero updates returns `true` with an empty buffer.
    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool;

    /// Advance past the next `n` ticks without yielding them; returns
    /// how many were skipped (`min(n, remaining)`).
    ///
    /// Afterwards the source yields exactly what it would have yielded
    /// after `n` calls to [`TraceSource::next_tick`]. The default makes
    /// those calls; sources that can seek (an indexed trace file, an
    /// in-memory trace) override it in O(1). Recovery uses it to jump
    /// to the restored checkpoint's tick.
    fn skip_ticks(&mut self, n: u64) -> u64 {
        let mut buf = Vec::new();
        let mut skipped = 0;
        while skipped < n && self.next_tick(&mut buf) {
            skipped += 1;
        }
        skipped
    }

    /// Total number of ticks, if known in advance.
    fn total_ticks(&self) -> Option<u64> {
        None
    }
}
