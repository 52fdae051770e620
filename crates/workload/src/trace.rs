//! The streaming trace abstraction.
//!
//! Traces can be enormous (256,000 updates × 1,000 ticks is a quarter of a
//! billion updates), so the engines consume them through the streaming
//! [`TraceSource`] interface — one tick's batch at a time into a reused
//! buffer — rather than materializing whole traces.
//!
//! The trait itself lives in `mmoc-core` so the unified tick driver can
//! consume traces without depending on this crate; it is re-exported here
//! next to the generators for convenience.

use mmoc_core::{CellUpdate, StateGeometry};

pub use mmoc_core::trace::TraceSource;

/// Drain a source into an in-memory [`RecordedTrace`].
///
/// Only sensible for moderate traces (the game traces and test workloads);
/// synthetic sweeps should stay streaming.
pub fn record<S: TraceSource>(source: &mut S) -> RecordedTrace {
    let mut ticks = Vec::new();
    let mut buf = Vec::new();
    while source.next_tick(&mut buf) {
        ticks.push(buf.clone());
    }
    RecordedTrace {
        geometry: source.geometry(),
        ticks,
    }
}

/// A fully materialized trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    geometry: StateGeometry,
    ticks: Vec<Vec<CellUpdate>>,
}

impl RecordedTrace {
    /// Build from explicit per-tick batches.
    pub fn new(geometry: StateGeometry, ticks: Vec<Vec<CellUpdate>>) -> Self {
        RecordedTrace { geometry, ticks }
    }

    /// Geometry of the state table this trace targets.
    pub fn geometry(&self) -> StateGeometry {
        self.geometry
    }

    /// Number of ticks.
    pub fn n_ticks(&self) -> u64 {
        self.ticks.len() as u64
    }

    /// The update batches, in tick order.
    pub fn ticks(&self) -> &[Vec<CellUpdate>] {
        &self.ticks
    }

    /// Total updates across all ticks.
    pub fn total_updates(&self) -> u64 {
        self.ticks.iter().map(|t| t.len() as u64).sum()
    }

    /// A replayable [`TraceSource`] over this trace. The trace can be
    /// replayed any number of times (each call returns a fresh cursor).
    pub fn replay(&self) -> RecordedReplay<'_> {
        RecordedReplay {
            trace: self,
            next: 0,
        }
    }
}

/// Streaming cursor over a [`RecordedTrace`].
#[derive(Debug)]
pub struct RecordedReplay<'a> {
    trace: &'a RecordedTrace,
    next: usize,
}

impl TraceSource for RecordedReplay<'_> {
    fn geometry(&self) -> StateGeometry {
        self.trace.geometry
    }

    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
        buf.clear();
        match self.trace.ticks.get(self.next) {
            Some(tick) => {
                buf.extend_from_slice(tick);
                self.next += 1;
                true
            }
            None => false,
        }
    }

    fn skip_ticks(&mut self, n: u64) -> u64 {
        let remaining = (self.trace.ticks.len() - self.next) as u64;
        let skipped = n.min(remaining);
        // `skipped <= remaining`, which came from a `usize`.
        self.next += skipped as usize;
        skipped
    }

    fn total_ticks(&self) -> Option<u64> {
        Some(self.trace.n_ticks())
    }
}

/// Check [`TraceSource::skip_ticks`] against the `next_tick` loop it
/// stands for: from a few starting positions and for every `k` in
/// `0..=n + 2`, skipping `k` ticks then draining yields what `k` calls
/// to `next_tick` then draining yield, and the skip returns
/// `min(k, remaining)`. `make` returns a fresh source each call.
#[cfg(test)]
pub(crate) fn assert_skip_equivalent<S: TraceSource>(mut make: impl FnMut() -> S) {
    fn drain<S: TraceSource>(src: &mut S) -> Vec<Vec<CellUpdate>> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while src.next_tick(&mut buf) {
            out.push(buf.clone());
        }
        out
    }
    let n = drain(&mut make()).len() as u64;
    let mut buf = Vec::new();
    for pre in [0, 1, n / 2] {
        for k in 0..=n + 2 {
            let (mut skipped, mut stepped) = (make(), make());
            for _ in 0..pre {
                skipped.next_tick(&mut buf);
                stepped.next_tick(&mut buf);
            }
            let got = skipped.skip_ticks(k);
            for _ in 0..k {
                stepped.next_tick(&mut buf);
            }
            assert_eq!(got, k.min(n.saturating_sub(pre)), "after {pre}, skip {k}");
            assert_eq!(
                drain(&mut skipped),
                drain(&mut stepped),
                "after {pre}, skip {k}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> RecordedTrace {
        RecordedTrace::new(
            StateGeometry::small(4, 4),
            vec![
                vec![CellUpdate::new(0, 0, 1)],
                vec![],
                vec![CellUpdate::new(1, 1, 2), CellUpdate::new(2, 2, 3)],
            ],
        )
    }

    #[test]
    fn replay_yields_ticks_in_order() {
        let t = trace();
        let mut replay = t.replay();
        let mut buf = Vec::new();

        assert!(replay.next_tick(&mut buf));
        assert_eq!(buf, vec![CellUpdate::new(0, 0, 1)]);
        assert!(replay.next_tick(&mut buf));
        assert!(buf.is_empty(), "empty ticks are preserved");
        assert!(replay.next_tick(&mut buf));
        assert_eq!(buf.len(), 2);
        assert!(!replay.next_tick(&mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn replay_is_restartable() {
        let t = trace();
        let mut buf = Vec::new();
        let mut count_a = 0;
        let mut r = t.replay();
        while r.next_tick(&mut buf) {
            count_a += 1;
        }
        let mut count_b = 0;
        let mut r = t.replay();
        while r.next_tick(&mut buf) {
            count_b += 1;
        }
        assert_eq!(count_a, 3);
        assert_eq!(count_a, count_b);
    }

    #[test]
    fn record_roundtrips() {
        let t = trace();
        let mut replay = t.replay();
        let recorded = record(&mut replay);
        assert_eq!(recorded, t);
        assert_eq!(recorded.total_updates(), 3);
        assert_eq!(recorded.n_ticks(), 3);
    }

    #[test]
    fn skip_is_a_cursor_bump() {
        let t = trace();
        assert_skip_equivalent(|| t.replay());
    }

    #[test]
    fn total_ticks_is_reported() {
        let t = trace();
        assert_eq!(t.replay().total_ticks(), Some(3));
    }
}
