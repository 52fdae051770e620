//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! the repository's layers (trace pulls, recovery phases, store calls),
//! kept in memory, and written out as JSON lines when the benchmark ends.
//! Each span has a name, a start and an end (nanoseconds since the
//! tracer's epoch), the span that caused it, and the shard it ran for.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `0` means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    shard: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Thread-safe span sink shared by the traced run's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Allocate an id for a span whose interval is recorded later with
    /// [`Tracer::close`], so children can name it as their parent.
    pub fn open(&self) -> SpanId {
        // Relaxed: the counter only hands out unique ids.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record the interval of a span opened with [`Tracer::open`].
    pub fn close(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        shard: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            shard,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Record a finished span in one call; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        shard: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.open();
        self.close(id, name, parent, shard, start, end);
        id
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let shard = s
                .shard
                .map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"shard\":{shard},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parent_links_and_durations() {
        let t = Tracer::new();
        let root = t.open();
        let a = Instant::now();
        let b = a + Duration::from_millis(2);
        let child = t.record("child", root, Some(1), a, b);
        t.close(root, "root", 0, None, a, b + Duration::from_millis(1));
        assert_ne!(root, child);
        assert_eq!(t.len(), 2);
        let dir = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(&format!("\"parent\":{root}")));
        assert!(text.contains("\"name\":\"child\",\"shard\":1"));
        assert!(text.contains("\"end_ns\":"));
    }
}
