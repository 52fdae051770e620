//! Binary on-disk trace format.
//!
//! The prototype game server is "instrumented ... to log every update to a
//! trace file, which we then use as input to our checkpoint simulator"
//! (§4.4). This module defines that file format:
//!
//! ```text
//! magic    : 8 bytes  "MMOCTRC2"
//! geometry : rows u32 | cols u32 | cell_size u32 | object_size u32
//! n_ticks  : u64
//! index_pos: u64      byte offset of the tick index
//! per tick : count u32, then count × (row u32 | col u32 | value u32)
//! index    : n_ticks × u64, the byte offset of each tick's record
//! ```
//!
//! All integers are little-endian. The reader streams tick-by-tick, so
//! arbitrarily large traces can be replayed in constant memory. The
//! index (8 B per tick, after the last record) lets
//! [`TraceSource::skip_ticks`] jump to any tick with one index read and
//! one seek, so crash recovery replays only the ticks after its
//! checkpoint instead of re-reading the trace from tick 0.
//!
//! A file ends exactly at `index_pos + 8 × n_ticks`; [`TraceFileReader::open`]
//! rejects any other length, so a truncated or extended file fails at
//! open rather than mid-replay.

use crate::trace::TraceSource;
use mmoc_core::{CellUpdate, StateGeometry};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MMOCTRC2";
/// Byte offset of `n_ticks` (`index_pos` follows it).
const N_TICKS_POS: u64 = 8 + 16;
/// Header length: magic, geometry, `n_ticks`, `index_pos`.
const HEADER_LEN: u64 = N_TICKS_POS + 16;
/// Bytes per update record.
const RECORD_LEN: u64 = 12;

/// Write a trace (drained from `source`) to `path`.
///
/// Returns the number of ticks written.
pub fn write_trace_file<S: TraceSource>(path: &Path, source: &mut S) -> io::Result<u64> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC)?;
    let g = source.geometry();
    for v in [g.rows, g.cols, g.cell_size, g.object_size] {
        w.write_all(&v.to_le_bytes())?;
    }
    // Tick count and index position are unknown for streaming sources;
    // write placeholders and patch them at the end.
    w.write_all(&[0u8; 16])?;

    let mut buf = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = HEADER_LEN;
    while source.next_tick(&mut buf) {
        offsets.push(pos);
        let count = u32::try_from(buf.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "tick too large"))?;
        w.write_all(&count.to_le_bytes())?;
        for u in &buf {
            w.write_all(&u.addr.row.to_le_bytes())?;
            w.write_all(&u.addr.col.to_le_bytes())?;
            w.write_all(&u.value.to_le_bytes())?;
        }
        pos += 4 + RECORD_LEN * u64::from(count);
    }
    let index_pos = pos;
    for off in &offsets {
        w.write_all(&off.to_le_bytes())?;
    }
    w.flush()?;
    let mut file = w.into_inner().map_err(io::IntoInnerError::into_error)?;
    let ticks = offsets.len() as u64;
    file.seek(SeekFrom::Start(N_TICKS_POS))?;
    file.write_all(&ticks.to_le_bytes())?;
    file.write_all(&index_pos.to_le_bytes())?;
    file.sync_all()?;
    Ok(ticks)
}

/// Streaming reader over a trace file; implements [`TraceSource`],
/// including an O(1) [`TraceSource::skip_ticks`] through the tick index.
#[derive(Debug)]
pub struct TraceFileReader {
    reader: BufReader<File>,
    geometry: StateGeometry,
    n_ticks: u64,
    /// Byte offset of the tick index, i.e. the end of the tick records.
    index_pos: u64,
    /// Byte offset of the reader, kept so a record's declared length is
    /// checked against the end of the records before it is read.
    pos: u64,
    next_tick: u64,
}

impl TraceFileReader {
    /// Open a trace file and parse its header. Fails with
    /// [`io::ErrorKind::InvalidData`] on a foreign magic, an invalid
    /// geometry, or a length other than the header declares.
    pub fn open(path: &Path) -> io::Result<Self> {
        let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("not an MMOCTRC2 trace file"));
        }
        let rows = read_u32(&mut reader)?;
        let cols = read_u32(&mut reader)?;
        let cell_size = read_u32(&mut reader)?;
        let object_size = read_u32(&mut reader)?;
        let n_ticks = read_u64(&mut reader)?;
        let index_pos = read_u64(&mut reader)?;
        let geometry = StateGeometry {
            rows,
            cols,
            cell_size,
            object_size,
        };
        geometry.validate().map_err(|e| invalid(&e.to_string()))?;
        let expected_len = n_ticks
            .checked_mul(8)
            .and_then(|index_len| index_len.checked_add(index_pos));
        if index_pos < HEADER_LEN || expected_len != Some(len) {
            return Err(invalid(&format!(
                "trace file is {len} bytes; its header declares {n_ticks} ticks \
                 indexed at byte {index_pos}"
            )));
        }
        Ok(TraceFileReader {
            reader,
            geometry,
            n_ticks,
            index_pos,
            pos: HEADER_LEN,
            next_tick: 0,
        })
    }

    /// Number of ticks the file declares.
    pub fn n_ticks(&self) -> u64 {
        self.n_ticks
    }

    /// Position the reader at tick `tick`'s record through the index;
    /// returns the record's byte offset. `None` when a read or seek
    /// fails or the entry lies outside the tick records.
    fn seek_to(&mut self, tick: u64) -> Option<u64> {
        self.reader
            .seek(SeekFrom::Start(self.index_pos + 8 * tick))
            .ok()?;
        let off = read_u64(&mut self.reader).ok()?;
        if !(HEADER_LEN..self.index_pos).contains(&off) {
            return None;
        }
        self.reader.seek(SeekFrom::Start(off)).ok()?;
        Some(off)
    }
}

impl TraceSource for TraceFileReader {
    fn geometry(&self) -> StateGeometry {
        self.geometry
    }

    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
        buf.clear();
        if self.next_tick >= self.n_ticks {
            return false;
        }
        let Ok(count) = read_u32(&mut self.reader) else {
            return false;
        };
        // A record running past the last tick is damage: stop here
        // rather than read index bytes as updates.
        let end = self.pos + 4 + RECORD_LEN * u64::from(count);
        if end > self.index_pos {
            self.next_tick = self.n_ticks;
            return false;
        }
        buf.reserve(count as usize);
        let mut rec = [0u8; 12];
        for _ in 0..count {
            if self.reader.read_exact(&mut rec).is_err() {
                buf.clear();
                return false;
            }
            let row = u32::from_le_bytes(rec[0..4].try_into().unwrap());
            let col = u32::from_le_bytes(rec[4..8].try_into().unwrap());
            let value = u32::from_le_bytes(rec[8..12].try_into().unwrap());
            buf.push(CellUpdate::new(row, col, value));
        }
        self.pos = end;
        self.next_tick += 1;
        true
    }

    /// One index read and one seek. A damaged index entry (outside the
    /// tick records) or a failed read ends the trace: it then skips 0
    /// and yields nothing more.
    fn skip_ticks(&mut self, n: u64) -> u64 {
        let k = n.min(self.n_ticks - self.next_tick);
        let target = self.next_tick + k;
        // Past the last tick there is no record to seek to.
        if k > 0 && target < self.n_ticks {
            match self.seek_to(target) {
                Some(off) => self.pos = off,
                None => {
                    self.next_tick = self.n_ticks;
                    return 0;
                }
            }
        }
        self.next_tick = target;
        k
    }

    fn total_ticks(&self) -> Option<u64> {
        Some(self.n_ticks)
    }
}

/// Read an entire trace file into memory.
pub fn read_trace_file(path: &Path) -> io::Result<crate::trace::RecordedTrace> {
    let mut reader = TraceFileReader::open(path)?;
    Ok(crate::trace::record(&mut reader))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use crate::trace::{record, RecordedTrace};

    fn tiny_config() -> SyntheticConfig {
        SyntheticConfig {
            geometry: StateGeometry::small(50, 5),
            ticks: 7,
            updates_per_tick: 20,
            skew: 0.5,
            seed: 11,
        }
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("trace.bin");

        let expected = record(&mut tiny_config().build());
        let ticks = write_trace_file(&path, &mut tiny_config().build()).unwrap();
        assert_eq!(ticks, 7);

        let reader = TraceFileReader::open(&path).unwrap();
        assert_eq!(reader.n_ticks(), 7);
        assert_eq!(reader.geometry(), expected.geometry());

        let loaded = read_trace_file(&path).unwrap();
        assert_eq!(loaded, expected);
    }

    #[test]
    fn empty_ticks_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("empty.bin");
        let trace = RecordedTrace::new(
            StateGeometry::small(4, 4),
            vec![vec![], vec![CellUpdate::new(1, 1, 5)], vec![]],
        );
        write_trace_file(&path, &mut trace.replay()).unwrap();
        let loaded = read_trace_file(&path).unwrap();
        assert_eq!(loaded, trace);
    }

    #[test]
    fn rejects_garbage_files() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("garbage.bin");
        std::fs::write(&path, b"this is not a trace").unwrap();
        assert!(TraceFileReader::open(&path).is_err());
    }

    #[test]
    fn rejects_bad_geometry() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("badgeom.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        // rows=0 is invalid.
        for v in [0u32, 4, 4, 64] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        // Zero ticks, index right after the header: the length is
        // consistent, so only the geometry is at fault.
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&HEADER_LEN.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceFileReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Any truncation — inside the index at the tail, or inside the tick
    /// records — changes the length the header declares, so the file is
    /// refused at `open` instead of replaying a prefix.
    #[test]
    fn truncated_file_stops_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("trunc.bin");
        write_trace_file(&path, &mut tiny_config().build()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let index_pos = HEADER_LEN as usize + 7 * (4 + 20 * 12);
        assert_eq!(bytes.len(), index_pos + 7 * 8);
        for cut in [
            bytes.len() - 6,
            index_pos,
            index_pos - 6,
            HEADER_LEN as usize + 10,
        ] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = TraceFileReader::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn skip_seeks_through_the_index() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("skip.bin");
        write_trace_file(&path, &mut tiny_config().build()).unwrap();
        crate::trace::assert_skip_equivalent(|| TraceFileReader::open(&path).unwrap());

        // Uneven and empty ticks, so offsets are not a fixed stride.
        let trace = RecordedTrace::new(
            StateGeometry::small(4, 4),
            vec![
                vec![],
                vec![CellUpdate::new(1, 1, 5), CellUpdate::new(2, 3, 6)],
                vec![],
                vec![CellUpdate::new(0, 2, 7)],
            ],
        );
        write_trace_file(&path, &mut trace.replay()).unwrap();
        crate::trace::assert_skip_equivalent(|| TraceFileReader::open(&path).unwrap());
    }

    #[test]
    fn shard_filter_skips_on_the_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("shard.bin");
        let config = tiny_config();
        write_trace_file(&path, &mut config.build()).unwrap();
        let map = mmoc_core::ShardMap::new(config.geometry, 2).unwrap();
        for s in 0..2 {
            crate::trace::assert_skip_equivalent(|| {
                mmoc_core::ShardFilter::new(TraceFileReader::open(&path).unwrap(), map.clone(), s)
            });
        }
    }

    /// A damaged index entry ends the trace instead of seeking into the
    /// middle of a record or outside the tick records.
    #[test]
    fn damaged_index_entry_ends_the_trace() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("badindex.bin");
        write_trace_file(&path, &mut tiny_config().build()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let index_pos = u64::from_le_bytes(clean[32..40].try_into().unwrap());
        let entry_3 = index_pos as usize + 3 * 8;
        for bad in [0, HEADER_LEN - 1, index_pos, index_pos + 8, u64::MAX] {
            let mut bytes = clean.clone();
            bytes[entry_3..entry_3 + 8].copy_from_slice(&bad.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();

            let mut reader = TraceFileReader::open(&path).unwrap();
            let mut buf = Vec::new();
            assert!(reader.next_tick(&mut buf));
            assert_eq!(reader.skip_ticks(2), 0, "entry {bad}");
            assert!(!reader.next_tick(&mut buf), "entry {bad}");
            assert!(buf.is_empty());
            // Entries the skip does not read still serve.
            let mut reader = TraceFileReader::open(&path).unwrap();
            assert_eq!(reader.skip_ticks(4), 4);
            assert!(reader.next_tick(&mut buf));
        }
    }

    /// A record whose count runs past the last tick is damage: the
    /// trace ends rather than reading index bytes as updates.
    #[test]
    fn oversized_record_count_ends_the_trace() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("badcount.bin");
        write_trace_file(&path, &mut tiny_config().build()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = HEADER_LEN as usize + 6 * (4 + 20 * 12);
        bytes[last..last + 4].copy_from_slice(&21u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let mut reader = TraceFileReader::open(&path).unwrap();
        let mut buf = Vec::new();
        let mut ticks = 0;
        while reader.next_tick(&mut buf) {
            ticks += 1;
        }
        assert_eq!(ticks, 6);
        assert!(buf.is_empty());
    }
}
