//! Trace-replay workloads: recorded per-thread access logs.
//!
//! A trace is a directory holding one JSON index ([`TraceIndex`],
//! canonical pretty JSON) plus one compact binary log per thread
//! (`t<i>.bin`, 9 bytes per record: a one-byte [`StreamTarget`] tag
//! followed by the line offset as a little-endian `u64`). Record mode
//! (`SimConfig::trace_record` in `cdcs-sim`) writes one from any existing
//! run; replay mode (`SimConfig::trace_replay`) substitutes the recorded
//! streams for the synthetic generators, reproducing the recorded run's
//! `SimResult` bit-exactly from the trace alone.
//!
//! [`ThreadSource`] is the seam the engine holds per thread: a synthetic
//! [`AccessStream`] or a replay [`TraceCursor`] behind one API, with an
//! optional tap that logs every draw for record mode.

use crate::{AccessStream, StreamTarget, WorkloadMix};
use serde::{Deserialize, Serialize};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};

/// Tag byte for a [`StreamTarget::ThreadPrivate`] record.
const TAG_PRIVATE: u8 = 0;
/// Tag byte for a [`StreamTarget::ProcessShared`] record.
const TAG_SHARED: u8 = 1;
/// Tag byte for a [`StreamTarget::Global`] record.
const TAG_GLOBAL: u8 = 2;
/// Bytes per binary record: tag + little-endian offset.
const RECORD_BYTES: usize = 9;

/// One recorded access: `(target tag, line offset)`.
pub type TraceRecord = (u8, u64);

/// Encodes a [`StreamTarget`] as its binary tag.
pub fn target_tag(target: StreamTarget) -> u8 {
    match target {
        StreamTarget::ThreadPrivate => TAG_PRIVATE,
        StreamTarget::ProcessShared => TAG_SHARED,
        StreamTarget::Global => TAG_GLOBAL,
    }
}

/// Decodes a binary tag back to its [`StreamTarget`].
///
/// # Errors
///
/// Returns a message for unknown tags.
pub fn tag_target(tag: u8) -> Result<StreamTarget, String> {
    match tag {
        TAG_PRIVATE => Ok(StreamTarget::ThreadPrivate),
        TAG_SHARED => Ok(StreamTarget::ProcessShared),
        TAG_GLOBAL => Ok(StreamTarget::Global),
        other => Err(format!("unknown trace record tag {other}")),
    }
}

/// Index entry for one thread's binary log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceThreadMeta {
    /// Log file name, relative to the index's directory.
    #[serde(default)]
    pub file: String,
    /// Record count in the log (validated against the file size on load).
    #[serde(default)]
    pub records: u64,
    /// Whether every record is thread-private — replay then serves the
    /// engines' bulk-draw fast path exactly like a private-only synthetic
    /// stream.
    #[serde(default)]
    pub private_only: bool,
}

/// The JSON index at the root of a trace directory: the recorded mix
/// (processes, rates, core response — everything but the access streams)
/// plus one [`TraceThreadMeta`] per thread in thread-id order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceIndex {
    /// The mix the trace was recorded from.
    #[serde(default)]
    pub mix: WorkloadMix,
    /// Per-thread log metadata, in thread-id order.
    #[serde(default)]
    pub threads: Vec<TraceThreadMeta>,
}

/// A fully-loaded trace: index plus every thread's records in memory.
#[derive(Debug, Clone)]
pub struct TraceSource {
    index: TraceIndex,
    data: Vec<Vec<TraceRecord>>,
}

impl TraceSource {
    /// Loads a trace from its index path. Relative paths are resolved
    /// against the current directory and then each of its ancestors, so
    /// repo-relative paths like `specs/traces/x/index.json` work from
    /// crate directories (tests) and the repo root (binaries) alike.
    ///
    /// # Errors
    ///
    /// Returns a message for missing files, malformed JSON or binary
    /// records, index/log disagreements, and a log `file` that is not a
    /// bare file name (an index may only name logs in its own directory).
    pub fn load(path: &str) -> Result<TraceSource, String> {
        let index_path = resolve(path)?;
        let dir = index_path
            .parent()
            .ok_or_else(|| format!("trace index {path} has no parent directory"))?
            .to_path_buf();
        let json = std::fs::read_to_string(&index_path)
            .map_err(|e| format!("reading trace index {}: {e}", index_path.display()))?;
        let index: TraceIndex =
            serde_json::from_str(&json).map_err(|e| format!("parsing trace index {path}: {e}"))?;
        if index.threads.len() != index.mix.total_threads() {
            return Err(format!(
                "trace index {path} lists {} thread logs but its mix has {} threads",
                index.threads.len(),
                index.mix.total_threads()
            ));
        }
        let mut data = Vec::with_capacity(index.threads.len());
        for meta in &index.threads {
            if Path::new(&meta.file).file_name() != Some(OsStr::new(&meta.file)) {
                return Err(format!(
                    "trace index {path} names log {:?}, which is not a bare file name",
                    meta.file
                ));
            }
            let log_path = dir.join(&meta.file);
            let bytes = std::fs::read(&log_path)
                .map_err(|e| format!("reading trace log {}: {e}", log_path.display()))?;
            if bytes.len() % RECORD_BYTES != 0 {
                return Err(format!(
                    "trace log {} has {} bytes, not a multiple of {RECORD_BYTES}",
                    meta.file,
                    bytes.len()
                ));
            }
            let n = bytes.len() / RECORD_BYTES;
            if n as u64 != meta.records {
                return Err(format!(
                    "trace log {} holds {n} records but the index says {}",
                    meta.file, meta.records
                ));
            }
            let mut records = Vec::with_capacity(n);
            for chunk in bytes.chunks_exact(RECORD_BYTES) {
                let tag = chunk[0];
                tag_target(tag)?;
                if meta.private_only && tag != TAG_PRIVATE {
                    return Err(format!(
                        "trace log {} is marked private-only but holds tag {tag}",
                        meta.file
                    ));
                }
                let mut le = [0u8; 8];
                le.copy_from_slice(&chunk[1..]);
                records.push((tag, u64::from_le_bytes(le)));
            }
            data.push(records);
        }
        Ok(TraceSource { index, data })
    }

    /// The mix the trace was recorded from.
    pub fn mix(&self) -> &WorkloadMix {
        &self.index.mix
    }

    /// Thread count (log count == the mix's total threads).
    pub fn threads(&self) -> usize {
        self.data.len()
    }

    /// A replay cursor over thread `thread`'s records.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn cursor(&self, thread: usize) -> TraceCursor {
        TraceCursor {
            records: self.data[thread].clone(),
            pos: 0,
            private_only: self.index.threads[thread].private_only,
        }
    }
}

/// Writes a trace directory: one `t<i>.bin` per thread plus the canonical
/// `index.json`. Creates `dir` (and parents) as needed; overwrites any
/// existing trace there.
///
/// # Errors
///
/// Returns I/O and serialization errors.
pub fn write_trace(
    dir: &Path,
    mix: &WorkloadMix,
    threads: &[(Vec<TraceRecord>, bool)],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut index = TraceIndex {
        mix: mix.clone(),
        threads: Vec::with_capacity(threads.len()),
    };
    for (i, (records, private_only)) in threads.iter().enumerate() {
        let file = format!("t{i}.bin");
        let mut bytes = Vec::with_capacity(records.len() * RECORD_BYTES);
        for (tag, offset) in records {
            bytes.push(*tag);
            bytes.extend_from_slice(&offset.to_le_bytes());
        }
        let path = dir.join(&file);
        std::fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
        index.threads.push(TraceThreadMeta {
            file,
            records: records.len() as u64,
            private_only: *private_only,
        });
    }
    let json = serde_json::to_string_pretty(&index)
        .map_err(|e| format!("serializing trace index: {e}"))?
        + "\n";
    let path = dir.join("index.json");
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Resolves a possibly repo-relative path by walking up from the current
/// directory.
fn resolve(path: &str) -> Result<PathBuf, String> {
    let p = Path::new(path);
    if p.is_absolute() || p.exists() {
        return Ok(p.to_path_buf());
    }
    let mut dir =
        std::env::current_dir().map_err(|e| format!("resolving current directory: {e}"))?;
    loop {
        let candidate = dir.join(p);
        if candidate.exists() {
            return Ok(candidate);
        }
        if !dir.pop() {
            return Err(format!(
                "trace index {path} not found in the current directory or any ancestor"
            ));
        }
    }
}

/// Replay position in one thread's recorded log. The cursor wraps at the
/// end of the log: replaying under a *different* configuration than the
/// recording can consume more accesses than were recorded (record mode
/// appends a cushion precisely to make same-config replay never wrap).
#[derive(Debug, Clone)]
pub struct TraceCursor {
    records: Vec<TraceRecord>,
    pos: usize,
    private_only: bool,
}

impl TraceCursor {
    fn next(&mut self) -> TraceRecord {
        let r = self.records[self.pos];
        self.pos += 1;
        if self.pos == self.records.len() {
            self.pos = 0;
        }
        r
    }
}

/// One thread's access source as the engines see it: a synthetic
/// generator or a replay cursor, with an optional record tap. The API
/// mirrors [`AccessStream`] exactly so every engine (reference, batched,
/// sharded) runs unchanged over either backing.
#[derive(Debug, Clone)]
pub struct ThreadSource {
    inner: SourceInner,
    tap: Option<Vec<TraceRecord>>,
}

#[derive(Debug, Clone)]
enum SourceInner {
    Synthetic(AccessStream),
    Replay(TraceCursor),
}

impl ThreadSource {
    /// Wraps a synthetic stream.
    pub fn synthetic(stream: AccessStream) -> ThreadSource {
        ThreadSource {
            inner: SourceInner::Synthetic(stream),
            tap: None,
        }
    }

    /// Wraps a replay cursor.
    pub fn replay(cursor: TraceCursor) -> ThreadSource {
        ThreadSource {
            inner: SourceInner::Replay(cursor),
            tap: None,
        }
    }

    /// Starts logging every subsequent draw (record mode).
    pub fn enable_tap(&mut self) {
        self.tap = Some(Vec::new());
    }

    /// See [`AccessStream::is_private_only`]; a replay source is
    /// private-only when its log is.
    pub fn is_private_only(&self) -> bool {
        match &self.inner {
            SourceInner::Synthetic(s) => s.is_private_only(),
            SourceInner::Replay(c) => c.private_only,
        }
    }

    /// See [`AccessStream::fill_private_offsets_slice`].
    ///
    /// # Panics
    ///
    /// Panics if the source is not private-only.
    pub fn fill_private_offsets_slice(&mut self, out: &mut [u64]) {
        match &mut self.inner {
            SourceInner::Synthetic(s) => s.fill_private_offsets_slice(out),
            SourceInner::Replay(c) => {
                assert!(c.private_only, "trace log has shared records");
                for slot in out.iter_mut() {
                    *slot = c.next().1;
                }
            }
        }
        if let Some(tap) = &mut self.tap {
            tap.extend(out.iter().map(|&o| (TAG_PRIVATE, o)));
        }
    }

    /// See [`AccessStream::next_access`].
    pub fn next_access(&mut self) -> (StreamTarget, u64) {
        let (target, offset) = match &mut self.inner {
            SourceInner::Synthetic(s) => s.next_access(),
            SourceInner::Replay(c) => {
                let (tag, offset) = c.next();
                (tag_target(tag).expect("tags validated on load"), offset)
            }
        };
        if let Some(tap) = &mut self.tap {
            tap.push((target_tag(target), offset));
        }
        (target, offset)
    }

    /// Ends record mode: draws `cushion` extra accesses (so a replay that
    /// runs slightly longer than the recording — a different scheme, say —
    /// never wraps) and returns the full log plus its private-only flag.
    /// Returns `None` when no tap was enabled.
    pub fn finish_tap(&mut self, cushion: usize) -> Option<(Vec<TraceRecord>, bool)> {
        self.tap.as_ref()?;
        for _ in 0..cushion {
            self.next_access();
        }
        let records = self.tap.take().unwrap_or_default();
        let private_only = records.iter().all(|(tag, _)| *tag == TAG_PRIVATE);
        Some((records, private_only))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec, MixSpec};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cdcs-trace-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_mix() -> WorkloadMix {
        WorkloadMix::from_spec(&MixSpec::Named(vec!["calculix".into(), "milc".into()])).unwrap()
    }

    #[test]
    fn tags_round_trip() {
        for t in [
            StreamTarget::ThreadPrivate,
            StreamTarget::ProcessShared,
            StreamTarget::Global,
        ] {
            assert_eq!(tag_target(target_tag(t)).unwrap(), t);
        }
        assert!(tag_target(9).is_err());
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let mix = small_mix();
        let logs = vec![
            (vec![(TAG_PRIVATE, 1u64), (TAG_PRIVATE, 2)], true),
            (
                vec![(TAG_PRIVATE, 7), (TAG_SHARED, 3), (TAG_GLOBAL, 0)],
                false,
            ),
        ];
        write_trace(&dir, &mix, &logs).unwrap();
        let src = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap();
        assert_eq!(src.mix(), &mix);
        assert_eq!(src.threads(), 2);
        let mut c = src.cursor(0);
        assert!(c.private_only);
        assert_eq!(c.next(), (TAG_PRIVATE, 1));
        assert_eq!(c.next(), (TAG_PRIVATE, 2));
        assert_eq!(c.next(), (TAG_PRIVATE, 1), "wraps at end");
        let mut c = src.cursor(1);
        assert!(!c.private_only);
        assert_eq!(c.next(), (TAG_PRIVATE, 7));
        assert_eq!(c.next(), (TAG_SHARED, 3));
        assert_eq!(c.next(), (TAG_GLOBAL, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_inconsistent_traces() {
        let dir = temp_dir("bad");
        let mix = small_mix();
        write_trace(
            &dir,
            &mix,
            &[(vec![(TAG_PRIVATE, 1)], true), (vec![], true)],
        )
        .unwrap();
        // Corrupt the first log: truncate to a non-multiple of the record size.
        std::fs::write(dir.join("t0.bin"), [0u8; 5]).unwrap();
        let err = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap_err();
        assert!(err.contains("multiple"), "{err}");
        // Wrong record count.
        std::fs::write(dir.join("t0.bin"), [0u8; 18]).unwrap();
        let err = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap_err();
        assert!(err.contains("index says"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_logs_outside_the_index_directory() {
        let dir = temp_dir("escape");
        write_trace(&dir, &small_mix(), &[(vec![], true), (vec![], true)]).unwrap();
        let index_path = dir.join("index.json");
        let clean = std::fs::read_to_string(&index_path).unwrap();
        for file in ["../t0.bin", "sub/t0.bin", "/etc/hostname", "..", ""] {
            let escaped = clean.replacen("\"t0.bin\"", &format!("{file:?}"), 1);
            assert_ne!(escaped, clean, "the index names t0.bin");
            std::fs::write(&index_path, escaped).unwrap();
            let err = TraceSource::load(index_path.to_str().unwrap()).unwrap_err();
            assert!(err.contains("not a bare file name"), "{file:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_thread_count_mismatch() {
        let dir = temp_dir("mismatch");
        write_trace(&dir, &small_mix(), &[(vec![], true)]).unwrap();
        let err = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synthetic_source_matches_raw_stream() {
        let app = spec::by_name("omnet").unwrap();
        let mut raw = AccessStream::for_thread(app, 0, 42);
        let mut src = ThreadSource::synthetic(AccessStream::for_thread(app, 0, 42));
        assert!(src.is_private_only());
        for _ in 0..64 {
            assert_eq!(src.next_access(), raw.next_access());
        }
        let mut src_bulk = vec![0u64; 100];
        src.fill_private_offsets_slice(&mut src_bulk);
        let raw_single: Vec<u64> = (0..100).map(|_| raw.next_access().1).collect();
        assert_eq!(src_bulk, raw_single);
    }

    #[test]
    fn tap_records_every_draw_and_replays_identically() {
        let app = spec::by_name("ilbdc").unwrap();
        let mut recorded = ThreadSource::synthetic(AccessStream::for_thread(app, 0, 7));
        recorded.enable_tap();
        let draws: Vec<(StreamTarget, u64)> = (0..500).map(|_| recorded.next_access()).collect();
        let (records, private_only) = recorded.finish_tap(10).unwrap();
        assert_eq!(records.len(), 510, "500 draws + 10 cushion");
        assert!(!private_only, "ilbdc has a shared pattern");
        let mut replay = ThreadSource::replay(TraceCursor {
            records,
            pos: 0,
            private_only,
        });
        for (i, d) in draws.iter().enumerate() {
            assert_eq!(replay.next_access(), *d, "draw {i}");
        }
    }

    #[test]
    fn tap_covers_bulk_draws() {
        let app = spec::by_name("omnet").unwrap();
        let mut src = ThreadSource::synthetic(AccessStream::for_thread(app, 0, 3));
        src.enable_tap();
        let single: Vec<u64> = (0..10).map(|_| src.next_access().1).collect();
        let mut slice = vec![0u64; 5];
        src.fill_private_offsets_slice(&mut slice);
        let (records, private_only) = src.finish_tap(0).unwrap();
        assert!(private_only);
        let offsets: Vec<u64> = records.iter().map(|r| r.1).collect();
        let mut expect = single;
        expect.extend_from_slice(&slice);
        assert_eq!(offsets, expect);
    }

    #[test]
    fn index_parses_leniently() {
        let idx: TraceIndex = serde_json::from_str("{}").unwrap();
        assert!(idx.threads.is_empty());
        let meta: TraceThreadMeta = serde_json::from_str("{}").unwrap();
        assert_eq!(meta.records, 0);
    }
}
