//! Reader pool: independent per-consumer cursors over one opened archive.
//!
//! [`ReaderPool`] opens the archive **once** — the expensive part of
//! `ArchiveReader::open` is the header scan that builds per-segment sparse
//! indexes — and then hands out any number of [`PoolStream`]s that share the
//! immutable index but own their file handles and read positions. Streams
//! are therefore safe to drive from different threads concurrently
//! (`ReaderPool: Sync`), and every frame read goes through the shared
//! [`FrameCache`](crate::FrameCache), so concurrent scans over overlapping
//! ranges hit memory instead of disk.
//!
//! A [`PoolStream`] reproduces `fork_archive::RecordStream`'s semantics
//! exactly — same per-segment seek/skip/stop rule, same error behavior on
//! corrupt frames — so a pooled scan and a direct reader scan yield
//! identical record sequences.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use fork_archive::format::{Superblock, FRAME_HEADER_LEN};
use fork_archive::{
    ArchiveError, ArchiveReader, ArchiveRecord, HashIndex, ScanBounds, SegmentCursor, SegmentScan,
};
use fork_replay::Side;
use fork_telemetry::MetricsRegistry;

use crate::cache::{CachedFrame, FrameCache, FrameKey};
use crate::lookup::{lookup_indexed, Lookup, LookupOutput};
use crate::partials::{Accel, AccelStats};
use crate::QueryError;

/// Default cache budget for [`ReaderPool::open`]: 64 MiB.
pub const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// Default shard count for [`ReaderPool::open`].
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// A shared, immutable view of one opened archive plus a frame cache. See
/// the [module docs](self).
#[derive(Debug)]
pub struct ReaderPool {
    reader: ArchiveReader,
    cache: FrameCache,
    /// Hash-index sidecar, loaded (or scan-built and persisted) on first
    /// point lookup. Immutable once built, like the sparse index.
    hash_index: OnceLock<HashIndex>,
    /// Memoized whole-archive folds and lazy per-day partials, built on
    /// first use and kept for the pool's lifetime, like the hash index.
    accel: Accel,
}

impl ReaderPool {
    /// Opens `dir` once and wraps it with a default-sized cache
    /// ([`DEFAULT_CACHE_BYTES`] across [`DEFAULT_CACHE_SHARDS`] shards).
    pub fn open(dir: &Path) -> Result<ReaderPool, ArchiveError> {
        Ok(ReaderPool::new(
            ArchiveReader::open(dir)?,
            FrameCache::new(DEFAULT_CACHE_BYTES, DEFAULT_CACHE_SHARDS),
        ))
    }

    /// Wraps an already-opened reader with a caller-configured cache.
    pub fn new(reader: ArchiveReader, cache: FrameCache) -> ReaderPool {
        ReaderPool {
            accel: Accel::new(&reader),
            reader,
            cache,
            hash_index: OnceLock::new(),
        }
    }

    /// Mirrors the accelerators' work counts into `registry`'s
    /// `query.partials.{days_merged,days_decoded,days_built}` and
    /// `query.memo.{echoes,tips}.{built,hit}` counters (the
    /// [`AccelStats`] numbers are always live, telemetry or not).
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> Self {
        self.accel.bind(registry);
        self
    }

    /// The underlying reader (index, manifest, verify, replay).
    pub fn reader(&self) -> &ArchiveReader {
        &self.reader
    }

    /// The shared frame cache (for stats and telemetry).
    pub fn cache(&self) -> &FrameCache {
        &self.cache
    }

    /// What the partials and memos have done so far.
    pub fn accel_stats(&self) -> AccelStats {
        self.accel.stats()
    }

    pub(crate) fn accel(&self) -> &Accel {
        &self.accel
    }

    /// The hash index, loading the persisted sidecar on first use (a
    /// missing, torn, or stale sidecar is rebuilt by a scan and re-written
    /// best-effort — see `fork_archive::sidecar`).
    pub fn hash_index(&self) -> &HashIndex {
        self.hash_index
            .get_or_init(|| HashIndex::load_or_build(&self.reader).0)
    }

    /// Evaluates one lookup through the sidecar fast path (hash lookups
    /// jump straight to their frame; the rest stream through the cache).
    /// Results are identical to `QueryExecutor::run_lookup_naive`.
    pub fn lookup(&self, lookup: &Lookup) -> Result<LookupOutput, QueryError> {
        lookup_indexed(self, lookup)
    }

    /// Reads the single frame at `(side, segment, offset)` through the
    /// cache, opening a checksum-verifying cursor on a miss.
    pub(crate) fn read_frame_at(
        &self,
        side: Side,
        segment: u32,
        offset: u64,
    ) -> Result<(u64, ArchiveRecord), ArchiveError> {
        if let Some(hit) = self.cache.get(&(side, segment, offset)) {
            return Ok((hit.seq, hit.record.clone()));
        }
        let (path, scan) = self
            .reader
            .segments(side)
            .iter()
            .find(|(_, s)| s.superblock.segment == segment)
            .ok_or_else(|| ArchiveError::Corrupt {
                path: self.reader.dir().to_path_buf(),
                offset,
                detail: format!("no {side:?} segment {segment} in the open index"),
            })?;
        let mut cursor = SegmentCursor::open(path, scan.superblock, offset, scan.valid_len)?;
        match cursor.next_frame() {
            Some(Ok((off, seq, record))) => {
                self.cache.insert(
                    (side, segment, off),
                    CachedFrame {
                        seq,
                        record: record.clone(),
                        next_offset: cursor.pos(),
                    },
                );
                Ok((seq, record))
            }
            Some(Err(e)) => Err(e),
            None => Err(ArchiveError::Corrupt {
                path: path.clone(),
                offset,
                detail: "frame offset past the segment's valid range".into(),
            }),
        }
    }

    /// A fresh stream over `side`, optionally bounded. Each call returns an
    /// independent cursor; any number may run concurrently.
    pub(crate) fn stream(&self, side: Side, bounds: Option<ScanBounds>) -> PoolStream<'_> {
        PoolStream {
            cache: &self.cache,
            side,
            segments: self.reader.segments(side).iter(),
            bounds,
            cursor: None,
        }
    }

    /// Full scan of one side in write (= seq) order, served through the
    /// cache.
    pub fn records(&self, side: Side) -> PoolStream<'_> {
        self.stream(side, None)
    }
}

/// One frame-granular cached cursor over a single segment. A cache hit
/// jumps straight to the next frame offset without touching the file; a
/// miss opens (or reuses) a real [`SegmentCursor`] positioned at the wanted
/// offset and back-fills the cache.
struct CachedCursor<'a> {
    cache: &'a FrameCache,
    side: Side,
    path: &'a Path,
    superblock: Superblock,
    /// Offset of the next frame to yield.
    offset: u64,
    /// The scan's `valid_len`: one past the last complete frame.
    end: u64,
    /// Lazily opened on a miss; reusable while its position tracks `offset`.
    cursor: Option<SegmentCursor>,
}

impl<'a> CachedCursor<'a> {
    fn open(
        cache: &'a FrameCache,
        side: Side,
        path: &'a Path,
        scan: &SegmentScan,
        start: u64,
    ) -> Self {
        CachedCursor {
            cache,
            side,
            path,
            superblock: scan.superblock,
            offset: start,
            end: scan.valid_len,
            cursor: None,
        }
    }

    fn key(&self) -> FrameKey {
        (self.side, self.superblock.segment, self.offset)
    }

    /// Same contract as [`SegmentCursor::next_frame`]: `(offset, seq,
    /// record)`, `None` at the end of the valid range, `Some(Err(..))` once
    /// for a corrupt frame (the cursor then reports end).
    #[allow(clippy::type_complexity)]
    fn next_frame(&mut self) -> Option<Result<(u64, u64, ArchiveRecord), ArchiveError>> {
        if self.offset + FRAME_HEADER_LEN as u64 > self.end {
            return None;
        }
        let at = self.offset;
        if let Some(hit) = self.cache.get(&self.key()) {
            self.offset = hit.next_offset;
            return Some(Ok((at, hit.seq, hit.record.clone())));
        }
        // Miss: make sure a real cursor sits exactly at `at`. A cursor left
        // over from a previous miss is reusable only if no cache hit has
        // jumped the offset past it since.
        if self.cursor.as_ref().is_none_or(|c| c.pos() != at) {
            match SegmentCursor::open(self.path, self.superblock, at, self.end) {
                Ok(c) => self.cursor = Some(c),
                Err(e) => {
                    self.offset = self.end;
                    return Some(Err(e));
                }
            }
        }
        let cursor = self.cursor.as_mut().expect("cursor opened above");
        match cursor.next_frame() {
            None => None,
            Some(Ok((off, seq, record))) => {
                let next_offset = cursor.pos();
                self.cache.insert(
                    (self.side, self.superblock.segment, off),
                    CachedFrame {
                        seq,
                        record: record.clone(),
                        next_offset,
                    },
                );
                self.offset = next_offset;
                Some(Ok((off, seq, record)))
            }
            Some(Err(e)) => {
                self.offset = self.end;
                Some(Err(e))
            }
        }
    }
}

/// Iterator over one side's records in write order, served through the
/// pool's cache. Yields `(seq, record)`; corrupt frames surface as `Err`
/// and end the affected segment's contribution (the stream continues with
/// the next segment) — exactly like `fork_archive::RecordStream`, and with
/// the same per-segment seek/skip/stop rule
/// ([`SegmentScan::start_for`], [`SegmentScan::ends_scan`]).
pub struct PoolStream<'a> {
    cache: &'a FrameCache,
    side: Side,
    segments: std::slice::Iter<'a, (PathBuf, SegmentScan)>,
    bounds: Option<ScanBounds>,
    /// The open segment's scan and cursor.
    cursor: Option<(&'a SegmentScan, CachedCursor<'a>)>,
}

impl PoolStream<'_> {
    fn pull(&mut self) -> Result<Option<(u64, ArchiveRecord)>, ArchiveError> {
        loop {
            if self.cursor.is_none() {
                // Open the next segment holding anything in bounds.
                let Some((path, scan)) = self.segments.next() else {
                    return Ok(None);
                };
                let Some(start) = scan.start_for(self.bounds) else {
                    continue;
                };
                let cursor = CachedCursor::open(self.cache, self.side, path, scan, start);
                self.cursor = Some((scan, cursor));
            }
            let (scan, cursor) = self.cursor.as_mut().expect("cursor opened above");
            match cursor.next_frame() {
                None => {
                    self.cursor = None; // segment exhausted, try the next
                }
                Some(Ok((_, seq, record))) => {
                    if scan.ends_scan(self.bounds, &record) {
                        self.cursor = None;
                        continue;
                    }
                    return Ok(Some((seq, record)));
                }
                Some(Err(e)) => {
                    self.cursor = None; // cursor already reported end
                    return Err(e);
                }
            }
        }
    }
}

impl Iterator for PoolStream<'_> {
    type Item = Result<(u64, ArchiveRecord), ArchiveError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.pull().transpose()
    }
}
