//! Query-side of the archive: [`ArchiveReader`].
//!
//! Opening scans every segment's frame headers (payloads are seeked over,
//! not read), recovering torn tails and building per-segment sparse indexes.
//! From there the reader offers full per-side scans, block-number and
//! timestamp range queries, a cross-side [`ArchiveReader::replay_into`] that
//! rebuilds analytics state in the original ingestion order, and a
//! [`ArchiveReader::verify`] pass that checksums every frame.

use std::fs;
use std::path::{Path, PathBuf};

use fork_analytics::{BlockRecord, Pipeline};
use fork_replay::Side;
use fork_sim::LedgerSink;
use fork_telemetry::{json::Value, MetricsRegistry};

use crate::error::ArchiveError;
use crate::format::{segment_file_name, side_dir_name, ArchiveRecord, SUPERBLOCK_LEN};
use crate::segment::{scan_segment, ScanBounds, SegmentCursor, SegmentScan};
use crate::sidecar::SidecarCheck;
use crate::writer::{list_segments, ArchiveMeta};

/// What the open-time scan found (and what it had to repair or skip).
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// Readable segments across both sides.
    pub segments: u64,
    /// Complete frames across both sides.
    pub frames: u64,
    /// Block frames across both sides.
    pub blocks: u64,
    /// Tx frames across both sides.
    pub txs: u64,
    /// Bytes of torn tail found (readers stop before them; they are only
    /// physically truncated by `ArchiveWriter::open_append`).
    pub torn_bytes: u64,
    /// Segments whose torn tail was non-empty.
    pub torn_segments: u64,
    /// Segments skipped because their superblock failed validation, with the
    /// reason. Their frames are unreadable — side attribution needs the
    /// superblock — but the rest of the archive stays readable.
    pub skipped: Vec<(PathBuf, String)>,
    /// Zero-length segment files ignored at open (a crash between a segment
    /// roll and the first superblock byte leaves one behind).
    pub empty_segments: u64,
}

/// Per-segment result of [`ArchiveReader::verify`].
#[derive(Debug, Clone)]
pub struct SegmentVerify {
    /// The segment file.
    pub path: PathBuf,
    /// Frames whose checksum and decode both passed.
    pub frames_ok: u64,
    /// Byte offsets of corrupt frames, with the failure detail.
    pub corrupt: Vec<(u64, String)>,
    /// Unreadable tail bytes.
    pub torn_bytes: u64,
}

/// Whole-archive result of [`ArchiveReader::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// One entry per readable segment, plus skipped superblock failures
    /// (those report zero ok frames and one corrupt entry at offset 0).
    pub segments: Vec<SegmentVerify>,
    /// State of the hash-index sidecar. `Missing` is acceptable (the index
    /// is built on first use); `Corrupt`/`Stale` are detected damage —
    /// tolerated by loaders, which regenerate, but reported here.
    pub sidecar: SidecarCheck,
}

impl VerifyReport {
    /// True when every frame in every segment verified clean and the
    /// sidecar, if present, is valid and fresh.
    pub fn is_clean(&self) -> bool {
        self.sidecar.is_clean()
            && self
                .segments
                .iter()
                .all(|s| s.corrupt.is_empty() && s.torn_bytes == 0)
    }

    /// Totals as `(frames_ok, corrupt_frames, torn_bytes)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut ok = 0;
        let mut bad = 0;
        let mut torn = 0;
        for s in &self.segments {
            ok += s.frames_ok;
            bad += s.corrupt.len() as u64;
            torn += s.torn_bytes;
        }
        (ok, bad, torn)
    }
}

#[derive(Debug)]
struct SideIndex {
    /// Scanned segments in segment order.
    segments: Vec<(PathBuf, SegmentScan)>,
}

/// Read handle over an archive directory. See the [module docs](self).
#[derive(Debug)]
pub struct ArchiveReader {
    dir: PathBuf,
    sides: [SideIndex; 2],
    report: OpenReport,
    meta: Option<ArchiveMeta>,
}

impl ArchiveReader {
    /// Opens `dir`, scanning all segments. Fails only on I/O errors or when
    /// `dir` holds no archive at all; per-segment corruption is recovered
    /// and reported in [`ArchiveReader::open_report`].
    pub fn open(dir: &Path) -> Result<ArchiveReader, ArchiveError> {
        Self::open_with_telemetry(dir, &MetricsRegistry::new())
    }

    /// [`ArchiveReader::open`] timing the scan under `archive.open` /
    /// `archive.scan` spans and counting `archive.skipped_segments`.
    pub fn open_with_telemetry(
        dir: &Path,
        registry: &MetricsRegistry,
    ) -> Result<ArchiveReader, ArchiveError> {
        let open_span = registry.span("archive.open");
        let _open_guard = open_span.enter();

        let manifest_path = dir.join("manifest.json");
        let any_side_dir = [Side::Eth, Side::Etc]
            .iter()
            .any(|s| dir.join(side_dir_name(*s)).is_dir());
        if !any_side_dir && !manifest_path.is_file() {
            return Err(ArchiveError::NotAnArchive {
                path: dir.to_path_buf(),
            });
        }

        let mut report = OpenReport::default();
        let scan_span = registry.span("archive.scan");
        let skipped_counter = registry.counter("archive.skipped_segments");
        let mut sides_vec = Vec::with_capacity(2);
        for side in [Side::Eth, Side::Etc] {
            let side_dir = dir.join(side_dir_name(side));
            let mut index = SideIndex {
                segments: Vec::new(),
            };
            if side_dir.is_dir() {
                let mut seg_ids = list_segments(&side_dir)?;
                seg_ids.sort();
                for seg in seg_ids {
                    let path = side_dir.join(segment_file_name(seg));
                    let _scan_guard = scan_span.enter();
                    // An empty file is a crash artifact, not corruption: the
                    // roll happened but no superblock byte ever landed.
                    let len = fs::metadata(&path)
                        .map_err(|e| ArchiveError::io(&path, e))?
                        .len();
                    if len == 0 {
                        report.empty_segments += 1;
                        continue;
                    }
                    match scan_segment(&path, side) {
                        Ok(scan) => {
                            report.segments += 1;
                            report.frames += scan.frames;
                            report.blocks += scan.blocks;
                            report.txs += scan.txs;
                            if scan.torn_bytes > 0 {
                                report.torn_bytes += scan.torn_bytes;
                                report.torn_segments += 1;
                            }
                            index.segments.push((path, scan));
                        }
                        Err(ArchiveError::Corrupt { path, detail, .. }) => {
                            skipped_counter.incr();
                            report.skipped.push((path, detail));
                        }
                        Err(other) => return Err(other),
                    }
                }
            }
            sides_vec.push(index);
        }
        let [eth, etc]: [SideIndex; 2] = sides_vec.try_into().expect("two sides");

        let meta = read_manifest(&manifest_path)?;
        Ok(ArchiveReader {
            dir: dir.to_path_buf(),
            sides: [eth, etc],
            report,
            meta,
        })
    }

    /// Archive root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the open-time scan found.
    pub fn open_report(&self) -> &OpenReport {
        &self.report
    }

    /// Run provenance from `manifest.json`, when present and well-formed.
    pub fn meta(&self) -> Option<ArchiveMeta> {
        self.meta
    }

    /// Records as `(blocks, txs)` across both sides.
    pub fn totals(&self) -> (u64, u64) {
        (self.report.blocks, self.report.txs)
    }

    fn side_index(&self, side: Side) -> &SideIndex {
        match side {
            Side::Eth => &self.sides[0],
            Side::Etc => &self.sides[1],
        }
    }

    /// One side's scanned segments in segment order, as `(path, scan)`.
    /// This is the raw material for external cursors (fork-query's reader
    /// pool): each scan carries the superblock, valid length, and sparse
    /// indexes needed to open independent [`SegmentCursor`]s without
    /// re-scanning the archive.
    pub fn segments(&self, side: Side) -> &[(PathBuf, SegmentScan)] {
        &self.side_index(side).segments
    }

    /// Full scan of one side, in write (= seq) order.
    pub fn records(&self, side: Side) -> RecordStream<'_> {
        RecordStream::new(self.side_index(side), None)
    }

    /// Block records of `side` with numbers in `[first, last]` (inclusive),
    /// seeking via the sparse block-number index.
    pub fn blocks_in(
        &self,
        side: Side,
        first: u64,
        last: u64,
    ) -> impl Iterator<Item = Result<BlockRecord, ArchiveError>> + '_ {
        let stream = RecordStream::new(
            self.side_index(side),
            Some(ScanBounds::Numbers(first, last)),
        );
        stream.filter_map(move |item| match item {
            Ok((_, ArchiveRecord::Block(b))) => (first..=last).contains(&b.number).then_some(Ok(b)),
            Ok(_) => None,
            Err(e) => Some(Err(e)),
        })
    }

    /// All records of `side` with timestamps in `[start, end]` (inclusive
    /// unix seconds), seeking via the sparse timestamp index. Transactions
    /// carry their including block's timestamp, so a time window yields the
    /// same population the paper's per-hour/per-day queries would.
    pub fn records_in_time_range(
        &self,
        side: Side,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = Result<(u64, ArchiveRecord), ArchiveError>> + '_ {
        let stream = RecordStream::new(self.side_index(side), Some(ScanBounds::Times(start, end)));
        stream.filter_map(move |item| match item {
            Ok((seq, rec)) => (start..=end)
                .contains(&rec.timestamp())
                .then_some(Ok((seq, rec))),
            Err(e) => Some(Err(e)),
        })
    }

    /// Streams the whole archive into `sink` in the original global
    /// ingestion order, merging the two per-side streams by sequence number.
    pub fn replay_into_sink(&self, sink: &mut impl LedgerSink) -> Result<u64, ArchiveError> {
        let mut eth = RecordStream::new(&self.sides[0], None).peekable_seq()?;
        let mut etc = RecordStream::new(&self.sides[1], None).peekable_seq()?;
        let mut delivered = 0u64;
        loop {
            let take_eth = match (eth.peek_seq(), etc.peek_seq()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(a), Some(b)) => a <= b,
            };
            let stream = if take_eth { &mut eth } else { &mut etc };
            let (_, record) = stream.take()?;
            match record {
                ArchiveRecord::Block(b) => sink.block(b),
                ArchiveRecord::Tx(t) => sink.tx(t),
            }
            delivered += 1;
        }
        Ok(delivered)
    }

    /// Rebuilds full analytics state from disk: every archived record is
    /// ingested into `pipeline` in the original order. Returns the number of
    /// records delivered.
    pub fn replay_into(&self, pipeline: &mut Pipeline) -> Result<u64, ArchiveError> {
        self.replay_into_sink(pipeline)
    }

    /// Walks every frame in every segment, verifying checksums and decodes.
    /// Corrupt frames are collected, never panicked on; a bad frame header
    /// ends that segment's walk (offsets past it cannot be trusted).
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for side in &self.sides {
            for (path, scan) in &side.segments {
                let mut sv = SegmentVerify {
                    path: path.clone(),
                    frames_ok: 0,
                    corrupt: Vec::new(),
                    torn_bytes: scan.torn_bytes,
                };
                match SegmentCursor::open(
                    path,
                    scan.superblock,
                    SUPERBLOCK_LEN as u64,
                    scan.valid_len,
                ) {
                    Ok(mut cursor) => {
                        while let Some(item) = cursor.next_frame() {
                            match item {
                                Ok(_) => sv.frames_ok += 1,
                                Err(ArchiveError::Corrupt { offset, detail, .. }) => {
                                    sv.corrupt.push((offset, detail));
                                }
                                Err(e) => {
                                    sv.corrupt.push((0, e.to_string()));
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) => sv.corrupt.push((0, e.to_string())),
                }
                report.segments.push(sv);
            }
        }
        for (path, detail) in &self.report.skipped {
            report.segments.push(SegmentVerify {
                path: path.clone(),
                frames_ok: 0,
                corrupt: vec![(0, detail.clone())],
                torn_bytes: 0,
            });
        }
        report.sidecar = crate::sidecar::check_sidecar(self);
        report
    }
}

/// Iterator over one side's records in write order, segment by segment.
/// Yields `(seq, record)`; corrupt frames surface as `Err` and end the
/// affected segment's contribution (the stream continues with the next
/// segment). A bounded stream may over-approximate its bounds (callers
/// filter), but never drops an in-bounds record: each segment applies
/// [`SegmentScan::start_for`] and [`SegmentScan::ends_scan`].
pub struct RecordStream<'a> {
    segments: std::slice::Iter<'a, (PathBuf, SegmentScan)>,
    bounds: Option<ScanBounds>,
    /// The open segment's scan and cursor.
    cursor: Option<(&'a SegmentScan, SegmentCursor)>,
}

impl<'a> RecordStream<'a> {
    fn new(index: &'a SideIndex, bounds: Option<ScanBounds>) -> Self {
        RecordStream {
            segments: index.segments.iter(),
            bounds,
            cursor: None,
        }
    }

    /// Opens the next segment holding anything in bounds.
    fn advance_segment(&mut self) -> Option<Result<(), ArchiveError>> {
        loop {
            let (path, scan) = self.segments.next()?;
            let Some(start) = scan.start_for(self.bounds) else {
                continue;
            };
            match SegmentCursor::open(path, scan.superblock, start, scan.valid_len) {
                Ok(cursor) => {
                    self.cursor = Some((scan, cursor));
                    return Some(Ok(()));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }

    /// Wraps into a single-lookahead adapter for the seq-merge in
    /// `replay_into_sink`.
    fn peekable_seq(self) -> Result<PeekedStream<'a>, ArchiveError> {
        let mut stream = self;
        let head = stream.pull()?;
        Ok(PeekedStream { stream, head })
    }

    /// Next record, or `None` at the end; propagates corruption errors after
    /// ending the affected segment.
    fn pull(&mut self) -> Result<Option<(u64, ArchiveRecord)>, ArchiveError> {
        loop {
            if self.cursor.is_none() {
                match self.advance_segment() {
                    None => return Ok(None),
                    Some(Ok(())) => {}
                    Some(Err(e)) => return Err(e),
                }
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
                    self.cursor = None; // cursor already stopped at the error
                    return Err(e);
                }
            }
        }
    }
}

impl Iterator for RecordStream<'_> {
    type Item = Result<(u64, ArchiveRecord), ArchiveError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.pull().transpose()
    }
}

struct PeekedStream<'a> {
    stream: RecordStream<'a>,
    head: Option<(u64, ArchiveRecord)>,
}

impl PeekedStream<'_> {
    fn peek_seq(&self) -> Option<u64> {
        self.head.as_ref().map(|(seq, _)| *seq)
    }

    fn take(&mut self) -> Result<(u64, ArchiveRecord), ArchiveError> {
        let out = self.head.take().expect("take() after peek_seq() = Some");
        self.head = self.stream.pull()?;
        Ok(out)
    }
}

pub(crate) fn read_manifest(path: &Path) -> Result<Option<ArchiveMeta>, ArchiveError> {
    if !path.is_file() {
        return Ok(None);
    }
    let text = fs::read_to_string(path).map_err(|e| ArchiveError::io(path, e))?;
    let value = Value::parse(&text).map_err(|e| ArchiveError::Manifest {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    if value["schema"].as_str() != Some("fork-archive/v1") {
        return Err(ArchiveError::Manifest {
            path: path.to_path_buf(),
            detail: "unknown schema".into(),
        });
    }
    let Some(seed_str) = value["seed"].as_str() else {
        return Ok(None); // manifest without provenance — fine
    };
    let seed = seed_str
        .parse::<u64>()
        .map_err(|_| ArchiveError::Manifest {
            path: path.to_path_buf(),
            detail: "seed is not a u64".into(),
        })?;
    Ok(Some(ArchiveMeta {
        seed,
        start_unix: value["start_unix"].as_u64().unwrap_or(0),
        end_unix: value["end_unix"].as_u64().unwrap_or(0),
    }))
}
