//! Segment scanning and sequential frame reading.
//!
//! [`scan_segment`] is the open-time pass: it validates the superblock,
//! walks the frame *headers* (reading only a short payload prefix per
//! frame and seeking over the rest), builds the sparse block-number and
//! timestamp indexes, and finds the torn-tail boundary — the offset after
//! the last structurally complete frame. It does **not** verify payload
//! checksums; that is the job of reads and of `ArchiveReader::verify`.
//!
//! [`SegmentScan::start_for`] and [`SegmentScan::ends_scan`] are the one
//! seek/skip/stop rule every bounded scan applies per segment.
//!
//! [`SegmentCursor`] is the read path: sequential frames with checksum
//! verification, startable at any frame offset the index produced.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use fork_replay::Side;

use crate::error::ArchiveError;
use crate::format::{
    checksum, min_payload_len, ArchiveRecord, FramePrefix, Superblock, FRAME_HEADER_LEN,
    INDEX_STRIDE, KIND_BLOCK, KIND_TX, MAX_PAYLOAD_LEN, PREFIX_READ_LEN, SUPERBLOCK_LEN,
};

/// Everything the open-time scan learns about one segment file.
#[derive(Debug, Clone)]
pub struct SegmentScan {
    /// The validated superblock.
    pub superblock: Superblock,
    /// Offset one past the last structurally complete frame. Bytes beyond
    /// this are a torn tail: unreadable, truncated on append-reopen.
    pub valid_len: u64,
    /// `file_len - valid_len` — 0 for a cleanly closed segment.
    pub torn_bytes: u64,
    /// Number of complete frames.
    pub frames: u64,
    /// Block frames seen.
    pub blocks: u64,
    /// Tx frames seen.
    pub txs: u64,
    /// Smallest and largest global sequence numbers (`None` when empty).
    pub seq_range: Option<(u64, u64)>,
    /// Smallest and largest block numbers (`None` when no block frames).
    pub block_range: Option<(u64, u64)>,
    /// Smallest and largest record timestamps, blocks and txs alike
    /// (`None` when empty).
    pub time_range: Option<(u64, u64)>,
    /// Whether the frames are in order: block numbers strictly ascend and
    /// record timestamps (blocks and txs) never decrease. Only then are the
    /// sparse-index seek and the stop at the first record past a bound
    /// exact; a segment holding a reorg is read whole (see
    /// [`SegmentScan::start_for`]).
    pub ascending: bool,
    /// Sparse index: every [`INDEX_STRIDE`]-th block frame as
    /// `(block_number, frame_offset)`, in frame order (sorted only when the
    /// segment is [`ascending`](SegmentScan::ascending)).
    pub block_index: Vec<(u64, u64)>,
    /// Sparse index: the same frames as `(block_timestamp, frame_offset)`.
    pub time_index: Vec<(u64, u64)>,
}

/// The bounds of a range scan, inclusive at both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanBounds {
    /// Block numbers in `[first, last]`. Tx frames carry no number; a
    /// number-bounded scan may yield some, and callers filter them out.
    Numbers(u64, u64),
    /// Record timestamps in `[start, end]` (txs carry their block's).
    Times(u64, u64),
}

impl SegmentScan {
    /// Where a scan bounded by `bounds` starts reading this segment, or
    /// `None` when the segment holds nothing in bounds. An ascending segment
    /// is entered at the last indexed block *before* the lower bound, so
    /// every frame skipped is out of bounds; any other segment is read from
    /// its first frame.
    pub fn start_for(&self, bounds: Option<ScanBounds>) -> Option<u64> {
        let first_frame = SUPERBLOCK_LEN as u64;
        match bounds {
            None => Some(first_frame),
            Some(ScanBounds::Numbers(lo, hi)) => {
                let (min, max) = self.block_range?;
                if max < lo || min > hi {
                    return None;
                }
                if !self.ascending {
                    return Some(first_frame);
                }
                Some(floor_offset(&self.block_index, lo.saturating_add(1)))
            }
            Some(ScanBounds::Times(lo, hi)) => {
                let (min, max) = self.time_range?;
                if max < lo || min > hi {
                    return None;
                }
                if !self.ascending {
                    return Some(first_frame);
                }
                Some(floor_offset(&self.time_index, lo))
            }
        }
    }

    /// Whether `record`, read from this segment by a scan bounded by
    /// `bounds`, ends the segment's part of the scan: in an ascending
    /// segment nothing after the first record past the upper bound is in
    /// bounds. Later segments are entered afresh by
    /// [`SegmentScan::start_for`].
    pub fn ends_scan(&self, bounds: Option<ScanBounds>, record: &ArchiveRecord) -> bool {
        self.ascending
            && match (bounds, record) {
                (Some(ScanBounds::Numbers(_, hi)), ArchiveRecord::Block(b)) => b.number > hi,
                (Some(ScanBounds::Times(_, hi)), rec) => rec.timestamp() > hi,
                _ => false,
            }
    }
}

/// Offset of the last indexed frame whose key is below `key` (the first
/// frame when there is none).
fn floor_offset(index: &[(u64, u64)], key: u64) -> u64 {
    let i = index.partition_point(|(k, _)| *k < key);
    if i == 0 {
        SUPERBLOCK_LEN as u64
    } else {
        index[i - 1].1
    }
}

/// Scans one segment file. Structural damage *past* the superblock is
/// recovered (the scan stops at the torn boundary); a damaged superblock is
/// an [`ArchiveError::Corrupt`] — without it the segment's side and order
/// cannot be trusted.
pub fn scan_segment(path: &Path, expect_side: Side) -> Result<SegmentScan, ArchiveError> {
    let file = File::open(path).map_err(|e| ArchiveError::io(path, e))?;
    let file_len = file
        .metadata()
        .map_err(|e| ArchiveError::io(path, e))?
        .len();
    let mut reader = BufReader::new(file);

    let mut sb_bytes = [0u8; SUPERBLOCK_LEN];
    read_exact_at_start(&mut reader, &mut sb_bytes, path)?;
    let superblock =
        Superblock::decode(&sb_bytes).map_err(|d| ArchiveError::corrupt(path, 0, d))?;
    if superblock.side != expect_side {
        return Err(ArchiveError::corrupt(
            path,
            0,
            format!(
                "superblock side {:?} does not match directory {:?}",
                superblock.side, expect_side
            ),
        ));
    }

    let mut scan = SegmentScan {
        superblock,
        valid_len: SUPERBLOCK_LEN as u64,
        torn_bytes: 0,
        frames: 0,
        blocks: 0,
        txs: 0,
        seq_range: None,
        block_range: None,
        time_range: None,
        ascending: true,
        block_index: Vec::new(),
        time_index: Vec::new(),
    };

    let min_len = min_payload_len(superblock.codec);
    let mut pos = SUPERBLOCK_LEN as u64;
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut prefix_buf = [0u8; PREFIX_READ_LEN];
    let mut last_number: Option<u64> = None;
    let mut last_ts: Option<u64> = None;
    loop {
        if pos + FRAME_HEADER_LEN as u64 > file_len {
            break; // clean end, or a tail shorter than a header
        }
        if read_exact_or_none(&mut reader, &mut header).is_none() {
            break;
        }
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if !(min_len..=MAX_PAYLOAD_LEN).contains(&len)
            || pos + (FRAME_HEADER_LEN as u64) + (len as u64) > file_len
        {
            // Implausible length or a payload running past EOF: the tail
            // from `pos` on is unreadable.
            break;
        }
        let prefix_len = PREFIX_READ_LEN.min(len as usize);
        if read_exact_or_none(&mut reader, &mut prefix_buf[..prefix_len]).is_none() {
            break;
        }
        let Ok(prefix) = FramePrefix::decode_in(&superblock, &prefix_buf[..prefix_len]) else {
            break;
        };
        // Skip the rest of the payload without reading it.
        let remainder = (len as usize - prefix_len) as i64;
        if remainder > 0 && reader.seek_relative(remainder).is_err() {
            break;
        }

        scan.frames += 1;
        widen(&mut scan.seq_range, prefix.seq);
        match prefix.kind {
            KIND_BLOCK => {
                if scan.blocks.is_multiple_of(INDEX_STRIDE) {
                    scan.block_index.push((prefix.number, pos));
                    scan.time_index.push((prefix.timestamp, pos));
                }
                scan.blocks += 1;
                if last_number.is_some_and(|n| prefix.number <= n) {
                    scan.ascending = false;
                }
                last_number = Some(prefix.number);
                widen(&mut scan.block_range, prefix.number);
            }
            KIND_TX => scan.txs += 1,
            _ => break, // unknown kind: unreadable from here on
        }
        widen(&mut scan.time_range, prefix.timestamp);
        if last_ts.is_some_and(|t| prefix.timestamp < t) {
            scan.ascending = false;
        }
        last_ts = Some(prefix.timestamp);
        pos += FRAME_HEADER_LEN as u64 + len as u64;
        scan.valid_len = pos;
    }
    scan.torn_bytes = file_len - scan.valid_len;
    Ok(scan)
}

fn widen(range: &mut Option<(u64, u64)>, v: u64) {
    *range = Some(match *range {
        None => (v, v),
        Some((lo, hi)) => (lo.min(v), hi.max(v)),
    });
}

fn read_exact_at_start(
    reader: &mut BufReader<File>,
    buf: &mut [u8],
    path: &Path,
) -> Result<(), ArchiveError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ArchiveError::corrupt(path, 0, "file shorter than a superblock")
        } else {
            ArchiveError::io(path, e)
        }
    })
}

fn read_exact_or_none(reader: &mut BufReader<File>, buf: &mut [u8]) -> Option<()> {
    reader.read_exact(buf).ok()
}

/// Sequential checksum-verified frame reader over one segment's valid range.
pub struct SegmentCursor {
    path: PathBuf,
    superblock: Superblock,
    reader: BufReader<File>,
    pos: u64,
    end: u64,
}

impl SegmentCursor {
    /// Opens a cursor at `start` (a frame offset from the sparse index, or
    /// `SUPERBLOCK_LEN` for the first frame), bounded by the scan's
    /// `valid_len`. The superblock supplies the side and codec; every
    /// cursor over one segment can share the scan's copy.
    pub fn open(
        path: &Path,
        superblock: Superblock,
        start: u64,
        end: u64,
    ) -> Result<SegmentCursor, ArchiveError> {
        let file = File::open(path).map_err(|e| ArchiveError::io(path, e))?;
        let mut reader = BufReader::new(file);
        reader
            .seek(SeekFrom::Start(start))
            .map_err(|e| ArchiveError::io(path, e))?;
        Ok(SegmentCursor {
            path: path.to_path_buf(),
            superblock,
            reader,
            pos: start,
            end,
        })
    }

    /// Current byte offset: the offset the next [`SegmentCursor::next_frame`]
    /// will read from (after a successful read, one past the frame just
    /// returned). External cached readers use this to learn a frame's length
    /// without re-parsing headers.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Reads the next frame, verifying its checksum and decoding the record.
    /// `None` at the end of the valid range; `Some(Err(..))` for a corrupt
    /// frame (the cursor stops there — with a damaged length field the
    /// following offsets cannot be trusted).
    #[allow(clippy::type_complexity)]
    pub fn next_frame(&mut self) -> Option<Result<(u64, u64, ArchiveRecord), ArchiveError>> {
        if self.pos + FRAME_HEADER_LEN as u64 > self.end {
            return None;
        }
        let offset = self.pos;
        let mut header = [0u8; FRAME_HEADER_LEN];
        if let Err(e) = self.reader.read_exact(&mut header) {
            return Some(Err(ArchiveError::io(&self.path, e)));
        }
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if !(min_payload_len(self.superblock.codec)..=MAX_PAYLOAD_LEN).contains(&len)
            || offset + FRAME_HEADER_LEN as u64 + len as u64 > self.end
        {
            self.pos = self.end;
            return Some(Err(ArchiveError::corrupt(
                &self.path,
                offset,
                format!("implausible frame length {len}"),
            )));
        }
        let mut payload = vec![0u8; len as usize];
        if let Err(e) = self.reader.read_exact(&mut payload) {
            return Some(Err(ArchiveError::io(&self.path, e)));
        }
        self.pos = offset + FRAME_HEADER_LEN as u64 + len as u64;
        if checksum(&payload) != header[4..8] {
            return Some(Err(ArchiveError::corrupt(
                &self.path,
                offset,
                "frame checksum mismatch",
            )));
        }
        match ArchiveRecord::decode_payload_in(&self.superblock, &payload) {
            Ok((seq, record)) => Some(Ok((offset, seq, record))),
            Err(d) => Some(Err(ArchiveError::corrupt(&self.path, offset, d))),
        }
    }
}
