//! Point lookups and explorer-facing reads: hash → record, number →
//! block, per-side tip/reorg history, and checksummed header chains.
//!
//! The naive path ([`evaluate_lookup`]) answers every [`Lookup`] by
//! streaming records through the same [`RecordSource`] abstraction the
//! aggregate queries use, so pooled and naive evaluation agree by
//! construction. The fast path ([`ReaderPool::lookup`]) resolves
//! `BlockByHash`/`TxByHash` through the persistent hash-index sidecar
//! instead of scanning, then reads the one frame it names through the
//! ordinary checksummed cursor — the returned record is byte-identical to
//! what a full scan would have found.
//!
//! Where a hash matches several records (nothing forbids duplicates), the
//! lookup returns the earliest match in the merged cross-side sequence
//! order — exactly the first record a seq-merged scan would encounter.
//!
//! [`Lookup::Headers`] seals each block into a [`SealedHeader`]: the
//! frame's canonical `Raw` payload plus its truncated-keccak checksum. A
//! client re-verifies the chain with [`HeaderChain::verify`] using the
//! checksum function alone — no archive access needed — which is the
//! light-client-style sync primitive.

use fork_analytics::BlockRecord;
use fork_archive::format::{checksum, CHECKSUM_LEN, KIND_BLOCK, KIND_TX};
use fork_archive::{ArchiveRecord, HashIndex, IndexEntry};
use fork_primitives::H256;
use fork_replay::Side;

use crate::error::QueryError;
use crate::pool::ReaderPool;
use crate::query::{peek_seq, PooledSource, QueryRange, RecordSource};

/// A typed point lookup or explorer read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The earliest block whose hash is `hash`, in cross-side seq order.
    BlockByHash {
        /// Block hash to find.
        hash: H256,
    },
    /// The earliest transaction whose hash is `hash`, in cross-side seq
    /// order.
    TxByHash {
        /// Transaction hash to find.
        hash: H256,
    },
    /// The first block numbered `number` on `side`.
    BlockByNumber {
        /// Which side's chain to search.
        side: Side,
        /// Block number to find.
        number: u64,
    },
    /// Per-side tips plus reorg events, reconstructed from the merged
    /// cross-side sequence stream.
    TipHistory,
    /// A checksummed header chain for blocks `first..=last` on `side`.
    Headers {
        /// Which side's chain to serve.
        side: Side,
        /// First block number (inclusive).
        first: u64,
        /// Last block number (inclusive).
        last: u64,
    },
}

impl Lookup {
    /// Rejects structurally invalid lookups before any I/O.
    pub fn validate(&self) -> Result<(), QueryError> {
        if let Lookup::Headers { first, last, .. } = self {
            if first > last {
                return Err(QueryError::unsupported(format!(
                    "header range {first}..={last} is empty"
                )));
            }
        }
        Ok(())
    }
}

/// A located record: its global sequence number, side, and decoded value.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundRecord {
    /// Global sequence number stamped into the frame.
    pub seq: u64,
    /// Which side's stream holds it.
    pub side: Side,
    /// The decoded record.
    pub record: ArchiveRecord,
}

/// One reorg event on one side: a block arrived numbered at or below the
/// side's current tip, displacing `depth` blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorgEvent {
    /// The side that reorged.
    pub side: Side,
    /// Sequence number of the displacing block.
    pub seq: u64,
    /// The displacing block's number (the new tip).
    pub number: u64,
    /// Blocks displaced: `old_tip - number + 1`.
    pub depth: u64,
    /// The displacing block's timestamp.
    pub timestamp: u64,
}

/// One side's summary in a [`TipHistoryOutput`].
#[derive(Debug, Clone, PartialEq)]
pub struct SideTip {
    /// The side.
    pub side: Side,
    /// The current tip block (`None` for a side with no blocks).
    pub tip: Option<BlockRecord>,
    /// Sequence number of the tip block.
    pub tip_seq: Option<u64>,
    /// Total blocks seen on this side.
    pub blocks: u64,
    /// Reorg events on this side.
    pub reorgs: u64,
}

/// Result of [`Lookup::TipHistory`].
#[derive(Debug, Clone, PartialEq)]
pub struct TipHistoryOutput {
    /// The ETH side's summary.
    pub eth: SideTip,
    /// The ETC side's summary.
    pub etc: SideTip,
    /// Every reorg event, in global sequence order across both sides.
    pub reorgs: Vec<ReorgEvent>,
}

/// One header-chain entry: the block frame's canonical `Raw` payload plus
/// its frame checksum. Self-verifying — see [`SealedHeader::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedHeader {
    /// Global sequence number (also encoded inside the payload).
    pub seq: u64,
    /// The canonical `Raw`-codec frame payload for this block.
    pub payload: Vec<u8>,
    /// Truncated-keccak checksum of `payload` — the same function sealing
    /// every on-disk frame.
    pub checksum: [u8; CHECKSUM_LEN],
}

impl SealedHeader {
    /// Recomputes the frame checksum over the payload. This is the entire
    /// client-side trust check: no archive needed.
    pub fn verify(&self) -> bool {
        checksum(&self.payload) == self.checksum
    }

    /// Decodes the payload into the block record it seals.
    pub fn decode(&self, side: Side) -> Result<BlockRecord, String> {
        match ArchiveRecord::decode_payload(side, &self.payload) {
            Ok((seq, ArchiveRecord::Block(b))) if seq == self.seq => Ok(b),
            Ok((seq, ArchiveRecord::Block(_))) => {
                Err(format!("payload seq {seq} != sealed seq {}", self.seq))
            }
            Ok(_) => Err("header payload is not a block".into()),
            Err(e) => Err(e),
        }
    }
}

/// Result of [`Lookup::Headers`]: a verifiable header chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderChain {
    /// The side served.
    pub side: Side,
    /// Requested first block number.
    pub first: u64,
    /// Requested last block number.
    pub last: u64,
    /// Headers in ascending block-number (= seq) order.
    pub headers: Vec<SealedHeader>,
}

impl HeaderChain {
    /// Client-side end-to-end verification using frame checksums alone:
    /// every header's checksum must match, decode as a block of this
    /// chain's side inside the requested range, and ascend in both number
    /// and seq. Returns the decoded blocks.
    pub fn verify(&self) -> Result<Vec<BlockRecord>, String> {
        let mut blocks = Vec::with_capacity(self.headers.len());
        let mut prev: Option<(u64, u64)> = None;
        for (i, h) in self.headers.iter().enumerate() {
            if !h.verify() {
                return Err(format!("header {i}: checksum mismatch"));
            }
            let b = h
                .decode(self.side)
                .map_err(|e| format!("header {i}: {e}"))?;
            if b.network != self.side {
                return Err(format!("header {i}: wrong side {:?}", b.network));
            }
            if !(self.first..=self.last).contains(&b.number) {
                return Err(format!("header {i}: block {} out of range", b.number));
            }
            if let Some((pn, ps)) = prev {
                if b.number <= pn || h.seq <= ps {
                    return Err(format!("header {i}: chain order broken at {}", b.number));
                }
            }
            prev = Some((b.number, h.seq));
            blocks.push(b);
        }
        Ok(blocks)
    }
}

/// Result of one [`Lookup`].
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // short-lived, one per answered lookup
pub enum LookupOutput {
    /// Point lookups: the record, or `None` when nothing matches.
    Found(Option<FoundRecord>),
    /// [`Lookup::TipHistory`].
    Tips(TipHistoryOutput),
    /// [`Lookup::Headers`].
    Headers(HeaderChain),
}

/// Reference evaluation over any [`RecordSource`] — scans, no index. The
/// sidecar fast path must agree with this on every input.
pub(crate) fn evaluate_lookup(
    source: &dyn RecordSource,
    lookup: &Lookup,
) -> Result<LookupOutput, QueryError> {
    lookup.validate()?;
    match *lookup {
        Lookup::BlockByHash { hash } => scan_for_hash(source, hash, KIND_BLOCK),
        Lookup::TxByHash { hash } => scan_for_hash(source, hash, KIND_TX),
        Lookup::BlockByNumber { side, number } => {
            let range = QueryRange::Blocks {
                first: number,
                last: number,
            };
            for item in source.stream(side, &range) {
                let (seq, record) = item?;
                if let ArchiveRecord::Block(b) = &record {
                    if b.number == number {
                        return Ok(LookupOutput::Found(Some(FoundRecord { seq, side, record })));
                    }
                }
            }
            Ok(LookupOutput::Found(None))
        }
        Lookup::TipHistory => tip_history(source).map(LookupOutput::Tips),
        Lookup::Headers { side, first, last } => {
            let range = QueryRange::Blocks { first, last };
            let mut headers = Vec::new();
            for item in source.stream(side, &range) {
                let (seq, record) = item?;
                if let ArchiveRecord::Block(b) = &record {
                    if (first..=last).contains(&b.number) {
                        let payload = record.encode_payload(seq);
                        let sum = checksum(&payload);
                        headers.push(SealedHeader {
                            seq,
                            payload,
                            checksum: sum,
                        });
                    }
                }
            }
            Ok(LookupOutput::Headers(HeaderChain {
                side,
                first,
                last,
                headers,
            }))
        }
    }
}

/// Scans both sides for the matching record with the smallest seq. Within
/// one side seq ascends, so each side contributes its first match; the
/// smaller of the two is the merged-order winner.
fn scan_for_hash(
    source: &dyn RecordSource,
    hash: H256,
    kind: u8,
) -> Result<LookupOutput, QueryError> {
    let mut best: Option<FoundRecord> = None;
    for side in [Side::Eth, Side::Etc] {
        for item in source.stream(side, &QueryRange::All) {
            let (seq, record) = item?;
            let matches = match (&record, kind) {
                (ArchiveRecord::Block(b), KIND_BLOCK) => b.hash == hash,
                (ArchiveRecord::Tx(t), KIND_TX) => t.hash == hash,
                _ => false,
            };
            if matches {
                if best.as_ref().is_none_or(|b| seq < b.seq) {
                    best = Some(FoundRecord { seq, side, record });
                }
                break; // first per-side match is that side's minimum seq
            }
        }
    }
    Ok(LookupOutput::Found(best))
}

/// Walks the merged cross-side stream tracking each side's tip. A block
/// numbered at or below the current tip is a reorg event (the archive's
/// per-side streams normally ascend, so events mark genuine tip
/// displacement in hand-fed or adversarial archives).
fn tip_history(source: &dyn RecordSource) -> Result<TipHistoryOutput, QueryError> {
    let mut eth = source.stream(Side::Eth, &QueryRange::All).peekable();
    let mut etc = source.stream(Side::Etc, &QueryRange::All).peekable();
    let mut sides = [
        SideTip {
            side: Side::Eth,
            tip: None,
            tip_seq: None,
            blocks: 0,
            reorgs: 0,
        },
        SideTip {
            side: Side::Etc,
            tip: None,
            tip_seq: None,
            blocks: 0,
            reorgs: 0,
        },
    ];
    let mut reorgs = Vec::new();
    loop {
        let take_eth = match (peek_seq(&mut eth)?, peek_seq(&mut etc)?) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(b)) => a <= b,
        };
        let (stream, slot) = if take_eth {
            (&mut eth, &mut sides[0])
        } else {
            (&mut etc, &mut sides[1])
        };
        let (seq, record) = stream.next().expect("peeked Some")?;
        let ArchiveRecord::Block(b) = record else {
            continue;
        };
        slot.blocks += 1;
        if let Some(tip) = &slot.tip {
            if b.number <= tip.number {
                slot.reorgs += 1;
                reorgs.push(ReorgEvent {
                    side: slot.side,
                    seq,
                    number: b.number,
                    depth: tip.number - b.number + 1,
                    timestamp: b.timestamp,
                });
            }
        }
        slot.tip = Some(b);
        slot.tip_seq = Some(seq);
    }
    let [eth_tip, etc_tip] = sides;
    Ok(TipHistoryOutput {
        eth: eth_tip,
        etc: etc_tip,
        reorgs,
    })
}

/// The sidecar fast path for hash lookups and the pool's memo for the tip
/// history; everything else falls through to the shared scan evaluation
/// over the pooled source.
pub(crate) fn lookup_indexed(
    pool: &ReaderPool,
    lookup: &Lookup,
) -> Result<LookupOutput, QueryError> {
    lookup.validate()?;
    match *lookup {
        Lookup::BlockByHash { hash } => indexed_point(pool, hash, KIND_BLOCK),
        Lookup::TxByHash { hash } => indexed_point(pool, hash, KIND_TX),
        Lookup::TipHistory => {
            let tips = pool.accel().tips(|| tip_history(&PooledSource(pool)))?;
            Ok(LookupOutput::Tips(tips.clone()))
        }
        ref other => evaluate_lookup(&PooledSource(pool), other),
    }
}

fn indexed_point(pool: &ReaderPool, hash: H256, kind: u8) -> Result<LookupOutput, QueryError> {
    let index: &HashIndex = pool.hash_index();
    // Candidates ascend by seq; the first of the right kind is the merged
    // cross-side minimum — the record a naive seq-ordered scan finds first.
    let entry: Option<&IndexEntry> = index.candidates(&hash).iter().find(|e| e.kind == kind);
    let Some(entry) = entry else {
        return Ok(LookupOutput::Found(None));
    };
    let (seq, record) = pool.read_frame_at(entry.side, entry.segment, entry.offset)?;
    let ok = match (&record, kind) {
        (ArchiveRecord::Block(b), KIND_BLOCK) => b.hash == hash && seq == entry.seq,
        (ArchiveRecord::Tx(t), KIND_TX) => t.hash == hash && seq == entry.seq,
        _ => false,
    };
    if !ok {
        return Err(QueryError::unsupported(format!(
            "hash index entry at segment {} offset {} does not match the frame on disk",
            entry.segment, entry.offset
        )));
    }
    Ok(LookupOutput::Found(Some(FoundRecord {
        seq,
        side: entry.side,
        record,
    })))
}
