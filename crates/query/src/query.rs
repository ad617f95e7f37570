//! Typed queries over an archive and their evaluation.
//!
//! A [`Query`] names a side, a range, and a [`Projection`]; evaluation
//! turns the matching slice of the archive into raw records or one of the
//! paper's aggregates — **without re-running the simulation**. The same
//! evaluation code runs over any [`RecordSource`]: the pooled, cached
//! source used by the executor and the naive single-threaded full-scan
//! source used as the correctness reference. Because only the record
//! *iteration* differs (and both iterations yield the same per-side record
//! sequence in write order), pooled and naive results are identical by
//! construction — the concurrency tests assert this byte-for-byte.
//!
//! Aggregates reuse the exact fold code the live pipeline uses
//! (`fork_analytics::aggregate`) and the exact bucketing the telemetry
//! histograms use (`fork_telemetry::bucket_index`), so a full-range query
//! reproduces the live run's series and histograms bit-identically.
//!
//! The pooled source also brings the pool's accelerators (`partials`): a
//! per-day aggregate folds the days its range covers wholly from per-day
//! partials, each folded over its whole day in write order by the same
//! `RecordFold` a scan uses, and streams the rest; echoes slice a
//! once-per-pool replay. The naive source has neither and scans.

use std::collections::BTreeMap;

use fork_analytics::{
    count_series, mean_series, ratio, BlockRecord, MeanCell, TimeSeries, TxRecord,
};
use fork_archive::{ArchiveError, ArchiveReader, ArchiveRecord, ScanBounds};
use fork_primitives::SimTime;
use fork_replay::{EchoDetector, Side};
use fork_telemetry::HistogramSnapshot;

use crate::error::QueryError;
use crate::partials::{side_index, Accel, DayPartial, EchoDays, Gaps, Piece, DAY};
use crate::pool::ReaderPool;

/// Which slice of the archive a query covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRange {
    /// Everything.
    All,
    /// Blocks with numbers in `[first, last]` (inclusive). Only valid for
    /// block-shaped projections: transaction frames carry no block number.
    Blocks {
        /// First block number, inclusive.
        first: u64,
        /// Last block number, inclusive.
        last: u64,
    },
    /// Records with timestamps in `[start, end]` (inclusive unix seconds).
    /// Transactions carry their including block's timestamp.
    Time {
        /// Window start, inclusive.
        start: u64,
        /// Window end, inclusive.
        end: u64,
    },
}

/// What to compute over the covered records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// The raw block records, in write order.
    Blocks,
    /// The raw transaction records, in write order.
    Txs,
    /// Histogram of inter-block arrival times (seconds), bucketed exactly
    /// like the live `meso.interarrival.{eth,etc}` telemetry histograms.
    InterArrival,
    /// Mean difficulty per day — the live pipeline's `daily_difficulty`.
    Difficulty,
    /// Pointwise ETH:ETC transactions-per-day ratio (cross-side; leave
    /// `side` as `None`).
    TxRatioPerDay,
    /// Echo (cross-chain rebroadcast) counts into `side`, summed over
    /// consecutive `window_days`-day windows.
    Echoes {
        /// Window width in days (`1` = the pipeline's `echoes_per_day`).
        window_days: u64,
    },
}

/// One typed query. Construct directly; shape errors surface from
/// [`Query::validate`] (and from evaluation) as
/// [`QueryError::Unsupported`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// The network side, for per-side projections. Cross-side projections
    /// ([`Projection::TxRatioPerDay`]) take `None`.
    pub side: Option<Side>,
    /// The archive slice to cover.
    pub range: QueryRange,
    /// What to compute.
    pub projection: Projection,
}

/// What a query evaluates to.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Raw block records ([`Projection::Blocks`]).
    Blocks(Vec<BlockRecord>),
    /// Raw transaction records ([`Projection::Txs`]).
    Txs(Vec<TxRecord>),
    /// A histogram ([`Projection::InterArrival`]). Boxed: the snapshot's
    /// fixed bucket array dwarfs the other variants.
    Histogram(Box<HistogramSnapshot>),
    /// A time series (all remaining projections).
    Series(TimeSeries),
}

impl Query {
    /// Checks that the query's shape is answerable. Evaluation calls this
    /// first, so callers only need it for early feedback.
    pub fn validate(&self) -> Result<(), QueryError> {
        let needs_side = !matches!(self.projection, Projection::TxRatioPerDay);
        if needs_side && self.side.is_none() {
            return Err(QueryError::unsupported(format!(
                "{:?} is a per-side projection; set `side`",
                self.projection
            )));
        }
        if !needs_side && self.side.is_some() {
            return Err(QueryError::unsupported(
                "TxRatioPerDay is cross-side; leave `side` as None",
            ));
        }
        let tx_based = matches!(
            self.projection,
            Projection::Txs | Projection::TxRatioPerDay | Projection::Echoes { .. }
        );
        if tx_based && matches!(self.range, QueryRange::Blocks { .. }) {
            return Err(QueryError::unsupported(
                "transaction frames carry no block number; use a time range",
            ));
        }
        if let Projection::Echoes { window_days: 0 } = self.projection {
            return Err(QueryError::unsupported("echo window must be >= 1 day"));
        }
        Ok(())
    }
}

/// Anything that can stream one side's records in write (= seq) order.
/// Implementations may over-approximate the range (evaluation re-filters),
/// but must never drop or reorder in-range records.
pub(crate) trait RecordSource {
    /// Records of `side` covering at least `range`, as `(seq, record)`.
    fn stream<'a>(&'a self, side: Side, range: &QueryRange) -> RecordIter<'a>;

    /// The per-archive accelerators, when the source has them.
    fn accel(&self) -> Option<&Accel> {
        None
    }
}

/// The production source: pooled, cached, seek-optimized streams, plus the
/// pool's partials and memos.
pub(crate) struct PooledSource<'a>(pub &'a ReaderPool);

impl RecordSource for PooledSource<'_> {
    fn stream<'a>(&'a self, side: Side, range: &QueryRange) -> RecordIter<'a> {
        let bounds = match *range {
            QueryRange::All => None,
            QueryRange::Blocks { first, last } => Some(ScanBounds::Numbers(first, last)),
            QueryRange::Time { start, end } => Some(ScanBounds::Times(start, end)),
        };
        Box::new(self.0.stream(side, bounds))
    }

    fn accel(&self) -> Option<&Accel> {
        Some(self.0.accel())
    }
}

/// The reference source: a plain single-threaded full scan through the
/// reader, no seek, no cache, no partials. Deliberately the dumbest
/// correct thing.
pub(crate) struct NaiveSource<'a>(pub &'a ArchiveReader);

impl RecordSource for NaiveSource<'_> {
    fn stream<'a>(&'a self, side: Side, _range: &QueryRange) -> RecordIter<'a> {
        Box::new(self.0.records(side))
    }
}

/// A fold over one side's records in write order.
pub(crate) trait RecordFold {
    /// Folds the next block.
    fn block(&mut self, b: &BlockRecord);
    /// Folds the next transaction, by its timestamp.
    fn tx(&mut self, _ts: u64) {}
}

/// A [`RecordFold`] that can also take a whole day from its partial, in
/// place of that day's records.
trait DayFold: RecordFold {
    fn day(&mut self, day: u64, partial: &DayPartial);
}

impl RecordFold for Gaps {
    fn block(&mut self, b: &BlockRecord) {
        self.push(b.timestamp);
    }
}

impl DayFold for Gaps {
    fn day(&mut self, _day: u64, partial: &DayPartial) {
        self.extend(partial);
    }
}

/// Mean difficulty per day.
#[derive(Default)]
struct DailyMeans(BTreeMap<u64, MeanCell>);

impl RecordFold for DailyMeans {
    fn block(&mut self, b: &BlockRecord) {
        self.0
            .entry(b.timestamp / DAY)
            .or_default()
            .push(b.difficulty.to_f64_lossy());
    }
}

impl DayFold for DailyMeans {
    fn day(&mut self, day: u64, partial: &DayPartial) {
        if partial.numbers.is_some() {
            self.0.insert(day, partial.difficulty);
        }
    }
}

/// Transactions per day.
#[derive(Default)]
struct DailyCounts(BTreeMap<u64, u64>);

impl RecordFold for DailyCounts {
    fn block(&mut self, _b: &BlockRecord) {}

    fn tx(&mut self, ts: u64) {
        *self.0.entry(ts / DAY).or_default() += 1;
    }
}

impl DayFold for DailyCounts {
    fn day(&mut self, day: u64, partial: &DayPartial) {
        if partial.txs > 0 {
            self.0.insert(day, partial.txs);
        }
    }
}

/// Folds `side`'s records that lie in both `window` (what is streamed) and
/// `range` (the query's filter), in write order.
pub(crate) fn fold_scan(
    source: &dyn RecordSource,
    side: Side,
    window: &QueryRange,
    range: &QueryRange,
    fold: &mut impl RecordFold,
) -> Result<(), QueryError> {
    for item in source.stream(side, window) {
        match item?.1 {
            ArchiveRecord::Block(b) => {
                if block_in_range(window, &b) && block_in_range(range, &b) {
                    fold.block(&b);
                }
            }
            ArchiveRecord::Tx(t) => {
                if ts_in_range(window, t.timestamp) && ts_in_range(range, t.timestamp) {
                    fold.tx(t.timestamp);
                }
            }
        }
    }
    Ok(())
}

/// Folds `side`'s records in `range`, in write order: the days the source's
/// partials cover come in whole, the rest is streamed.
fn fold_side<F: DayFold>(
    source: &dyn RecordSource,
    side: Side,
    range: &QueryRange,
    mut fold: F,
) -> Result<F, QueryError> {
    let pieces = match source.accel() {
        Some(accel) => accel.pieces(source, side, range)?,
        None => vec![Piece::Scan(*range)],
    };
    for piece in pieces {
        match piece {
            Piece::Scan(window) => fold_scan(source, side, &window, range, &mut fold)?,
            Piece::Day(day, partial) => fold.day(day, partial),
        }
    }
    Ok(fold)
}

fn block_in_range(range: &QueryRange, b: &BlockRecord) -> bool {
    match *range {
        QueryRange::All => true,
        QueryRange::Blocks { first, last } => (first..=last).contains(&b.number),
        QueryRange::Time { start, end } => (start..=end).contains(&b.timestamp),
    }
}

fn ts_in_range(range: &QueryRange, ts: u64) -> bool {
    match *range {
        QueryRange::All => true,
        QueryRange::Blocks { .. } => false, // rejected by validate()
        QueryRange::Time { start, end } => (start..=end).contains(&ts),
    }
}

fn day_in_range(range: &QueryRange, day: u64) -> bool {
    match *range {
        QueryRange::All => true,
        QueryRange::Blocks { .. } => false, // rejected by validate()
        // A day qualifies when any of its seconds fall inside the window.
        QueryRange::Time { start, end } => day * DAY <= end && (day + 1) * DAY > start,
    }
}

/// Evaluates `query` against `source`. This is the single evaluation path:
/// the executor and the naive reference differ only in the `source` they
/// pass in.
pub(crate) fn evaluate(
    source: &dyn RecordSource,
    query: &Query,
) -> Result<QueryOutput, QueryError> {
    query.validate()?;
    match query.projection {
        Projection::Blocks => {
            let side = query.side.expect("validated");
            let mut out = Vec::new();
            for item in source.stream(side, &query.range) {
                if let (_, ArchiveRecord::Block(b)) = item? {
                    if block_in_range(&query.range, &b) {
                        out.push(b);
                    }
                }
            }
            Ok(QueryOutput::Blocks(out))
        }
        Projection::Txs => {
            let side = query.side.expect("validated");
            let mut out = Vec::new();
            for item in source.stream(side, &query.range) {
                if let (_, ArchiveRecord::Tx(t)) = item? {
                    if ts_in_range(&query.range, t.timestamp) {
                        out.push(t);
                    }
                }
            }
            Ok(QueryOutput::Txs(out))
        }
        Projection::InterArrival => {
            let side = query.side.expect("validated");
            // `HistogramSnapshot::record` mirrors the live histogram's
            // bucketing without the live type, so results are identical
            // whether or not the build enables the `enabled` feature.
            let gaps = fold_side(source, side, &query.range, Gaps::default())?;
            Ok(QueryOutput::Histogram(Box::new(gaps.hist)))
        }
        Projection::Difficulty => {
            let side = query.side.expect("validated");
            let means = fold_side(source, side, &query.range, DailyMeans::default())?;
            Ok(QueryOutput::Series(mean_series(
                side.label(),
                &means.0,
                DAY,
            )))
        }
        Projection::TxRatioPerDay => {
            let [eth, etc] = [Side::Eth, Side::Etc].map(|side| {
                fold_side(source, side, &query.range, DailyCounts::default())
                    .map(|counts| count_series(side.label(), &counts.0, DAY))
            });
            Ok(QueryOutput::Series(ratio(&eth?, &etc?, "ETH:ETC")))
        }
        Projection::Echoes { window_days } => {
            let side = query.side.expect("validated");
            // Echo-ness depends on which side saw a hash *first*, so the
            // detector must see the whole cross-side stream in the original
            // global order regardless of the query range; the range only
            // restricts which days are emitted. A pool replays once.
            let fresh;
            let days = match source.accel() {
                Some(accel) => accel.echo_days(|| echo_days(source))?,
                None => {
                    fresh = echo_days(source)?;
                    &fresh
                }
            };
            let mut windows: BTreeMap<u64, u64> = BTreeMap::new();
            for &(day, stats) in &days[side_index(side)] {
                if day_in_range(&query.range, day) {
                    *windows.entry(day / window_days).or_default() += stats.echoes;
                }
            }
            let mut s = TimeSeries::new(side.label());
            for (w, echoes) in windows {
                s.push(SimTime::from_unix(w * window_days * DAY), echoes as f64);
            }
            Ok(QueryOutput::Series(s))
        }
    }
}

/// Replays every transaction on both sides through an [`EchoDetector`] in
/// the original global ingestion order (merge by sequence number — the same
/// merge `ArchiveReader::replay_into` performs) and keeps its per-day stats.
fn echo_days(source: &dyn RecordSource) -> Result<EchoDays, QueryError> {
    let mut eth = source.stream(Side::Eth, &QueryRange::All).peekable();
    let mut etc = source.stream(Side::Etc, &QueryRange::All).peekable();
    let mut detector = EchoDetector::new();
    loop {
        let take_eth = match (peek_seq(&mut eth)?, peek_seq(&mut etc)?) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(b)) => a <= b,
        };
        let stream = if take_eth { &mut eth } else { &mut etc };
        let (_, record) = stream.next().expect("peeked Some")?;
        if let ArchiveRecord::Tx(t) = record {
            detector.observe(t.network, t.hash, t.timestamp / DAY);
        }
    }
    Ok([Side::Eth, Side::Etc].map(|side| detector.daily(side)))
}

pub(crate) type RecordIter<'a> =
    Box<dyn Iterator<Item = Result<(u64, ArchiveRecord), ArchiveError>> + 'a>;

pub(crate) fn peek_seq(
    it: &mut std::iter::Peekable<RecordIter<'_>>,
) -> Result<Option<u64>, QueryError> {
    match it.peek() {
        None => Ok(None),
        Some(Ok((seq, _))) => Ok(Some(*seq)),
        Some(Err(_)) => {
            let err = it.next().expect("peeked Some").expect_err("peeked Err");
            Err(err.into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(side: Option<Side>, range: QueryRange, projection: Projection) -> Query {
        Query {
            side,
            range,
            projection,
        }
    }

    #[test]
    fn per_side_projections_require_a_side() {
        for p in [
            Projection::Blocks,
            Projection::InterArrival,
            Projection::Difficulty,
        ] {
            assert!(q(None, QueryRange::All, p).validate().is_err());
            assert!(q(Some(Side::Eth), QueryRange::All, p).validate().is_ok());
        }
    }

    #[test]
    fn tx_projections_reject_block_ranges() {
        let blocks = QueryRange::Blocks { first: 0, last: 10 };
        assert!(q(Some(Side::Eth), blocks, Projection::Txs)
            .validate()
            .is_err());
        assert!(q(None, blocks, Projection::TxRatioPerDay)
            .validate()
            .is_err());
        assert!(q(
            Some(Side::Etc),
            blocks,
            Projection::Echoes { window_days: 7 }
        )
        .validate()
        .is_err());
        let time = QueryRange::Time { start: 0, end: 10 };
        assert!(q(Some(Side::Eth), time, Projection::Txs).validate().is_ok());
    }

    #[test]
    fn ratio_is_cross_side_only() {
        assert!(
            q(Some(Side::Eth), QueryRange::All, Projection::TxRatioPerDay)
                .validate()
                .is_err()
        );
        assert!(q(None, QueryRange::All, Projection::TxRatioPerDay)
            .validate()
            .is_ok());
    }

    #[test]
    fn zero_day_echo_window_rejected() {
        assert!(q(
            Some(Side::Eth),
            QueryRange::All,
            Projection::Echoes { window_days: 0 }
        )
        .validate()
        .is_err());
    }

    #[test]
    fn day_in_range_uses_overlap() {
        let r = QueryRange::Time {
            start: 86_400 + 10,
            end: 3 * 86_400 - 1,
        };
        assert!(!day_in_range(&r, 0));
        assert!(day_in_range(&r, 1), "partial overlap at the start counts");
        assert!(day_in_range(&r, 2));
        assert!(!day_in_range(&r, 3));
    }
}
