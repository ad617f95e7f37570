//! Per-opened-archive accelerators: memoized whole-archive folds and lazy
//! per-day partial aggregates.
//!
//! Every aggregate the paper bins per day merges: histogram buckets add,
//! daily sums and counts add. [`Accel`] keeps, for the lifetime of one
//! [`ReaderPool`](crate::ReaderPool):
//!
//! - **Memoized folds.** The cross-side echo replay and the tip history
//!   depend on the global record order, so they run once over the whole
//!   archive. The echo memo keeps only the per-(day, side) `DayStats`, not
//!   the detector's first-seen hash map; every `Echoes` window slices it.
//! - **Per-(side, day) partials.** A [`DayPartial`] holds one UTC day's
//!   difficulty cell, its within-day inter-arrival histogram plus first and
//!   last block timestamps (so the gap into the next day can be recorded at
//!   merge time), its tx count and its block-number span. A query takes the
//!   days its range covers wholly from partials and streams only the rest
//!   (the edge days) — see [`Accel::pieces`].
//!
//! **Exactness.** `MeanCell` sums `f64`s, so a mean depends on the order of
//! the additions. A partial is therefore folded sequentially from `0.0` over
//! its whole day, in write order — exactly the additions a scan makes into
//! that day's cell. Merging per-segment sums of a day that straddles a
//! segment boundary would not be bit-identical; merging whole days is. The
//! histogram and the counts are integer folds, so their merge order is
//! free. Inter-arrival gaps chain across days only when a side's blocks are
//! in order (numbers ascending, timestamps never going back), so partials
//! serve such *ordered* sides only; a side holding a reorg is streamed.
//!
//! **Lazy build.** A day's partial is built only when a query covers that
//! day wholly, so an edge day is decoded once, by the query that needs it,
//! and never twice. A window that covers no whole day does exactly the
//! scan it would do without partials. Each slot is its own once-cell; no
//! lock spans more than one day's build.
//!
//! The accelerators see the archive as it was when the pool opened, like
//! the sparse index: records appended later are not in any partial.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use fork_analytics::{BlockRecord, MeanCell};
use fork_archive::{ArchiveRecord, SegmentScan};
use fork_replay::{DayStats, Side};
use fork_telemetry::{Counter, HistogramSnapshot, MetricsRegistry};

use crate::error::QueryError;
use crate::lookup::TipHistoryOutput;
use crate::query::{fold_scan, QueryRange, RecordFold, RecordSource};

/// Seconds per UTC day: the bin of every per-day aggregate.
pub(crate) const DAY: u64 = 86_400;

/// Echo stats per day, ETH then ETC, ascending by day.
pub(crate) type EchoDays = [Vec<(u64, DayStats)>; 2];

/// A value built at most once per pool. A failed build is not kept: the
/// next caller retries it.
struct Memo<T> {
    value: OnceLock<T>,
    building: Mutex<()>,
}

impl<T> Memo<T> {
    fn new() -> Self {
        Memo {
            value: OnceLock::new(),
            building: Mutex::new(()),
        }
    }

    /// The value, built by `build` if no caller has built it yet; `true`
    /// when this call built it. Concurrent callers wait for one build.
    fn get_or_build(
        &self,
        build: impl FnOnce() -> Result<T, QueryError>,
    ) -> Result<(&T, bool), QueryError> {
        if let Some(v) = self.value.get() {
            return Ok((v, false));
        }
        let _guard = self.building.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = self.value.get() {
            return Ok((v, false));
        }
        let v = build()?;
        Ok((self.value.get_or_init(|| v), true))
    }
}

/// Inter-arrival fold: the histogram of gaps between consecutive blocks,
/// bucketed like the live `meso.interarrival.*` histograms.
#[derive(Debug, Clone, Default)]
pub(crate) struct Gaps {
    /// Gaps recorded so far, in seconds.
    pub hist: HistogramSnapshot,
    /// Timestamp of the last block folded.
    pub last: Option<u64>,
}

impl Gaps {
    /// Folds the next block's timestamp.
    pub fn push(&mut self, ts: u64) {
        if let Some(prev) = self.last {
            self.hist.record(ts.saturating_sub(prev));
        }
        self.last = Some(ts);
    }

    /// Folds a later day's blocks from its partial: the same histogram as
    /// folding them one by one.
    pub fn extend(&mut self, day: &DayPartial) {
        if let Some(first) = day.first_ts {
            self.push(first);
            self.hist.merge(&day.gaps.hist);
            self.last = day.gaps.last;
        }
    }
}

/// One side's aggregates over one UTC day, folded in write order.
#[derive(Debug, Clone, Default)]
pub(crate) struct DayPartial {
    /// The day's difficulties, folded from `0.0` in write order.
    pub difficulty: MeanCell,
    /// Gaps between the day's consecutive blocks; `last` is the day's last
    /// block timestamp.
    pub gaps: Gaps,
    /// The day's first block timestamp.
    pub first_ts: Option<u64>,
    /// Transactions included this day.
    pub txs: u64,
    /// Smallest and largest block numbers of the day.
    pub numbers: Option<(u64, u64)>,
}

impl RecordFold for DayPartial {
    fn block(&mut self, b: &BlockRecord) {
        self.difficulty.push(b.difficulty.to_f64_lossy());
        self.gaps.push(b.timestamp);
        self.first_ts.get_or_insert(b.timestamp);
        self.numbers = Some(match self.numbers {
            None => (b.number, b.number),
            Some((lo, hi)) => (lo.min(b.number), hi.max(b.number)),
        });
    }

    fn tx(&mut self, _ts: u64) {
        self.txs += 1;
    }
}

/// One stretch of a side's in-range records, in write order.
pub(crate) enum Piece<'a> {
    /// Records streamed over this window (and filtered by the query range).
    Scan(QueryRange),
    /// One whole day served from its partial.
    Day(u64, &'a DayPartial),
}

/// Counts of the accelerators' work on one pool. Always live; mirrored into
/// `query.partials.*` / `query.memo.*` counters once the pool is bound to a
/// registry with [`ReaderPool::with_telemetry`](crate::ReaderPool::with_telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelStats {
    /// Whole days answered from a partial.
    pub days_merged: u64,
    /// Edge days a merging query streamed instead.
    pub days_decoded: u64,
    /// Partials built.
    pub days_built: u64,
    /// Echo replays run.
    pub echoes_built: u64,
    /// Echo queries served from the memo.
    pub echoes_hit: u64,
    /// Tip-history replays run.
    pub tips_built: u64,
    /// Tip-history lookups served from the memo.
    pub tips_hit: u64,
}

const TALLY_NAMES: [&str; 7] = [
    "query.partials.days_merged",
    "query.partials.days_decoded",
    "query.partials.days_built",
    "query.memo.echoes.built",
    "query.memo.echoes.hit",
    "query.memo.tips.built",
    "query.memo.tips.hit",
];
const DAYS_MERGED: usize = 0;
const DAYS_DECODED: usize = 1;
const DAYS_BUILT: usize = 2;
// Each memo's `hit` tally follows its `built` one.
const ECHOES_BUILT: usize = 3;
const TIPS_BUILT: usize = 5;

/// The day slots of one side.
struct SideDays {
    /// The UTC day of the first slot.
    first_day: u64,
    /// One slot per day from the side's first block to its last; empty
    /// when the side is not ordered.
    slots: Vec<Memo<DayPartial>>,
}

impl SideDays {
    /// Slots for the days the side's block-bearing segments span, when its
    /// blocks are in order within and across segments. A side whose blocks
    /// average under one per day gets none: its partials would not pay.
    fn new(segments: &[(std::path::PathBuf, SegmentScan)]) -> SideDays {
        let mut ordered = true;
        let mut blocks = 0u64;
        let mut prev: Option<(u64, u64)> = None;
        let mut span: Option<(u64, u64)> = None;
        for (_, scan) in segments {
            ordered &= scan.ascending;
            let (Some((min_n, max_n)), Some((min_t, max_t))) = (scan.block_range, scan.time_range)
            else {
                continue;
            };
            if let Some((prev_n, prev_t)) = prev {
                ordered &= prev_n < min_n && prev_t <= min_t;
            }
            prev = Some((max_n, max_t));
            blocks += scan.blocks;
            span = Some(span.map_or((min_t, max_t), |(lo, _)| (lo, max_t)));
        }
        let (first_day, days) = match span {
            Some((lo, hi)) if ordered => (lo / DAY, hi / DAY - lo / DAY + 1),
            _ => (0, 0),
        };
        let days = if days > blocks { 0 } else { days };
        SideDays {
            first_day,
            slots: (0..days).map(|_| Memo::new()).collect(),
        }
    }
}

/// Accelerators of one opened archive. See the [module docs](self).
pub(crate) struct Accel {
    days: [SideDays; 2],
    echoes: Memo<EchoDays>,
    tips: Memo<TipHistoryOutput>,
    live: [AtomicU64; 7],
    mirror: [Arc<Counter>; 7],
}

impl std::fmt::Debug for Accel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accel")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

pub(crate) fn side_index(side: Side) -> usize {
    match side {
        Side::Eth => 0,
        Side::Etc => 1,
    }
}

/// The first and last second of `day`.
fn day_span(day: u64) -> (u64, u64) {
    let start = day.saturating_mul(DAY);
    (start, start.saturating_add(DAY - 1))
}

fn time_range((start, end): (u64, u64)) -> QueryRange {
    QueryRange::Time { start, end }
}

/// The first block of `side` numbered at least `number`, read through the
/// sparse index (the side is ordered, so it is the first such block in
/// write order).
fn first_block_from(
    source: &dyn RecordSource,
    side: Side,
    number: u64,
) -> Result<Option<BlockRecord>, QueryError> {
    let range = QueryRange::Blocks {
        first: number,
        last: u64::MAX,
    };
    for item in source.stream(side, &range) {
        if let (_, ArchiveRecord::Block(b)) = item? {
            if b.number >= number {
                return Ok(Some(b));
            }
        }
    }
    Ok(None)
}

impl Accel {
    pub(crate) fn new(reader: &fork_archive::ArchiveReader) -> Accel {
        Accel {
            days: [Side::Eth, Side::Etc].map(|side| SideDays::new(reader.segments(side))),
            echoes: Memo::new(),
            tips: Memo::new(),
            live: Default::default(),
            mirror: std::array::from_fn(|_| Arc::new(Counter::new())),
        }
    }

    /// Mirrors the work counts into `registry`.
    pub(crate) fn bind(&mut self, registry: &MetricsRegistry) {
        self.mirror = TALLY_NAMES.map(|name| registry.counter(name));
    }

    fn add(&self, tally: usize, n: u64) {
        self.live[tally].fetch_add(n, Ordering::Relaxed);
        self.mirror[tally].add(n);
    }

    pub(crate) fn stats(&self) -> AccelStats {
        let [days_merged, days_decoded, days_built, echoes_built, echoes_hit, tips_built, tips_hit] =
            std::array::from_fn(|i| self.live[i].load(Ordering::Relaxed));
        AccelStats {
            days_merged,
            days_decoded,
            days_built,
            echoes_built,
            echoes_hit,
            tips_built,
            tips_hit,
        }
    }

    /// A memoized whole-archive fold: built once, counted as built or hit.
    fn memo<'a, T>(
        &self,
        memo: &'a Memo<T>,
        built_tally: usize,
        build: impl FnOnce() -> Result<T, QueryError>,
    ) -> Result<&'a T, QueryError> {
        let (value, built) = memo.get_or_build(build)?;
        self.add(built_tally + usize::from(!built), 1);
        Ok(value)
    }

    /// The echo stats per (day, side), replayed once by `build`.
    pub(crate) fn echo_days(
        &self,
        build: impl FnOnce() -> Result<EchoDays, QueryError>,
    ) -> Result<&EchoDays, QueryError> {
        self.memo(&self.echoes, ECHOES_BUILT, build)
    }

    /// The tip history, replayed once by `build`.
    pub(crate) fn tips(
        &self,
        build: impl FnOnce() -> Result<TipHistoryOutput, QueryError>,
    ) -> Result<&TipHistoryOutput, QueryError> {
        self.memo(&self.tips, TIPS_BUILT, build)
    }

    /// Splits `side`'s records in `range` into write-ordered pieces: the
    /// days the range covers wholly come from partials (built on first
    /// use), the edges are streamed. A side without slots, or a range
    /// covering no whole day, is one scan of the range.
    pub(crate) fn pieces<'a>(
        &'a self,
        source: &dyn RecordSource,
        side: Side,
        range: &QueryRange,
    ) -> Result<Vec<Piece<'a>>, QueryError> {
        let days = &self.days[side_index(side)];
        let whole = vec![Piece::Scan(*range)];
        let Some(last_slot) = (days.slots.len() as u64).checked_sub(1) else {
            return Ok(whole);
        };
        let (first_slot, last_slot) = (days.first_day, days.first_day + last_slot);
        // Covered days `lo..=hi`, and the time spans streamed before and
        // after them.
        let (lo, hi, before, after) = match *range {
            QueryRange::All | QueryRange::Time { .. } => {
                let (start, end) = match *range {
                    QueryRange::Time { start, end } => (start, end),
                    _ => (0, u64::MAX),
                };
                let Some(hi) = (end.saturating_add(1) / DAY).checked_sub(1) else {
                    return Ok(whole);
                };
                let (lo, hi) = (start.div_ceil(DAY).max(first_slot), hi.min(last_slot));
                if lo > hi {
                    return Ok(whole);
                }
                let next = (hi + 1).saturating_mul(DAY);
                let before = (start < lo * DAY).then_some((start, lo * DAY - 1));
                let after = (end >= next).then_some((next, end));
                (lo, hi, before, after)
            }
            QueryRange::Blocks { first, last } => {
                // On an ordered side, every day strictly between the first
                // in-range block's and the first block past the range's
                // holds only in-range blocks.
                let Some(b) = first_block_from(source, side, first)? else {
                    return Ok(whole);
                };
                if b.number > last {
                    return Ok(whole);
                }
                let low_day = b.timestamp / DAY;
                let past = match last.checked_add(1) {
                    Some(n) => first_block_from(source, side, n)?,
                    None => None,
                };
                let high_day = past.map(|b| b.timestamp / DAY);
                let hi = high_day.map_or(last_slot, |d| d.saturating_sub(1).min(last_slot));
                let lo = low_day + 1;
                if lo > hi {
                    return Ok(whole);
                }
                (lo, hi, Some(day_span(low_day)), high_day.map(day_span))
            }
        };
        let mut pieces = Vec::with_capacity((hi - lo) as usize + 3);
        pieces.extend(before.map(|span| Piece::Scan(time_range(span))));
        for day in lo..=hi {
            let slot = &days.slots[(day - first_slot) as usize];
            let (partial, built) = slot.get_or_build(|| {
                let mut partial = DayPartial::default();
                let window = time_range(day_span(day));
                fold_scan(source, side, &window, &window, &mut partial)?;
                Ok(partial)
            })?;
            self.add(DAYS_BUILT, u64::from(built));
            if let (QueryRange::Blocks { first, last }, Some((min, max))) =
                (*range, partial.numbers)
            {
                if min < first || max > last {
                    // The plan above rules this out; never merge a day the
                    // range does not cover.
                    return Ok(whole);
                }
            }
            pieces.push(Piece::Day(day, partial));
        }
        pieces.extend(after.map(|span| Piece::Scan(time_range(span))));
        // The slot days the streamed spans touch.
        let decoded: u64 = [before, after]
            .into_iter()
            .flatten()
            .map(|(start, end)| {
                let (a, b) = ((start / DAY).max(first_slot), (end / DAY).min(last_slot));
                (b + 1).saturating_sub(a)
            })
            .sum();
        self.add(DAYS_MERGED, hi - lo + 1);
        self.add(DAYS_DECODED, decoded);
        Ok(pieces)
    }
}
