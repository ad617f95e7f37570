//! Exactness of the reader pool's per-day partials: over a multi-segment
//! archive whose days straddle segment boundaries, every aggregate query —
//! aligned and unaligned time windows, block-number ranges — must answer
//! byte-identically to the naive full scan, on a fresh pool (partials built
//! by the query itself) and on a warm one (partials reused). Difficulties
//! are large, uneven values so that any change in the order of the `f64`
//! additions shows in the means.

use std::path::{Path, PathBuf};

use stick_a_fork::analytics::{BlockRecord, TxRecord};
use stick_a_fork::archive::{ArchiveConfig, ArchiveReader, ArchiveWriter, Codec};
use stick_a_fork::primitives::{Address, H256, U256};
use stick_a_fork::query::{Projection, Query, QueryExecutor, QueryRange, ReaderPool};
use stick_a_fork::replay::Side;
use stick_a_fork::sim::LedgerSink;

const DAY: u64 = 86_400;
/// The fixture's first block timestamp: mid-day, so day 0 is partial.
const T0: u64 = 1_469_000_000;
const DAYS: u64 = 6;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fork-partials-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// SplitMix64: a tiny deterministic generator for fixture and ranges.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Two sides over ~6 days: ETH every ~15 min, ETC every ~40 min, some
/// blocks sharing a second with their predecessor, 0–3 txs per block, and
/// 8 KiB segments so that most days span two or more segments.
fn fixture(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let mut writer = ArchiveWriter::create_with(
        &dir,
        ArchiveConfig {
            segment_max_bytes: 8 * 1024,
            codec: Codec::Delta,
        },
    )
    .unwrap();
    let mut rng = Rng(2016);
    let mut next = [(0u64, T0), (0u64, T0 + 300)];
    let mut tx_n = 0u64;
    let end = T0 + DAYS * DAY;
    loop {
        // Write the side whose next block comes first, as the live sink would.
        let i = if next[0].1 <= next[1].1 { 0 } else { 1 };
        let (number, ts) = next[i];
        if ts > end {
            break;
        }
        let side = [Side::Eth, Side::Etc][i];
        let txs = rng.below(4) as u32;
        writer.block(BlockRecord {
            network: side,
            number,
            hash: H256([(number % 251) as u8 ^ (i as u8 * 0x80); 32]),
            timestamp: ts,
            difficulty: U256::from_u128(
                (rng.next() >> 4) as u128 * 1_000_003 + rng.below(1 << 20) as u128,
            ),
            beneficiary: Address([(number % 31) as u8; 20]),
            gas_used: 21_000 * txs as u64,
            tx_count: txs,
            ommer_count: 0,
        });
        for _ in 0..txs {
            writer.tx(TxRecord {
                network: side,
                // A small hash space so the same tx lands on both sides.
                hash: H256([(tx_n % 97) as u8; 32]),
                timestamp: ts,
                is_contract: tx_n.is_multiple_of(2),
                has_chain_id: tx_n.is_multiple_of(3),
                value: U256::from_u64(tx_n * 1_000_000_007),
            });
            tx_n += 1;
        }
        let spacing = [900, 2_400][i];
        let gap = if rng.below(10) == 0 {
            0 // same second as the previous block
        } else {
            1 + rng.below(2 * spacing)
        };
        next[i] = (number + 1, ts + gap);
    }
    writer.finish(None).unwrap();
    dir
}

fn open(dir: &Path) -> ReaderPool {
    ReaderPool::open(dir).unwrap()
}

/// Aligned and unaligned time windows plus block ranges, drawn from `rng`.
fn ranges(rng: &mut Rng) -> Vec<QueryRange> {
    let first_day = T0 / DAY;
    let mut out = vec![QueryRange::All];
    for _ in 0..12 {
        // Whole days, some reaching past either end of the archive.
        let d = first_day + rng.below(DAYS + 2);
        let k = 1 + rng.below(4);
        out.push(QueryRange::Time {
            start: (d - rng.below(2)) * DAY,
            end: (d + k) * DAY - 1,
        });
        let start = T0 - DAY / 2 + rng.below((DAYS + 1) * DAY);
        out.push(QueryRange::Time {
            start,
            end: start + rng.below(3 * DAY),
        });
        let first = rng.below(700);
        out.push(QueryRange::Blocks {
            first,
            last: first + rng.below(400),
        });
    }
    out
}

fn queries(ranges: &[QueryRange]) -> Vec<Query> {
    let mut out = Vec::new();
    for &range in ranges {
        for side in [Side::Eth, Side::Etc] {
            for projection in [
                Projection::Blocks,
                Projection::InterArrival,
                Projection::Difficulty,
            ] {
                out.push(Query {
                    side: Some(side),
                    range,
                    projection,
                });
            }
            if !matches!(range, QueryRange::Blocks { .. }) {
                for projection in [Projection::Txs, Projection::Echoes { window_days: 2 }] {
                    out.push(Query {
                        side: Some(side),
                        range,
                        projection,
                    });
                }
            }
        }
        if !matches!(range, QueryRange::Blocks { .. }) {
            out.push(Query {
                side: None,
                range,
                projection: Projection::TxRatioPerDay,
            });
        }
    }
    out
}

#[test]
fn fixture_days_straddle_segment_boundaries() {
    let dir = fixture("straddle");
    let reader = ArchiveReader::open(&dir).unwrap();
    for side in [Side::Eth, Side::Etc] {
        let segments = reader.segments(side);
        assert!(segments.len() >= 3, "{side:?}: {} segments", segments.len());
        let straddled = segments
            .windows(2)
            .filter(|w| match (w[0].1.time_range, w[1].1.time_range) {
                (Some((_, prev)), Some((next, _))) => prev / DAY == next / DAY,
                _ => false,
            })
            .count();
        assert!(straddled > 0, "{side:?}: no day crosses a segment boundary");
        assert!(segments.iter().all(|(_, s)| s.ascending));
    }
}

#[test]
fn partials_match_naive_cold_and_warm() {
    let dir = fixture("exact");
    let reader = ArchiveReader::open(&dir).unwrap();
    let exec = QueryExecutor::new(2);
    let mut rng = Rng(7);
    let queries = queries(&ranges(&mut rng));
    let naive: Vec<_> = queries
        .iter()
        .map(|q| QueryExecutor::run_naive(&reader, q).unwrap())
        .collect();

    // Cold: a fresh pool per query, so the query builds what it merges.
    // Both time windows and block ranges must merge some days.
    let mut merged = [0u64; 2];
    for (q, want) in queries.iter().zip(&naive) {
        let pool = open(&dir);
        assert_eq!(&exec.run(&pool, q).unwrap(), want, "cold: {q:?}");
        let by_blocks = matches!(q.range, QueryRange::Blocks { .. });
        merged[usize::from(by_blocks)] += pool.accel_stats().days_merged;
    }
    assert!(merged.iter().all(|&n| n > 0), "merged days {merged:?}");

    // Warm: one pool, every query twice, in both orders.
    let pool = open(&dir);
    for pass in 0..2 {
        for (q, want) in queries.iter().zip(&naive) {
            assert_eq!(&exec.run(&pool, q).unwrap(), want, "warm {pass}: {q:?}");
        }
        for (q, want) in queries.iter().zip(&naive).rev() {
            assert_eq!(&exec.run(&pool, q).unwrap(), want, "warm {pass} rev: {q:?}");
        }
    }
    let batch = exec.run_batch(&open(&dir), &queries);
    for ((q, got), want) in queries.iter().zip(batch).zip(&naive) {
        assert_eq!(&got.unwrap(), want, "batch: {q:?}");
    }
}

#[test]
fn unaligned_one_day_window_builds_no_partials() {
    let dir = fixture("unaligned");
    let reader = ArchiveReader::open(&dir).unwrap();
    let exec = QueryExecutor::new(1);
    for hour in [1, 7, 23] {
        let start = (T0 / DAY + 2) * DAY + hour * 3_600;
        let range = QueryRange::Time {
            start,
            end: start + DAY - 1,
        };
        let pool = open(&dir);
        for q in queries(&[range]) {
            assert_eq!(
                exec.run(&pool, &q).unwrap(),
                QueryExecutor::run_naive(&reader, &q).unwrap(),
                "{q:?}"
            );
        }
        let stats = pool.accel_stats();
        assert_eq!(stats.days_built, 0, "hour {hour}: {stats:?}");
        assert_eq!(stats.days_merged, 0, "hour {hour}: {stats:?}");
    }
}
