//! # fork-query
//!
//! A concurrent, cached query engine over [`fork_archive`] archives.
//!
//! The paper's methodology is *archive then re-analyze*: every figure is a
//! query over the exported database, not over live simulator state. This
//! crate makes that re-analysis cheap for **many consumers at once**:
//!
//! - [`ReaderPool`] opens an archive once (the expensive header scan that
//!   builds sparse block-number/timestamp indexes) and hands out any number
//!   of independent cursors sharing the immutable index — no per-consumer
//!   re-scan, no cross-consumer positions.
//! - [`FrameCache`] is a sharded, byte-budgeted LRU of decoded frames.
//!   Concurrent scans over overlapping ranges hit memory instead of disk;
//!   hit/miss/eviction counts are visible via [`CacheStats`] and, when
//!   bound to a registry, the `query.cache.{hit,miss}` counters.
//! - [`Query`] is the typed surface: a side, a [`QueryRange`] (all /
//!   block-number / time window), and a [`Projection`] — raw blocks or txs,
//!   or one of the paper's aggregates (inter-arrival histogram, daily
//!   difficulty, ETH:ETC tx ratio, echo counts per window) computed from
//!   the archive without re-running the simulation.
//! - Per-day partials and memoized folds: a pool replays the cross-side
//!   echo detector and the tip history once, and folds each (side, UTC
//!   day) into a partial the first time a query covers that day wholly.
//!   Per-day aggregates then merge partials and decode only edge days;
//!   [`AccelStats`] and the `query.partials.*` / `query.memo.*` counters
//!   show the work.
//! - [`QueryExecutor`] runs batches across a worker pool with
//!   deterministic, input-ordered results and a `query.latency` histogram.
//!
//! ## Determinism
//!
//! Pooled, cached, multi-threaded evaluation returns **byte-identical**
//! results to a naive single-threaded scan ([`QueryExecutor::run_naive`]).
//! This holds by construction, not by tolerance: one evaluation function
//! runs over an abstract record source, sources yield the same per-side
//! record sequence in write order, the cache only short-circuits I/O
//! (hits return the same decoded frames a read would), and aggregate folds
//! reuse the live pipeline's own cells (`fork_analytics::aggregate`) and
//! the telemetry histogram's own bucketing (`fork_telemetry::bucket_index`)
//! in the same per-side order.
//! A merged partial is exact for the same reason: it is the fold of its
//! whole day, in write order, that a scan would make into that day's bin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod exec;
pub mod lookup;
mod partials;
pub mod pool;
pub mod query;

pub use cache::{take_thread_cache_delta, CacheStats, FrameCache};
pub use error::QueryError;
pub use exec::QueryExecutor;
pub use lookup::{
    FoundRecord, HeaderChain, Lookup, LookupOutput, ReorgEvent, SealedHeader, SideTip,
    TipHistoryOutput,
};
pub use partials::AccelStats;
pub use pool::{PoolStream, ReaderPool, DEFAULT_CACHE_BYTES, DEFAULT_CACHE_SHARDS};
pub use query::{Projection, Query, QueryOutput, QueryRange};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use fork_analytics::{BlockRecord, Pipeline, TxRecord};
    use fork_archive::{ArchiveConfig, ArchiveReader, ArchiveWriter, Codec};
    use fork_primitives::{Address, H256, U256};
    use fork_replay::Side;
    use fork_sim::LedgerSink;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("fork-query-test-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn block(side: Side, number: u64) -> BlockRecord {
        BlockRecord {
            network: side,
            number,
            hash: H256([(number % 251) as u8; 32]),
            timestamp: 1_469_000_000 + number * 900, // ~96 blocks/day
            difficulty: U256::from_u128(62_000_000_000_000 + number as u128 * 7),
            beneficiary: Address([(number % 31) as u8; 20]),
            gas_used: 21_000 + number,
            tx_count: (number % 5) as u32,
            ommer_count: (number % 3) as u32,
        }
    }

    fn tx(side: Side, n: u64, ts: u64) -> TxRecord {
        TxRecord {
            network: side,
            // Small hash space so cross-side echoes actually occur.
            hash: H256([(n % 61) as u8; 32]),
            timestamp: ts,
            is_contract: n.is_multiple_of(2),
            has_chain_id: n.is_multiple_of(3),
            value: U256::from_u64(n * 1_000_000_007),
        }
    }

    /// Small two-sided archive: 120 blocks per side across several
    /// segments, a few txs per block.
    fn fixture(tag: &str) -> PathBuf {
        let dir = scratch(tag);
        let mut writer = ArchiveWriter::create_with(
            &dir,
            ArchiveConfig {
                segment_max_bytes: 4 * 1024,
                codec: Codec::Delta,
            },
        )
        .unwrap();
        let mut tx_n = 0u64;
        for number in 0..120 {
            for side in [Side::Eth, Side::Etc] {
                let b = block(side, number);
                let ts = b.timestamp;
                writer.block(b.clone());
                for _ in 0..b.tx_count {
                    writer.tx(tx(side, tx_n, ts));
                    tx_n += 1;
                }
            }
        }
        writer.finish(None).unwrap();
        dir
    }

    fn all_queries() -> Vec<Query> {
        let time = QueryRange::Time {
            start: 1_469_000_000 + 20 * 900,
            end: 1_469_000_000 + 80 * 900,
        };
        let blocks = QueryRange::Blocks {
            first: 30,
            last: 90,
        };
        let mut queries = Vec::new();
        for side in [Side::Eth, Side::Etc] {
            for range in [QueryRange::All, blocks, time] {
                for projection in [
                    Projection::Blocks,
                    Projection::InterArrival,
                    Projection::Difficulty,
                ] {
                    queries.push(Query {
                        side: Some(side),
                        range,
                        projection,
                    });
                }
            }
            for range in [QueryRange::All, time] {
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection: Projection::Txs,
                });
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection: Projection::Echoes { window_days: 1 },
                });
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection: Projection::Echoes { window_days: 7 },
                });
            }
        }
        for range in [QueryRange::All, time] {
            queries.push(Query {
                side: None,
                range,
                projection: Projection::TxRatioPerDay,
            });
        }
        queries
    }

    #[test]
    fn pooled_scan_equals_reader_scan() {
        let dir = fixture("pooled-scan");
        let pool = ReaderPool::open(&dir).unwrap();
        for side in [Side::Eth, Side::Etc] {
            let pooled: Vec<_> = pool.records(side).map(Result::unwrap).collect();
            let direct: Vec<_> = pool.reader().records(side).map(Result::unwrap).collect();
            assert_eq!(pooled, direct);
        }
    }

    #[test]
    fn executor_matches_naive_for_every_projection() {
        let dir = fixture("exec-vs-naive");
        let pool = ReaderPool::open(&dir).unwrap();
        let naive_reader = ArchiveReader::open(&dir).unwrap();
        let exec = QueryExecutor::new(8);
        let queries = all_queries();
        let pooled = exec.run_batch(&pool, &queries);
        assert_eq!(pooled.len(), queries.len());
        for (q, result) in queries.iter().zip(pooled) {
            let fast = result.unwrap_or_else(|e| panic!("pooled {q:?}: {e}"));
            let slow = QueryExecutor::run_naive(&naive_reader, q).unwrap();
            assert_eq!(fast, slow, "pooled != naive for {q:?}");
        }
    }

    #[test]
    fn full_range_aggregates_match_live_pipeline() {
        let dir = fixture("vs-pipeline");
        let pool = ReaderPool::open(&dir).unwrap();
        let mut pipeline = Pipeline::new();
        pool.reader().replay_into(&mut pipeline).unwrap();
        let exec = QueryExecutor::new(2);
        for side in [Side::Eth, Side::Etc] {
            let q = Query {
                side: Some(side),
                range: QueryRange::All,
                projection: Projection::Difficulty,
            };
            assert_eq!(
                exec.run(&pool, &q).unwrap(),
                QueryOutput::Series(pipeline.daily_difficulty(side)),
                "daily difficulty must be bit-identical to the live pipeline"
            );
            let q = Query {
                side: Some(side),
                range: QueryRange::All,
                projection: Projection::Echoes { window_days: 1 },
            };
            assert_eq!(
                exec.run(&pool, &q).unwrap(),
                QueryOutput::Series(pipeline.echoes_per_day(side)),
                "1-day echo windows must equal the pipeline's echoes_per_day"
            );
        }
    }

    #[test]
    fn repeated_batch_hits_the_cache() {
        let dir = fixture("cache-hits");
        let pool = ReaderPool::open(&dir).unwrap();
        let exec = QueryExecutor::new(4);
        let queries = all_queries();
        exec.run_batch(&pool, &queries);
        let cold = pool.cache().stats();
        exec.run_batch(&pool, &queries);
        let warm = pool.cache().stats();
        assert!(warm.hits > cold.hits, "second pass must hit the cache");
        assert!(
            warm.hit_rate() > 0.5,
            "repeated batch should be mostly cache hits, got {:.3}",
            warm.hit_rate()
        );
        // The fixture fits in the default budget, so the second pass should
        // add no misses at all.
        assert_eq!(warm.misses, cold.misses);
    }

    #[test]
    fn latency_histogram_records_when_telemetry_enabled() {
        let dir = fixture("latency");
        let registry = fork_telemetry::MetricsRegistry::new();
        let pool = ReaderPool::new(
            ArchiveReader::open(&dir).unwrap(),
            FrameCache::new(DEFAULT_CACHE_BYTES, 4).with_telemetry(&registry),
        );
        let exec = QueryExecutor::new(2).with_telemetry(&registry);
        let queries = all_queries();
        let n = queries.len() as u64;
        exec.run_batch(&pool, &queries);
        // Whether the graph compiled telemetry in depends on feature
        // unification (the workspace root enables it; a `-p fork-query`
        // build does not), so accept either the live count or the no-op
        // zero — never anything in between.
        let lat = exec.latency_snapshot();
        assert!(
            lat.count == n || lat.count == 0,
            "one latency sample per query (or none when compiled out), got {}",
            lat.count
        );
        // Cache stats are live regardless of the telemetry feature.
        assert!(pool.cache().stats().misses > 0);
    }

    #[test]
    fn invalid_queries_fail_without_touching_disk() {
        let dir = fixture("invalid");
        let pool = ReaderPool::open(&dir).unwrap();
        let exec = QueryExecutor::new(2);
        let bad = Query {
            side: Some(Side::Eth),
            range: QueryRange::Blocks { first: 0, last: 5 },
            projection: Projection::Txs,
        };
        assert!(matches!(
            exec.run(&pool, &bad),
            Err(QueryError::Unsupported { .. })
        ));
        assert_eq!(pool.cache().stats().misses, 0, "no I/O for invalid queries");
    }

    fn all_lookups() -> Vec<Lookup> {
        let mut lookups = vec![
            // Absent hashes: 255 is outside both fixture hash spaces.
            Lookup::BlockByHash {
                hash: H256([255u8; 32]),
            },
            Lookup::TxByHash {
                hash: H256([255u8; 32]),
            },
            Lookup::TipHistory,
        ];
        for n in [0u64, 7, 60, 119] {
            lookups.push(Lookup::BlockByHash {
                hash: H256([(n % 251) as u8; 32]),
            });
        }
        for n in [0u64, 5, 42, 60] {
            lookups.push(Lookup::TxByHash {
                hash: H256([(n % 61) as u8; 32]),
            });
        }
        for side in [Side::Eth, Side::Etc] {
            for number in [0u64, 63, 119, 500] {
                lookups.push(Lookup::BlockByNumber { side, number });
            }
            lookups.push(Lookup::Headers {
                side,
                first: 10,
                last: 30,
            });
            // Range running past the archived tip: served as far as it goes.
            lookups.push(Lookup::Headers {
                side,
                first: 115,
                last: 200,
            });
        }
        lookups
    }

    #[test]
    fn indexed_lookups_match_naive_scan() {
        let dir = fixture("lookup-naive");
        let reader = ArchiveReader::open(&dir).unwrap();
        let pool = ReaderPool::open(&dir).unwrap();
        let exec = QueryExecutor::new(2);
        // Two passes: the first builds and persists the sidecar and fills
        // the cache, the second is served from both.
        for pass in ["cold", "warm"] {
            for lookup in all_lookups() {
                let indexed = exec.run_lookup(&pool, &lookup).unwrap();
                let naive = QueryExecutor::run_lookup_naive(&reader, &lookup).unwrap();
                assert_eq!(indexed, naive, "{pass}: {lookup:?}");
            }
        }
    }

    #[test]
    fn duplicate_hashes_resolve_to_the_earliest_seq() {
        // Every block number's hash repeats on both sides; the fixture
        // writes ETH before ETC per number, so ETH holds the smaller seq
        // and must win the merged-order tie.
        let dir = fixture("lookup-dup");
        let pool = ReaderPool::open(&dir).unwrap();
        for n in [0u64, 50, 119] {
            let hash = H256([(n % 251) as u8; 32]);
            let out = pool.lookup(&Lookup::BlockByHash { hash }).unwrap();
            let LookupOutput::Found(Some(found)) = out else {
                panic!("block {n} should be found");
            };
            assert_eq!(found.side, Side::Eth);
            match found.record {
                fork_archive::ArchiveRecord::Block(b) => assert_eq!(b.number, n),
                other => panic!("expected a block, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_chain_verifies_with_checksums_alone() {
        let dir = fixture("lookup-headers");
        let pool = ReaderPool::open(&dir).unwrap();
        let out = pool
            .lookup(&Lookup::Headers {
                side: Side::Etc,
                first: 10,
                last: 30,
            })
            .unwrap();
        let LookupOutput::Headers(chain) = out else {
            panic!("headers output expected");
        };
        let blocks = chain.verify().unwrap();
        assert_eq!(blocks.len(), 21);
        assert_eq!(blocks.first().unwrap().number, 10);
        assert_eq!(blocks.last().unwrap().number, 30);
        // A single flipped payload byte fails the frame checksum.
        let mut tampered = chain.clone();
        tampered.headers[5].payload[0] ^= 0x01;
        assert!(tampered.verify().is_err());
        // So does a checksum-consistent header smuggled in from the wrong
        // position (chain order check).
        let mut shuffled = chain.clone();
        shuffled.headers.swap(2, 3);
        assert!(shuffled.verify().is_err());
    }

    /// ETH writes blocks 0..=9, then switches to a competing branch: a new
    /// block numbered 7 displaces 7..=9 (depth 3), then the branch extends
    /// to 12 — so ETH's numbers and timestamps go back mid-stream. ETC
    /// writes 0..=4. Every block carries one tx.
    fn reorg_fixture(tag: &str, segment_max_bytes: u64) -> PathBuf {
        let dir = scratch(tag);
        let mut writer = ArchiveWriter::create_with(
            &dir,
            ArchiveConfig {
                segment_max_bytes,
                codec: Codec::Raw,
            },
        )
        .unwrap();
        let mut write = |b: BlockRecord| {
            let (side, n, ts) = (b.network, b.number, b.timestamp);
            writer.block(b);
            writer.tx(tx(side, n, ts));
        };
        for number in 0..10 {
            write(block(Side::Eth, number));
        }
        for number in 7..13 {
            let mut b = block(Side::Eth, number);
            b.hash = H256([0xA0 ^ number as u8; 32]);
            write(b);
        }
        for number in 0..5 {
            write(block(Side::Etc, number));
        }
        writer.finish(None).unwrap();
        dir
    }

    #[test]
    fn tip_history_reports_reorgs() {
        let dir = reorg_fixture("lookup-reorg", 4 * 1024);
        let pool = ReaderPool::open(&dir).unwrap();
        let out = pool.lookup(&Lookup::TipHistory).unwrap();
        let LookupOutput::Tips(tips) = out else {
            panic!("tips output expected");
        };
        assert_eq!(tips.eth.blocks, 16);
        assert_eq!(tips.eth.reorgs, 1);
        assert_eq!(tips.eth.tip.as_ref().unwrap().number, 12);
        assert_eq!(tips.etc.blocks, 5);
        assert_eq!(tips.etc.reorgs, 0);
        assert_eq!(tips.etc.tip.as_ref().unwrap().number, 4);
        assert_eq!(tips.reorgs.len(), 1);
        let ev = tips.reorgs[0];
        assert_eq!(ev.side, Side::Eth);
        assert_eq!(ev.number, 7);
        assert_eq!(ev.depth, 3);

        // The indexed path and the naive reference agree on reorgs too.
        let reader = ArchiveReader::open(&dir).unwrap();
        let naive = QueryExecutor::run_lookup_naive(&reader, &Lookup::TipHistory).unwrap();
        assert_eq!(LookupOutput::Tips(tips), naive);
    }

    #[test]
    fn reorg_archive_pooled_matches_naive() {
        // One segment holding the reorg, then segments so small the reorg
        // crosses segment boundaries.
        for segment_bytes in [4 * 1024, 300] {
            let dir = reorg_fixture(&format!("reorg-naive-{segment_bytes}"), segment_bytes);
            let reader = ArchiveReader::open(&dir).unwrap();
            let pool = ReaderPool::open(&dir).unwrap();
            let exec = QueryExecutor::new(2);
            let (t5, t8) = (block(Side::Eth, 5).timestamp, block(Side::Eth, 8).timestamp);
            let blocks = QueryRange::Blocks { first: 5, last: 8 };
            let time = QueryRange::Time { start: t5, end: t8 };
            let mut queries = Vec::new();
            for side in [Side::Eth, Side::Etc] {
                for range in [QueryRange::All, blocks, time] {
                    for projection in [
                        Projection::Blocks,
                        Projection::InterArrival,
                        Projection::Difficulty,
                    ] {
                        queries.push(Query {
                            side: Some(side),
                            range,
                            projection,
                        });
                    }
                }
                for range in [QueryRange::All, time] {
                    for projection in [Projection::Txs, Projection::Echoes { window_days: 1 }] {
                        queries.push(Query {
                            side: Some(side),
                            range,
                            projection,
                        });
                    }
                }
            }
            for range in [QueryRange::All, time] {
                queries.push(Query {
                    side: None,
                    range,
                    projection: Projection::TxRatioPerDay,
                });
            }
            let mut lookups = Vec::new();
            for side in [Side::Eth, Side::Etc] {
                for number in 0..14 {
                    lookups.push(Lookup::BlockByNumber { side, number });
                }
                lookups.push(Lookup::Headers {
                    side,
                    first: 5,
                    last: 8,
                });
                lookups.push(Lookup::Headers {
                    side,
                    first: 0,
                    last: 12,
                });
            }
            for pass in ["cold", "warm"] {
                for q in &queries {
                    let pooled = exec.run(&pool, q).unwrap();
                    let naive = QueryExecutor::run_naive(&reader, q).unwrap();
                    assert_eq!(pooled, naive, "{segment_bytes} B, {pass}: {q:?}");
                }
                for lookup in &lookups {
                    let indexed = exec.run_lookup(&pool, lookup).unwrap();
                    let naive = QueryExecutor::run_lookup_naive(&reader, lookup).unwrap();
                    assert_eq!(indexed, naive, "{segment_bytes} B, {pass}: {lookup:?}");
                }
            }
            // The direct reader's bounded scans agree with a filtered full scan.
            let all: Vec<_> = reader.records(Side::Eth).map(Result::unwrap).collect();
            let in_blocks: Vec<_> = reader
                .blocks_in(Side::Eth, 5, 8)
                .map(Result::unwrap)
                .collect();
            let want: Vec<_> = all
                .iter()
                .filter_map(|(_, r)| match r {
                    fork_archive::ArchiveRecord::Block(b) if (5..=8).contains(&b.number) => {
                        Some(b.clone())
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(in_blocks, want, "{segment_bytes} B: blocks_in");
            let in_time: Vec<_> = reader
                .records_in_time_range(Side::Eth, t5, t8)
                .map(Result::unwrap)
                .collect();
            let want: Vec<_> = all
                .into_iter()
                .filter(|(_, r)| (t5..=t8).contains(&r.timestamp()))
                .collect();
            assert_eq!(in_time, want, "{segment_bytes} B: records_in_time_range");
        }
    }

    #[test]
    fn repeated_full_range_difficulty_merges_partials_without_cache_misses() {
        let dir = fixture("partials-counters");
        let registry = fork_telemetry::MetricsRegistry::new();
        let pool = ReaderPool::open(&dir).unwrap().with_telemetry(&registry);
        let exec = QueryExecutor::new(1);
        let q = Query {
            side: Some(Side::Eth),
            range: QueryRange::All,
            projection: Projection::Difficulty,
        };
        let first = exec.run(&pool, &q).unwrap();
        let cold = pool.cache().stats();
        let built = pool.accel_stats();
        assert!(built.days_built > 0, "the first query builds partials");
        let second = exec.run(&pool, &q).unwrap();
        assert_eq!(first, second);
        let warm = pool.accel_stats();
        assert!(warm.days_merged > built.days_merged, "{warm:?}");
        assert_eq!(warm.days_built, built.days_built, "built once");
        assert_eq!(pool.cache().stats().misses, cold.misses);

        // Memos: the second ask of each is a hit.
        for _ in 0..2 {
            pool.lookup(&Lookup::TipHistory).unwrap();
            exec.run(
                &pool,
                &Query {
                    side: Some(Side::Etc),
                    range: QueryRange::All,
                    projection: Projection::Echoes { window_days: 7 },
                },
            )
            .unwrap();
        }
        let s = pool.accel_stats();
        assert_eq!((s.tips_built, s.tips_hit), (1, 1));
        assert_eq!((s.echoes_built, s.echoes_hit), (1, 1));
        // With telemetry compiled in, the registry mirrors the counts.
        let merged = registry.counter("query.partials.days_merged").get();
        assert!(merged == s.days_merged || merged == 0);
    }
}
