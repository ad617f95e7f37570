//! `explorer-month`: block-explorer visitors arriving independently (an
//! open loop).
//!
//! Seeded, stratified Poisson arrivals (see [`openloop::poisson`]) over
//! `nproc` connections, each request timed from its due time. The mix:
//! BlockByHash 40 %, TxByHash 25 %, BlockByNumber 15 %, a 64-block Headers
//! tail 10 %, and one-day InterArrival/Difficulty 10 %. Keys lean toward
//! recent blocks: nine in ten come from the newest [`HOT_BLOCKS`] blocks
//! and [`HOT_TXS`] transactions of a side (the hot set, which fits in the
//! frame cache), the rest from anywhere in the month. Day windows are the
//! last [`DAYS`] days of each side; the warm-up scans them all, which
//! reads the whole hot set into the cache.
//!
//! One light fixed rate ([`FIXED_RATE_PER_CONN`] per connection, where the
//! daemon's delayed-ACK stall shows) gives the latency metrics; a coarse
//! rate ladder gives the highest rate that meets [`P99_LIMIT_MS`] with no
//! refusals and no growing backlog, and `ops_per_s` is the rate at which
//! that step's requests were answered.

use std::collections::HashMap;
use std::time::Instant;

use fork_archive::{ArchiveReader, ArchiveRecord};
use fork_primitives::H256;
use fork_query::{Lookup, Projection, Query, QueryExecutor, QueryRange, ReaderPool};
use fork_replay::Side;
use fork_serve::{encode_request, Request, RequestBody};
use fork_telemetry::json::Value;
use fork_telemetry::Snapshot;

use crate::daemon::{self, Daemon};
use crate::openloop::{self, Limits, Outcome, Planned};
use crate::stats::{hist_delta, median, percentile, Rng};
use crate::wire::{self, Conn, Reply};
use crate::{data, ensure, Ctx, Gate, Report};

/// Newest blocks per side that make up the hot key set.
pub const HOT_BLOCKS: usize = 4_096;
/// Newest transactions per side in the hot key set.
pub const HOT_TXS: usize = 2_048;
/// Share of keys drawn from the hot set.
const HOT_SHARE: f64 = 0.9;
/// Newest days per side that day-window queries cover.
pub const DAYS: u64 = 7;
/// Blocks in a Headers tail.
const HEADERS_LEN: u64 = 64;
/// The light fixed rate, per connection (requests per second). Above the
/// rate of the 40 ms delayed-ACK timeout (25/s), so most replies stall
/// until the connection's next request and the median follows the offered
/// gap mix: at 20/s the median fell where stalls cut short and replies that
/// did not stall thin out, and moved by 0.18 (quartile distance over
/// median) over ten seeds; at 10/s most replies did not stall at all.
pub const FIXED_RATE_PER_CONN: f64 = 40.0;
/// Total rates of the ladder (requests per second over all connections).
pub const LADDER: [f64; 4] = [50.0, 200.0, 800.0, 3_200.0];
/// A ladder step passes when its p99 stays within this limit.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Share of the run spent at the fixed rate; the ladder gets the rest.
const FIXED_SHARE: f64 = 0.75;
/// Per-connection in-flight guard, below the daemon's cap of 64.
const MAX_IN_FLIGHT: usize = 48;

/// Per-side key material read from the archive before set-up.
struct SideKeys {
    side: Side,
    /// (hash, number) of every block, in archive order.
    blocks: Vec<(H256, u64)>,
    txs: Vec<H256>,
    /// Newest block timestamp.
    last_time: u64,
}

fn side_keys(reader: &ArchiveReader, side: Side) -> Gate<SideKeys> {
    let mut keys = SideKeys {
        side,
        blocks: Vec::new(),
        txs: Vec::new(),
        last_time: 0,
    };
    for item in reader.records(side) {
        match item.map_err(|e| format!("scan {side:?}: {e}"))?.1 {
            ArchiveRecord::Block(b) => {
                keys.last_time = keys.last_time.max(b.timestamp);
                keys.blocks.push((b.hash, b.number));
            }
            ArchiveRecord::Tx(t) => keys.txs.push(t.hash),
        }
    }
    ensure!(
        keys.blocks.len() > HOT_BLOCKS && keys.txs.len() > HOT_TXS,
        "{side:?} has too few records for the hot set"
    );
    Ok(keys)
}

/// Distinct request bodies, deduplicated by their encoding.
#[derive(Default)]
struct Bodies {
    list: Vec<RequestBody>,
    index: HashMap<Vec<u8>, usize>,
}

impl Bodies {
    fn add(&mut self, body: RequestBody) -> usize {
        let key = encode_request(&Request {
            id: 0,
            body: body.clone(),
        });
        *self.index.entry(key).or_insert_with(|| {
            self.list.push(body);
            self.list.len() - 1
        })
    }
}

fn day_window(keys: &SideKeys, day: u64) -> QueryRange {
    let end = keys.last_time - day * 86_400;
    QueryRange::Time {
        start: end - 86_399,
        end,
    }
}

fn lookup(l: Lookup) -> RequestBody {
    RequestBody::Lookup(l)
}

/// Draws one request of the mix.
fn draw(rng: &mut Rng, sides: &[SideKeys; 2], bodies: &mut Bodies) -> usize {
    let keys = &sides[rng.below(2)];
    let hot = rng.unit() < HOT_SHARE;
    let pick = |rng: &mut Rng, len: usize, hot_len: usize| {
        if hot {
            len - 1 - rng.below(hot_len)
        } else {
            rng.below(len)
        }
    };
    let roll = rng.below(100);
    let body = match roll {
        0..=39 => {
            let (hash, _) = keys.blocks[pick(rng, keys.blocks.len(), HOT_BLOCKS)];
            lookup(Lookup::BlockByHash { hash })
        }
        40..=64 => {
            let hash = keys.txs[pick(rng, keys.txs.len(), HOT_TXS)];
            lookup(Lookup::TxByHash { hash })
        }
        65..=79 => {
            let (_, number) = keys.blocks[pick(rng, keys.blocks.len(), HOT_BLOCKS)];
            lookup(Lookup::BlockByNumber {
                side: keys.side,
                number,
            })
        }
        80..=89 => {
            let (_, last) = keys.blocks[pick(rng, keys.blocks.len(), HOT_BLOCKS)];
            let last = last.max(HEADERS_LEN);
            lookup(Lookup::Headers {
                side: keys.side,
                first: last + 1 - HEADERS_LEN,
                last,
            })
        }
        _ => RequestBody::Query(Query {
            side: Some(keys.side),
            range: day_window(keys, rng.below(DAYS as usize) as u64),
            projection: if roll < 95 {
                Projection::InterArrival
            } else {
                Projection::Difficulty
            },
        }),
    };
    bodies.add(body)
}

/// What the warm-up reads: every day window (whose scans cover the hot
/// blocks and transactions) and one of each point lookup per side.
fn warm_set(sides: &[SideKeys; 2], bodies: &mut Bodies) -> Vec<usize> {
    let mut out = Vec::new();
    for keys in sides {
        for day in 0..DAYS {
            for projection in [Projection::InterArrival, Projection::Difficulty] {
                out.push(bodies.add(RequestBody::Query(Query {
                    side: Some(keys.side),
                    range: day_window(keys, day),
                    projection,
                })));
            }
        }
        let &(hash, number) = keys.blocks.last().expect("checked non-empty");
        let tx = *keys.txs.last().expect("checked non-empty");
        for l in [
            Lookup::BlockByHash { hash },
            Lookup::TxByHash { hash: tx },
            Lookup::BlockByNumber {
                side: keys.side,
                number,
            },
            Lookup::Headers {
                side: keys.side,
                first: number.max(HEADERS_LEN) + 1 - HEADERS_LEN,
                last: number.max(HEADERS_LEN),
            },
        ] {
            out.push(bodies.add(lookup(l)));
        }
    }
    out
}

/// Sends `items` over the connections, `depth` in flight on each, and
/// returns every (body, reply).
fn warm_up(
    conns: &mut [Conn],
    bodies: &[RequestBody],
    items: &[usize],
) -> Gate<Vec<(usize, Reply)>> {
    const DEPTH: usize = 16;
    let c = conns.len();
    let results: Vec<Gate<Vec<(usize, Reply)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                s.spawn(move || {
                    let mine: Vec<usize> = items.iter().skip(k).step_by(c).copied().collect();
                    let mut pending = HashMap::new();
                    let mut out = Vec::with_capacity(mine.len());
                    let mut next = 0;
                    while out.len() < mine.len() {
                        while next < mine.len() && pending.len() < DEPTH {
                            pending.insert(conn.send(bodies[mine[next]].clone())?, mine[next]);
                            next += 1;
                        }
                        let (id, reply) = conn.recv()?;
                        let body = pending
                            .remove(&id)
                            .ok_or_else(|| format!("reply for unknown request id {id}"))?;
                        out.push((body, reply));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Open-loop plans, one per connection, at `rate` requests per second in
/// total for `duration_s`.
fn plans(
    ctx: &Ctx,
    stream: u64,
    rate: f64,
    duration_s: f64,
    sides: &[SideKeys; 2],
    bodies: &mut Bodies,
) -> Vec<Vec<Planned>> {
    (0..ctx.nproc as u64)
        .map(|k| {
            let mut rng = Rng::new(ctx.seed, (stream << 8) | k);
            openloop::poisson(&mut rng, rate / ctx.nproc as f64, duration_s, |r| {
                draw(r, sides, bodies)
            })
        })
        .collect()
}

/// Latency and health of one open-loop phase.
struct PhaseStats {
    rate: f64,
    /// Due-to-reply latencies of answered requests, ms.
    latencies: Vec<f64>,
    /// Generator lateness of sent requests, ms.
    lags: Vec<f64>,
    refused: u64,
    /// Sent but never answered.
    unanswered: u64,
    /// Never sent: the in-flight guard stopped the connection.
    unsent: u64,
    /// Requests due but unanswered when the arrivals ended.
    backlog_end: u64,
    /// Seconds from the start of the phase to its last reply.
    last_reply_s: f64,
}

impl PhaseStats {
    fn new(rate: f64, outcomes: &[Outcome]) -> PhaseStats {
        let end = outcomes.iter().map(|o| o.due_s).fold(0.0, f64::max);
        let mut s = PhaseStats {
            rate,
            latencies: Vec::new(),
            lags: Vec::new(),
            refused: 0,
            unanswered: 0,
            unsent: 0,
            backlog_end: 0,
            last_reply_s: outcomes.iter().filter_map(|o| o.done_s).fold(0.0, f64::max),
        };
        for o in outcomes {
            if let Some(lag) = o.lag_ms() {
                s.lags.push(lag);
            }
            match (&o.reply, o.sent_s) {
                (_, None) => s.unsent += 1,
                (None, Some(_)) => s.unanswered += 1,
                (Some(Reply::Refused(_)), _) => s.refused += 1,
                (Some(_), _) => s.latencies.push(o.latency_ms().expect("answered")),
            }
            if o.done_s.is_none_or(|d| d > end) {
                s.backlog_end += 1;
            }
        }
        s
    }

    /// Answered requests per second, up to the phase's last reply.
    fn answered_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.last_reply_s
    }

    fn failed(&self) -> u64 {
        self.refused + self.unanswered + self.unsent
    }

    /// p99 counting every failed request as missing the limit.
    fn p99_with_failures(&self) -> f64 {
        let mut v = self.latencies.clone();
        v.extend(std::iter::repeat_n(f64::INFINITY, self.failed() as usize));
        percentile(&v, 99.0)
    }

    /// More requests in flight at the end than the latency limit allows at
    /// this rate (Little's law), plus one per connection.
    fn backlog_grew(&self, conns: usize) -> bool {
        self.backlog_end as f64 > self.rate * P99_LIMIT_MS / 1e3 + conns as f64
    }

    fn passes(&self, conns: usize) -> bool {
        self.failed() == 0 && self.p99_with_failures() <= P99_LIMIT_MS && !self.backlog_grew(conns)
    }

    fn stamp(&self, conns: usize) -> Value {
        Value::Obj(vec![
            ("rate".into(), Value::Num(self.rate)),
            (
                "requests".into(),
                Value::Num((self.latencies.len() as u64 + self.failed()) as f64),
            ),
            ("p50_ms".into(), Value::Num(median(&self.latencies))),
            ("p99_ms".into(), Value::Num(self.p99_with_failures())),
            (
                "gen_lag_p99_ms".into(),
                Value::Num(percentile(&self.lags, 99.0)),
            ),
            ("backlog_end".into(), Value::Num(self.backlog_end as f64)),
            ("failed".into(), Value::Num(self.failed() as f64)),
            ("passed".into(), Value::Bool(self.passes(conns))),
        ])
    }
}

/// The served part of a run.
struct Served {
    setup_s: f64,
    warm: Vec<(usize, Reply)>,
    fixed: Vec<Outcome>,
    ladder: Vec<(f64, Vec<Outcome>)>,
    /// Daemon snapshots: before the fixed phase, after it, at the end.
    stats: Option<[Snapshot; 3]>,
}

fn serve(
    ctx: &Ctx,
    dir: &std::path::Path,
    tracing: bool,
    bodies: &[RequestBody],
    warm: &[usize],
    fixed: &[Vec<Planned>],
    ladder: &[(f64, Vec<Vec<Planned>>)],
) -> Gate<Served> {
    let touch = bodies[*warm.last().expect("warm set is non-empty")].clone();
    let (Daemon { handle, addr }, cold_s) = daemon::start_cold(dir, tracing, |addr| {
        match wire::connect_retry(addr)?.call(touch.clone())? {
            Reply::Answer(_) => Ok(()),
            other => Err(format!("first lookup answered with {other:?}")),
        }
    })?;
    let mut conns = (0..ctx.nproc)
        .map(|_| Conn::connect(&addr))
        .collect::<Gate<Vec<_>>>()?;
    let t = Instant::now();
    let warm = ctx.tracer.span("explorer.warmup", None, |_| {
        warm_up(&mut conns, bodies, warm)
    })?;
    let setup_s = cold_s + t.elapsed().as_secs_f64();
    let limits = Limits {
        max_in_flight: MAX_IN_FLIGHT,
        drain_s: 2.0,
    };
    let snap = |on: bool| {
        if on {
            wire::stats(&addr).map(Some)
        } else {
            Ok(None)
        }
    };
    let s0 = snap(tracing)?;
    let fixed = openloop::drive(
        &mut conns,
        fixed,
        bodies,
        limits,
        &ctx.tracer,
        "explorer.fixed",
    )?;
    let s1 = snap(tracing)?;
    let mut steps = Vec::new();
    let mut passed_any = false;
    for (rate, plan) in ladder {
        let out = openloop::drive(
            &mut conns,
            plan,
            bodies,
            limits,
            &ctx.tracer,
            "explorer.step",
        )?;
        let ok = PhaseStats::new(*rate, &out).passes(conns.len());
        steps.push((*rate, out));
        if !ok && passed_any {
            break;
        }
        passed_any |= ok;
    }
    let s2 = snap(tracing)?;
    drop(conns);
    handle.shutdown();
    Ok(Served {
        setup_s,
        warm,
        fixed,
        ladder: steps,
        stats: match (s0, s1, s2) {
            (Some(a), Some(b), Some(c)) => Some([a, b, c]),
            _ => None,
        },
    })
}

/// Checks every served answer and returns the operations attempted and
/// failed: the warm-up and fixed-rate requests, where a shed, unsent or
/// unanswered request is a failure. Ladder steps past capacity are meant to
/// shed; their failures show per step in the stamp and in
/// `explorer_max_qps`, and only their answers are checked here.
fn check(served: &Served, expected: &[u64], bodies: &[RequestBody]) -> Gate<(u64, u64)> {
    let warm = served.warm.iter().map(|(b, r)| (*b, Some(r)));
    let fixed = served.fixed.iter().map(|o| (o.body, o.reply.as_ref()));
    let shed = wire::check_replies(warm.chain(fixed), expected, bodies)?;
    let lost = served.fixed.iter().filter(|o| o.reply.is_none()).count() as u64;
    let ladder = served
        .ladder
        .iter()
        .flat_map(|(_, out)| out)
        .map(|o| (o.body, o.reply.as_ref()));
    wire::check_replies(ladder, expected, bodies)?;
    Ok(((served.warm.len() + served.fixed.len()) as u64, shed + lost))
}

pub fn run(ctx: &Ctx) -> Gate<Report> {
    let pristine = data::month_archive(&ctx.data)?;
    let dir = ctx.work.join("archive");
    data::fresh_copy(&pristine, &dir)?;

    // Inputs, before the set-up clock starts: keys and arrival schedules.
    let (sides, fingerprint) = {
        let reader = ArchiveReader::open(&dir).map_err(|e| format!("open archive: {e}"))?;
        let sides = [
            side_keys(&reader, Side::Eth)?,
            side_keys(&reader, Side::Etc)?,
        ];
        (sides, fork_archive::archive_fingerprint(&reader))
    };
    let mut bodies = Bodies::default();
    let warm = warm_set(&sides, &mut bodies);
    let fixed_s = ctx.seconds * FIXED_SHARE;
    let step_s = ctx.seconds * (1.0 - FIXED_SHARE) / LADDER.len() as f64;
    let fixed_rate = FIXED_RATE_PER_CONN * ctx.nproc as f64;
    let fixed = plans(ctx, 1, fixed_rate, fixed_s, &sides, &mut bodies);
    let ladder: Vec<(f64, Vec<Vec<Planned>>)> = LADDER
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            (
                rate,
                plans(ctx, 10 + i as u64, rate, step_s, &sides, &mut bodies),
            )
        })
        .collect();
    let bodies = bodies.list;

    // Peak memory of the served part: the month archive build (on a cache
    // miss) and the in-process answers below are left out.
    crate::stats::reset_peak_rss();
    let untraced = serve(ctx, &dir, false, &bodies, &warm, &fixed, &ladder)?;
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let traced = if ctx.trace {
        Some(serve(ctx, &dir, true, &bodies, &warm, &fixed, &ladder)?)
    } else {
        None
    };
    let stored_mb = data::dir_bytes(&dir) as f64 / 1e6;

    // In-process answers: the warm set first, then the fixed phase's
    // requests in arrival order (timed, for the per-layer lookup costs and
    // the cache counters on this access pattern), then everything else.
    let pool = ReaderPool::open(&dir).map_err(|e| format!("open archive: {e}"))?;
    let exec = QueryExecutor::new(1);
    let mut expected: Vec<Option<u64>> = vec![None; bodies.len()];
    for &b in &warm {
        expected[b] = Some(wire::answer(&exec, &pool, &bodies[b])?);
    }
    let cache_before = pool.cache().stats();
    let mut arrivals: Vec<Planned> = fixed.iter().flatten().copied().collect();
    arrivals.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let mut cost_us: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for p in &arrivals {
        let t = Instant::now();
        let d = wire::answer(&exec, &pool, &bodies[p.body])?;
        cost_us
            .entry(wire::endpoint_label(&bodies[p.body]))
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e6);
        expected[p.body] = Some(d);
    }
    let cache = pool.cache().stats();
    for (b, e) in expected.iter_mut().enumerate() {
        if e.is_none() {
            *e = Some(wire::answer(&exec, &pool, &bodies[b])?);
        }
    }
    let expected: Vec<u64> = expected.into_iter().map(|e| e.expect("filled")).collect();

    // Fixed sample against the naive scans: one of each point lookup, and
    // one day window.
    let naive = ArchiveReader::open(&dir).map_err(|e| format!("open archive: {e}"))?;
    let mut seen = Vec::new();
    for (b, body) in bodies.iter().enumerate() {
        let label = wire::endpoint_label(body);
        if label == "headers" || label == "difficulty" || seen.contains(&label) {
            continue;
        }
        seen.push(label);
        let want = wire::naive_answer(&naive, body)?;
        ensure!(
            want == expected[b],
            "indexed and naive answers differ for {body:?}"
        );
    }

    let mut report = Report::default();
    let c = ctx.nproc;
    let fixed_stats = PhaseStats::new(fixed_rate, &untraced.fixed);
    let steps: Vec<PhaseStats> = untraced
        .ladder
        .iter()
        .map(|(rate, out)| PhaseStats::new(*rate, out))
        .collect();
    let Some(top) = steps.iter().rfind(|s| s.passes(c)) else {
        return Err(format!(
            "no ladder step met the {P99_LIMIT_MS} ms p99 limit"
        ));
    };
    let (mut attempted, mut failed) = check(&untraced, &expected, &bodies)?;

    report.e2e("setup_s", untraced.setup_s, "s");
    report.e2e("peak_rss_mb", peak_rss_mb, "MB");
    report.e2e("ops_per_s", top.answered_per_s(), "1/s");
    report.e2e("op_p50_ms", median(&fixed_stats.latencies), "ms");
    report.ungated("explorer_p99_ms", fixed_stats.p99_with_failures(), "ms");
    report.ungated("explorer_max_qps", top.rate, "1/s");
    report.ungated("stored_mb", stored_mb, "MB");
    report.note(
        "archive_blocks",
        Value::Num(sides.iter().map(|s| s.blocks.len()).sum::<usize>() as f64),
    );
    report.note(
        "archive_txs",
        Value::Num(sides.iter().map(|s| s.txs.len()).sum::<usize>() as f64),
    );
    report.note(
        "archive_bytes",
        Value::Num(data::dir_bytes(&pristine) as f64),
    );
    report.note(
        "archive_fingerprint",
        Value::Str(format!("{:08x}", u32::from_le_bytes(fingerprint))),
    );
    report.note("explorer_connections", Value::Num(c as f64));
    report.note(
        "explorer_hot_blocks_per_side",
        Value::Num(HOT_BLOCKS as f64),
    );
    report.note("explorer_hot_txs_per_side", Value::Num(HOT_TXS as f64));
    report.note("explorer_hot_share", Value::Num(HOT_SHARE));
    report.note("explorer_day_windows_per_side", Value::Num(DAYS as f64));
    report.note(
        "explorer_distinct_requests",
        Value::Num(bodies.len() as f64),
    );
    report.note("explorer_warmup_requests", Value::Num(warm.len() as f64));
    report.note("explorer_p99_limit_ms", Value::Num(P99_LIMIT_MS));
    report.note(
        "explorer_ladder_rates",
        Value::Arr(LADDER.iter().map(|&r| Value::Num(r)).collect()),
    );
    report.note("explorer_fixed", fixed_stats.stamp(c));
    report.note(
        "explorer_fixed_samples_beyond_p99",
        Value::Num(crate::stats::beyond(&fixed_stats.latencies, 99.0) as f64),
    );
    report.note(
        "explorer_ladder",
        Value::Arr(steps.iter().map(|s| s.stamp(c)).collect()),
    );

    if let Some(traced) = traced {
        let (a, f) = check(&traced, &expected, &bodies)?;
        attempted += a;
        failed += f;
        let tf = PhaseStats::new(fixed_rate, &traced.fixed);
        report.layer(
            "bench.tracing_overhead",
            median(&tf.latencies) / median(&fixed_stats.latencies),
            "x",
        );
        report.layer("bench.gen_lag_p99_ms", percentile(&tf.lags, 99.0), "ms");
        for label in ["block_by_hash", "tx_by_hash", "block_by_number", "headers"] {
            let v = cost_us.get(label).cloned().unwrap_or_default();
            report.layer(&format!("query.lookup_us.{label}"), median(&v), "us");
        }
        for label in ["interarrival", "difficulty"] {
            let v = cost_us.get(label).cloned().unwrap_or_default();
            report.layer(&format!("query.exec_ms.{label}"), median(&v) / 1e3, "ms");
        }
        let hits = cache.hits - cache_before.hits;
        let misses = cache.misses - cache_before.misses;
        report.layer(
            "query.cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "share",
        );
        report.layer(
            "query.cache.misses_per_query",
            misses as f64 / arrivals.len().max(1) as f64,
            "count",
        );
        report.layer(
            "query.cache.evictions",
            (cache.evictions - cache_before.evictions) as f64,
            "count",
        );
        data::archive_layers(&pristine, &ctx.work.join("layers"), &mut report)?;
        report.layer("archive.stored_mb", stored_mb, "MB");
        if let Some([s0, s1, s2]) = &traced.stats {
            let hist = |name: &str| {
                let empty = fork_telemetry::HistogramSnapshot::default();
                hist_delta(
                    s1.histograms.get(name).unwrap_or(&empty),
                    s0.histograms.get(name).unwrap_or(&empty),
                )
            };
            for stage in fork_serve::STAGES {
                let h = hist(&format!("serve.stage.{stage}"));
                report.layer(&format!("serve.stage.{stage}.p50_us"), h.p50() as f64, "us");
                report.layer(&format!("serve.stage.{stage}.p99_us"), h.p99() as f64, "us");
            }
            let total = hist("serve.stage.total");
            report.layer(
                "serve.wire_gap_p50_ms",
                median(&tf.latencies) - total.p50() as f64 / 1e3,
                "ms",
            );
            let counter = |s: &Snapshot, name: &str| s.counters.get(name).copied().unwrap_or(0);
            for kind in ["backpressure", "overloaded"] {
                let name = format!("serve.rejected.{kind}");
                report.layer(
                    &name,
                    (counter(s2, &name) - counter(s0, &name)) as f64,
                    "count",
                );
            }
        }
    }
    report.attempted = attempted;
    report.failed = failed;
    Ok(report)
}
