//! `research-month`: an analyst re-querying the month, waiting for every
//! answer (a closed loop).
//!
//! One connection sends the serving research mix (`workload_queries(meta)`)
//! plus `Lookup::TipHistory`, in a shuffled order per pass. Set-up is
//! the daemon's cold start and one untimed warm-up pass of the mix, dealt
//! over `nproc` connections. The timed part is whole passes, so every run
//! times the same mix composition. Every served answer is checked against
//! the in-process `QueryExecutor` answer, and a fixed sample against the
//! naive scans.
//!
//! One timed connection, not `nproc`: with two on a shared 2-vCPU machine
//! the second connection's share of a core follows the neighbours' load,
//! and the latency percentiles moved by a quarter or more between runs of
//! the same code. The daemon's worker pool keeps its default size.
//!
//! The pass orders are shuffled by a fixed seed, not the workload seed: a
//! query's latency follows the frame-cache state the queries before it
//! left, and with an order per workload seed the median latency moved by
//! 0.20 (quartile distance over median) over ten seeds while the
//! throughput moved by 0.065. So `--seed` does not change this workload.

use std::time::Instant;

use fork_query::{Lookup, Projection, QueryExecutor, ReaderPool};
use fork_serve::{workload_queries, RequestBody, ResponseBody};

use fork_telemetry::json::Value;

use crate::daemon::{self, Daemon};
use crate::stats::{beyond, hist_delta, median, percentile, Rng};
use crate::wire::{self, Conn, Reply};
use crate::{data, ensure, Ctx, Gate, Report};

/// Seconds one timed pass of the mix takes on a 2-vCPU machine; sets the
/// pass count, so every run times whole passes.
const NOMINAL_PASS_S: f64 = 20.0;

/// One served request: which mix item, its latency, and the reply.
struct Sample {
    item: usize,
    ms: f64,
    reply: Reply,
}

/// The served part of a run.
struct Served {
    setup_s: f64,
    samples: Vec<Sample>,
    wall_s: f64,
    passes: usize,
    /// Daemon stage histograms over the timed passes (traced daemons only).
    stages: Option<fork_telemetry::Snapshot>,
}

/// Sends `order` (indices into `mix`) one at a time, each after the
/// previous reply.
fn closed_loop(
    ctx: &Ctx,
    conn: &mut Conn,
    mix: &[RequestBody],
    order: &[usize],
    parent: Option<u64>,
) -> Gate<Vec<Sample>> {
    let mut out = Vec::with_capacity(order.len());
    for &i in order {
        let t = Instant::now();
        let id = conn.send(mix[i].clone())?;
        let (got, reply) = conn.recv()?;
        let end = Instant::now();
        ensure!(got == id, "reply id {got} for request {id}");
        ctx.tracer
            .record("client.request", parent, Some(id), t, end);
        out.push(Sample {
            item: i,
            ms: (end - t).as_secs_f64() * 1e3,
            reply,
        });
    }
    Ok(out)
}

/// The warm-up pass: the mix once, dealt round-robin over `nproc`
/// connections so set-up stays short.
fn warm_up(ctx: &Ctx, addr: &str, mix: &[RequestBody], span: Option<u64>) -> Gate<Vec<Sample>> {
    let c = ctx.nproc;
    let results: Vec<Gate<Vec<Sample>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..c)
            .map(|k| {
                s.spawn(move || {
                    let order: Vec<usize> = (k..mix.len()).step_by(c).collect();
                    closed_loop(ctx, &mut Conn::connect(addr)?, mix, &order, span)
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

fn serve_mix(ctx: &Ctx, dir: &std::path::Path, mix: &[RequestBody], tracing: bool) -> Gate<Served> {
    let (Daemon { handle, addr }, cold_s) = daemon::start_cold(dir, tracing, |addr| {
        let mut conn = wire::connect_retry(addr)?;
        match conn.call(RequestBody::Ping)? {
            Reply::Control(ResponseBody::Pong) => Ok(()),
            other => Err(format!("Ping answered with {other:?}")),
        }
    })?;
    let t = Instant::now();
    let warm = ctx.tracer.span("research.warmup", None, |span| {
        warm_up(ctx, &addr, mix, span)
    })?;
    let setup_s = cold_s + t.elapsed().as_secs_f64();
    let mut conn = Conn::connect(&addr)?;
    let all: Vec<usize> = (0..mix.len()).collect();

    let passes = ((ctx.seconds / NOMINAL_PASS_S).round() as usize).max(1);
    let before = if tracing {
        Some(wire::stats(&addr)?)
    } else {
        None
    };
    let mut samples = Vec::new();
    let t = Instant::now();
    for pass in 0..passes {
        let mut order = all.clone();
        Rng::new(data::ARCHIVE_SEED, pass as u64).shuffle(&mut order);
        samples.extend(ctx.tracer.span("research.pass", None, |span| {
            closed_loop(ctx, &mut conn, mix, &order, span)
        })?);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let stages = match before {
        Some(before) => {
            let mut d = wire::stats(&addr)?;
            for (name, h) in d.histograms.iter_mut() {
                if let Some(b) = before.histograms.get(name) {
                    *h = hist_delta(h, b);
                }
            }
            Some(d)
        }
        None => None,
    };
    drop(conn);
    handle.shutdown();
    // Warm-up answers are checked too.
    samples.extend(warm.into_iter().map(|mut s| {
        s.ms = f64::NAN;
        s
    }));
    Ok(Served {
        setup_s,
        samples,
        wall_s,
        passes,
        stages,
    })
}

/// Checks every served answer; returns how many were shed.
fn check(samples: &[Sample], expected: &[u64], mix: &[RequestBody]) -> Gate<u64> {
    wire::check_replies(
        samples.iter().map(|s| (s.item, Some(&s.reply))),
        expected,
        mix,
    )
}

pub fn run(ctx: &Ctx) -> Gate<Report> {
    let pristine = data::month_archive(&ctx.data)?;
    let dir = ctx.work.join("archive");
    data::fresh_copy(&pristine, &dir)?;

    let meta = {
        let pool = ReaderPool::open(&dir).map_err(|e| format!("open archive: {e}"))?;
        fork_serve::archive_meta(&pool)
    };
    let mut mix: Vec<RequestBody> = workload_queries(&meta)
        .into_iter()
        .map(RequestBody::Query)
        .collect();
    mix.push(RequestBody::Lookup(Lookup::TipHistory));

    let mut report = Report::default();
    // Peak memory of the served part: the month archive build (on a cache
    // miss) and the in-process answers below are left out.
    crate::stats::reset_peak_rss();
    let untraced = serve_mix(ctx, &dir, &mix, false)?;
    let peak_rss_mb = crate::stats::peak_rss_mb();
    let traced = if ctx.trace {
        Some(serve_mix(ctx, &dir, &mix, true)?)
    } else {
        None
    };
    let stored_mb = data::dir_bytes(&dir) as f64 / 1e6;

    // In-process answers for every request, one by one (timed per layer on
    // a traced run). The archive never changes, so an untraced run reuses
    // the answers cached next to it.
    let pool = ReaderPool::open(&dir).map_err(|e| format!("open archive: {e}"))?;
    let exec = QueryExecutor::new(ctx.nproc);
    let mut exec_ms: Vec<(&'static str, f64)> = Vec::new();
    let cached = if ctx.trace {
        None
    } else {
        data::cached_answers(&ctx.data, "research", &mix)
    };
    let expected = match cached {
        Some(expected) => expected,
        None => {
            let mut expected = Vec::with_capacity(mix.len());
            for body in &mix {
                let t = Instant::now();
                expected.push(wire::answer(&exec, &pool, body)?);
                exec_ms.push((wire::endpoint_label(body), t.elapsed().as_secs_f64() * 1e3));
            }
            data::cache_answers(&ctx.data, "research", &mix, &expected)?;
            expected
        }
    };
    let cache = pool.cache().stats();

    // Fixed sample against the naive scans: the windowed difficulty
    // queries and the tip history.
    let naive = fork_archive::ArchiveReader::open(&dir).map_err(|e| format!("open: {e}"))?;
    for (i, body) in mix.iter().enumerate() {
        let sampled = match body {
            RequestBody::Query(q) => {
                q.projection == Projection::Difficulty
                    && matches!(q.range, fork_query::QueryRange::Blocks { .. })
            }
            _ => true,
        };
        if sampled {
            ensure!(
                wire::naive_answer(&naive, body)? == expected[i],
                "indexed and naive answers differ for {body:?}"
            );
        }
    }

    let mut refused = check(&untraced.samples, &expected, &mix)?;
    let lat: Vec<f64> = untraced
        .samples
        .iter()
        .filter(|s| s.ms.is_finite() && matches!(s.reply, Reply::Answer(_)))
        .map(|s| s.ms)
        .collect();
    report.attempted = untraced.samples.len() as u64;
    report.e2e("setup_s", untraced.setup_s, "s");
    report.e2e("peak_rss_mb", peak_rss_mb, "MB");
    report.e2e("ops_per_s", lat.len() as f64 / untraced.wall_s, "1/s");
    report.e2e("op_p50_ms", median(&lat), "ms");
    report.ungated("research_p90_ms", percentile(&lat, 90.0), "ms");
    report.ungated("stored_mb", stored_mb, "MB");
    report.note("research_samples", Value::Num(lat.len() as f64));
    let mut by_item: Vec<(String, Value)> = Vec::new();
    for (i, item) in mix.iter().enumerate() {
        let v: Vec<f64> = untraced
            .samples
            .iter()
            .filter(|s| s.item == i && s.ms.is_finite())
            .map(|s| s.ms)
            .collect();
        by_item.push((format!("{item:?}"), Value::Num(median(&v))));
    }
    report.note("research_median_ms_by_request", Value::Obj(by_item));
    report.note(
        "research_p90_samples_beyond",
        Value::Num(beyond(&lat, 90.0) as f64),
    );
    report.note("research_passes", Value::Num(untraced.passes as f64));
    report.note("research_connections", Value::Num(1.0));
    report.note("research_mix", Value::Num(mix.len() as f64));
    report.note("archive_blocks", Value::Num(meta.blocks as f64));
    report.note("archive_txs", Value::Num(meta.txs as f64));
    report.note(
        "archive_bytes",
        Value::Num(data::dir_bytes(&pristine) as f64),
    );
    report.note(
        "archive_fingerprint",
        Value::Str(format!("{:08x}", meta.checksum)),
    );

    if let Some(traced) = traced {
        refused += check(&traced.samples, &expected, &mix)?;
        report.attempted += traced.samples.len() as u64;
        let traced_n = traced.samples.iter().filter(|s| s.ms.is_finite()).count();
        let traced_qps = traced_n as f64 / traced.wall_s;
        let untraced_qps = lat.len() as f64 / untraced.wall_s;
        report.layer("bench.tracing_overhead", untraced_qps / traced_qps, "x");
        let mean_ms = |label: &str| {
            let v: Vec<f64> = exec_ms
                .iter()
                .filter(|(l, _)| *l == label)
                .map(|(_, ms)| *ms)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        for label in [
            "blocks",
            "txs",
            "interarrival",
            "difficulty",
            "tx_ratio",
            "echoes",
        ] {
            report.layer(&format!("query.exec_ms.{label}"), mean_ms(label), "ms");
        }
        report.layer(
            "query.lookup_us.tip_history",
            mean_ms("tip_history") * 1e3,
            "us",
        );
        data::archive_layers(&pristine, &ctx.work.join("layers"), &mut report)?;
        crate::ingest::layers(ctx, &pristine, &mut report)?;
        report.layer("archive.stored_mb", stored_mb, "MB");
        report.layer("query.cache.hit_rate", cache.hit_rate(), "share");
        report.layer(
            "query.cache.misses_per_query",
            cache.misses as f64 / mix.len() as f64,
            "count",
        );
        report.layer("query.cache.evictions", cache.evictions as f64, "count");
        if let Some(stages) = &traced.stages {
            for stage in ["queue", "execute"] {
                let h = stages
                    .histograms
                    .get(&format!("serve.stage.{stage}"))
                    .cloned()
                    .unwrap_or_default();
                report.layer(&format!("serve.stage.{stage}.p50_us"), h.p50() as f64, "us");
                report.layer(&format!("serve.stage.{stage}.p99_us"), h.p99() as f64, "us");
            }
        }
    }
    report.failed = refused;
    Ok(report)
}
