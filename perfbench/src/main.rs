//! Paper-scale benchmark of the stick-a-fork stack.
//!
//! Two workloads drive every layer from outside, through the crates'
//! public APIs only:
//!
//! * `research-month` — a closed loop: one connection sends the serving
//!   research mix plus `TipHistory` in a seed-shuffled order to an
//!   in-process daemon and waits for every reply. Full-scan aggregates
//!   dominate and the decoded working set is larger than the frame cache,
//!   so the query and archive read layers do most of the work. A traced
//!   run also times the write path (see [`ingest`]): the month's ledger
//!   stream written into a fresh `ArchiveWriter`, verified and replayed,
//!   and the meso engine that makes the stream.
//! * `explorer-month` — an open loop: seeded Poisson arrivals of point
//!   lookups (recent-leaning keys, so the hot set fits in the cache) over
//!   `nproc` connections, timed from each request's due time, at one light
//!   fixed rate and up a coarse rate ladder. Each request executes in
//!   microseconds, so framing, sockets and queueing dominate.
//!
//! Every workload checks its outputs; a failed check, or any operation that
//! failed or was refused, fails the run, so `error_share` is 0 on every
//! correct result. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). Every workload reports the same metrics,
//! [`END_TO_END`] and [`PER_LAYER`], so runs of any two commits compare
//! metric by metric. `run.py` builds this binary and passes the data
//! directory.

mod daemon;
mod data;
mod explorer;
mod ingest;
mod openloop;
mod research;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::time::Instant;

use fork_telemetry::json::Value;

use crate::trace::Tracer;

/// The end-to-end metrics, with their units, that every workload reports
/// from its untraced run. An operation is the workload's unit of work: one
/// research query, one explorer request at the fixed rate.
pub const END_TO_END: [(&str, &str); 4] = [
    // Start of the workload to its first timed operation.
    ("setup_s", "s"),
    // Peak resident memory of the timed part.
    ("peak_rss_mb", "MB"),
    // Work done per second of the timed part: queries answered, requests
    // answered on the highest ladder step that met the p99 limit.
    ("ops_per_s", "1/s"),
    // Median wall time of one operation.
    ("op_p50_ms", "ms"),
];

/// The per-layer metrics, with their units, that every traced run reports.
/// A layer the workload does not reach did no work and was never busy, so
/// its metrics read 0 there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("env.parallel_speedup", "x"),
    ("bench.tracing_overhead", "x"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("sim.meso.run_s", "s"),
    ("sim.meso.sim_days_per_s", "1/s"),
    ("archive.write_s", "s"),
    ("archive.write_mb_per_s", "MB/s"),
    ("archive.bytes_written", "bytes"),
    ("archive.stored_mb", "MB"),
    ("archive.verify_ms", "ms"),
    ("core.replay_s", "s"),
    ("archive.open_ms", "ms"),
    ("archive.sidecar_build_ms", "ms"),
    ("archive.sidecar_mb", "MB"),
    ("query.exec_ms.blocks", "ms"),
    ("query.exec_ms.txs", "ms"),
    ("query.exec_ms.interarrival", "ms"),
    ("query.exec_ms.difficulty", "ms"),
    ("query.exec_ms.tx_ratio", "ms"),
    ("query.exec_ms.echoes", "ms"),
    ("query.lookup_us.block_by_hash", "us"),
    ("query.lookup_us.tx_by_hash", "us"),
    ("query.lookup_us.block_by_number", "us"),
    ("query.lookup_us.headers", "us"),
    ("query.lookup_us.tip_history", "us"),
    ("query.cache.hit_rate", "share"),
    ("query.cache.misses_per_query", "count"),
    ("query.cache.evictions", "count"),
    ("serve.stage.read.p50_us", "us"),
    ("serve.stage.read.p99_us", "us"),
    ("serve.stage.admit.p50_us", "us"),
    ("serve.stage.admit.p99_us", "us"),
    ("serve.stage.queue.p50_us", "us"),
    ("serve.stage.queue.p99_us", "us"),
    ("serve.stage.execute.p50_us", "us"),
    ("serve.stage.execute.p99_us", "us"),
    ("serve.stage.write.p50_us", "us"),
    ("serve.stage.write.p99_us", "us"),
    ("serve.wire_gap_p50_ms", "ms"),
    ("serve.rejected.backpressure", "count"),
    ("serve.rejected.overloaded", "count"),
];

/// A failed correctness gate, with the reason.
pub type Gate<T> = Result<T, String>;

/// Returns `Err(reason)` from the enclosing gate when `cond` is false.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($msg:tt)*) => {
        if !$cond {
            return Err(format!($($msg)*));
        }
    };
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: requests, and on a traced research run the
    /// archive writes and the meso run.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed with every run but not in the result's metrics: figures too
    /// unsteady on a shared machine to gate a change on.
    pub ungated: Vec<Metric>,
    /// Workload facts for the environment stamp (sizes, rates, counts).
    pub stamp: Vec<(String, Value)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn ungated(&mut self, name: &str, value: f64, unit: &'static str) {
        self.ungated.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.stamp.push((key.into(), value));
    }
}

/// Run-wide settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: per-layer spans plus daemon stage tracing.
    pub trace: bool,
    /// Cache directory for the month archive (keyed by the binary).
    pub data: PathBuf,
    /// Scratch directory for this run; removed at exit.
    pub work: PathBuf,
    pub nproc: usize,
    pub tracer: Tracer,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
    spans: Option<PathBuf>,
    git_rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2016,
        seconds: 20.0,
        trace: false,
        data: PathBuf::from(".bench_build/perfbench-data"),
        spans: None,
        git_rev: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--data" => args.data = PathBuf::from(value()?),
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--git-rev" => args.git_rev = value()?,
            "--rustc" => args.rustc = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// `metrics` in the order of `manifest`, each checked against its name and
/// unit there. A metric missing from `metrics` is an error, or reads 0 when
/// `missing_reads_zero` (a layer the workload does not reach).
fn in_manifest_order(
    metrics: &[Metric],
    manifest: &[(&str, &'static str)],
    missing_reads_zero: bool,
) -> Result<Vec<Metric>, String> {
    for m in metrics {
        match manifest.iter().find(|(name, _)| *name == m.name) {
            None => return Err(format!("metric {} is not in the manifest", m.name)),
            Some((_, unit)) if *unit != m.unit => {
                return Err(format!("metric {} in {}, not {unit}", m.name, m.unit))
            }
            Some(_) => {}
        }
    }
    manifest
        .iter()
        .map(
            |&(name, unit)| match metrics.iter().find(|m| m.name == name) {
                Some(m) => Ok(Metric {
                    name: name.into(),
                    value: m.value,
                    unit,
                }),
                None if missing_reads_zero => Ok(Metric {
                    name: name.into(),
                    value: 0.0,
                    unit,
                }),
                None => Err(format!("the workload did not report {name}")),
            },
        )
        .collect()
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), metrics),
    ])
    .to_json()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let parallel_speedup = stats::parallel_speedup(nproc);
    let work = args.data.join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        data: args.data.clone(),
        work: work.clone(),
        nproc,
        tracer: Tracer::new(args.trace),
    };
    let started = Instant::now();
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| match args.workload.as_str() {
            "research-month" => research::run(&ctx),
            "explorer-month" => explorer::run(&ctx),
            other => Err(format!("unknown workload {other}")),
        });
    let _ = std::fs::remove_dir_all(&work);
    let fail = |reason: String, attempted: u64, failed: u64| -> ! {
        eprintln!("perfbench: {}: check failed: {reason}", args.workload);
        let stamp = vec![
            ("workload".to_string(), Value::Str(args.workload.clone())),
            ("seed".into(), Value::Num(args.seed as f64)),
        ];
        println!(
            "{}",
            Value::Obj(vec![("stamp".into(), Value::Obj(stamp))]).to_json()
        );
        println!(
            "{}",
            result_line(false, attempted, failed, Value::Obj(Vec::new()))
        );
        std::process::exit(1);
    };
    let mut report = outcome.unwrap_or_else(|reason| fail(reason, 1, 1));
    if report.failed > 0 {
        fail(
            format!(
                "{} of {} operations failed or were refused",
                report.failed, report.attempted
            ),
            report.attempted,
            report.failed,
        );
    }
    report.layer("env.parallel_speedup", parallel_speedup, "x");
    let error_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.ungated("error_share", error_share, "share");
    let shown = if args.trace {
        in_manifest_order(&report.per_layer, &PER_LAYER, true)
    } else {
        in_manifest_order(&report.end_to_end, &END_TO_END, false)
    }
    .unwrap_or_else(|reason| fail(reason, report.attempted, report.failed));

    let mut stamp = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::Num(nproc as f64)),
        ("env.parallel_speedup".into(), Value::Num(parallel_speedup)),
        ("git_rev".into(), Value::Str(args.git_rev)),
        ("rustc".into(), Value::Str(args.rustc)),
        (
            "cache_budget_bytes".into(),
            Value::Num(fork_query::DEFAULT_CACHE_BYTES as f64),
        ),
        ("wall_s".into(), Value::Num(started.elapsed().as_secs_f64())),
    ];
    stamp.extend(
        report
            .ungated
            .iter()
            .map(|m| (m.name.clone(), Value::Num(m.value))),
    );
    stamp.append(&mut report.stamp);
    println!(
        "{}",
        Value::Obj(vec![("stamp".into(), Value::Obj(stamp))]).to_json()
    );

    if args.trace {
        for (name, s) in ctx.tracer.self_times() {
            println!(
                "span {name:<28} n={:<6} total={:>12.3} ms self={:>12.3} ms",
                s.count,
                s.total_us / 1e3,
                s.self_us / 1e3
            );
        }
        if let Some(path) = &args.spans {
            if let Err(e) = ctx.tracer.write_jsonl(path) {
                eprintln!("perfbench: writing spans: {e}");
                std::process::exit(1);
            }
        }
    }
    for m in shown.iter().chain(&report.ungated) {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(true, report.attempted, report.failed, metrics_json(&shown))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` lists under `key`.
    fn manifest(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let spec = Value::parse(&text).expect("parse BENCHMARK.json");
        spec.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        assert_eq!(owned(&END_TO_END), manifest("end_to_end"));
        assert_eq!(owned(&PER_LAYER), manifest("per_layer"));
    }

    #[test]
    fn unreached_layers_read_zero_but_end_to_end_gaps_fail() {
        let one = |name: &str, unit: &'static str| Metric {
            name: name.into(),
            value: 1.5,
            unit,
        };
        let layers =
            in_manifest_order(&[one("sim.meso.run_s", "s")], &PER_LAYER, true).expect("layers");
        assert_eq!(layers.len(), PER_LAYER.len());
        for m in &layers {
            let want = if m.name == "sim.meso.run_s" { 1.5 } else { 0.0 };
            assert_eq!(m.value, want, "{}", m.name);
        }
        assert!(in_manifest_order(&[one("setup_s", "s")], &END_TO_END, false).is_err());
        assert!(in_manifest_order(&[one("setup_s", "ms")], &END_TO_END, true).is_err());
        assert!(in_manifest_order(&[one("no_such", "s")], &PER_LAYER, true).is_err());
    }
}
