//! End-to-end observability-plane checks against a real `fork-served`
//! daemon: per-request stage spans must tile end-to-end latency, tracing
//! must be byte-neutral to query results, the slow-query log must stay
//! bounded and worst-first, the sampler must fill the series ring, and the
//! Prometheus exposition must be well-formed.

use std::path::PathBuf;
use std::time::Duration;

use stick_a_fork::archive::{ArchiveConfig, Codec};
use stick_a_fork::core::ForkStudy;
use stick_a_fork::query::Query;
use stick_a_fork::serve::{
    encode_response, RequestBody, ServeClient, ServeConfig, Server, ENDPOINTS,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fork-serve-obs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_archive(dir: &PathBuf, seed: u64) {
    ForkStudy::quick(seed)
        .archive_to_with(
            dir,
            ArchiveConfig {
                codec: Codec::Delta,
                ..ArchiveConfig::default()
            },
        )
        .unwrap();
}

/// A small mixed workload built from the daemon's own metadata.
fn workload(client: &mut ServeClient) -> Vec<Query> {
    let meta = client.meta().unwrap();
    stick_a_fork::serve::workload_queries(&meta)
}

#[test]
fn tracing_is_byte_neutral_and_stage_spans_tile_latency() {
    let dir = scratch("neutral");
    build_archive(&dir, 11);

    // Two daemons over the same archive: tracing on (default) and off.
    let on_handle = Server::start(ServeConfig::new(&dir)).unwrap();
    let mut off_cfg = ServeConfig::new(&dir);
    off_cfg.tracing = false;
    let off_handle = Server::start(off_cfg).unwrap();

    let mut on =
        ServeClient::connect_retry(&on_handle.local_addr().to_string(), Duration::from_secs(5))
            .unwrap();
    let mut off =
        ServeClient::connect_retry(&off_handle.local_addr().to_string(), Duration::from_secs(5))
            .unwrap();

    // Same queries in the same order on both connections: correlation ids
    // line up, so every encoded response must be byte-identical.
    let queries = workload(&mut on);
    let _ = workload(&mut off); // consume the same id on the off connection
    assert!(queries.len() >= 20, "workload should be genuinely mixed");
    for q in &queries {
        let id_on = on.send(RequestBody::Query(*q)).unwrap();
        let id_off = off.send(RequestBody::Query(*q)).unwrap();
        assert_eq!(id_on, id_off);
        let resp_on = on.recv().unwrap();
        let resp_off = off.recv().unwrap();
        assert_eq!(
            encode_response(&resp_on),
            encode_response(&resp_off),
            "tracing changed the bytes of the response to {q:?}"
        );
    }

    // The traced daemon's slow log holds real records whose five stage
    // spans tile the measured end-to-end latency.
    let slow = on.obs_slow_log().unwrap();
    assert!(!slow.is_empty(), "traffic should populate the slow log");
    let mut last_total = u64::MAX;
    for rec in &slow {
        assert!(
            ENDPOINTS.contains(&rec.endpoint.as_str()),
            "unknown endpoint {:?}",
            rec.endpoint
        );
        assert!(
            rec.total_us <= last_total,
            "slow log must be sorted worst-first"
        );
        last_total = rec.total_us;
        let sum = rec.stages.stage_sum_us();
        assert!(
            sum <= rec.total_us + 16,
            "stage sum {sum}us exceeds end-to-end {}us on {:?}",
            rec.total_us,
            rec
        );
        let slack = rec.total_us - sum.min(rec.total_us);
        let budget = (rec.total_us / 10).max(200);
        assert!(
            slack <= budget,
            "stages account for too little: sum {sum}us vs total {}us (slack {slack}us > {budget}us)",
            rec.total_us
        );
    }

    // The tracing-off daemon serves an empty observability plane.
    let off_slow = off.obs_slow_log().unwrap();
    assert!(
        off_slow.is_empty(),
        "tracing off must not record slow queries"
    );

    on_handle.shutdown();
    off_handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampler_fills_the_series_ring_and_metrics_expose_the_registry() {
    let dir = scratch("series");
    build_archive(&dir, 13);

    let mut cfg = ServeConfig::new(&dir);
    cfg.sample_interval = Duration::from_millis(25);
    cfg.series_capacity = 8;
    let handle = Server::start(cfg).unwrap();
    let mut client =
        ServeClient::connect_retry(&handle.local_addr().to_string(), Duration::from_secs(5))
            .unwrap();

    // Drive some traffic, then let several sample intervals elapse.
    for q in workload(&mut client).iter().take(8) {
        client.query(q).unwrap();
    }
    std::thread::sleep(Duration::from_millis(200));

    let ring = client.obs_series().unwrap();
    assert!(ring.len() >= 2, "sampler should have ticked at least twice");
    assert!(ring.len() <= ring.capacity());
    let ticks: Vec<u64> = ring.samples().map(|s| s.tick).collect();
    assert!(
        ticks.windows(2).all(|w| w[1] == w[0] + 1),
        "ticks must be consecutive: {ticks:?}"
    );
    let names = ring.series_names();
    for required in ["connections", "inflight", "shed_per_sec", "cache_hit_rate"] {
        assert!(names.iter().any(|n| n == required), "missing {required}");
    }
    // The per-endpoint percentile series appear once an endpoint saw
    // traffic; every sampled connection count is at least ours.
    assert!(
        names.iter().any(|n| n.starts_with("p99_us.")),
        "expected per-endpoint p99 series, got {names:?}"
    );
    assert!(ring
        .series("connections")
        .iter()
        .all(|&(_, v)| (0.0..=1024.0).contains(&v)));

    // The Prometheus exposition carries the stage histograms: every
    // non-comment line is `name value`, and the cumulative bucket lines
    // end with +Inf equal to the count.
    let text = client.metrics_text().unwrap();
    assert!(text.contains("# TYPE serve_stage_total histogram"));
    assert!(text.contains("serve_queries"));
    // The pool's partials counters ride along: the traffic merged days.
    let merged = text
        .lines()
        .find_map(|l| l.strip_prefix("query_partials_days_merged "));
    assert!(
        merged.is_some_and(|v| v.parse::<u64>().unwrap() > 0),
        "query.partials.days_merged missing or zero: {merged:?}"
    );
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("metric name");
        let value = parts.next().expect("metric value");
        assert!(parts.next().is_none(), "unexpected third field in {line:?}");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric()
                || c == '_'
                || c == ':'
                || c == '{'
                || c == '}'
                || c == '"'
                || c == '='
                || c == '+'
                || c == '.'
                || c == '-'),
            "bad metric name {name:?}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "metric value must be numeric in {line:?}"
        );
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_log_stays_bounded_and_keeps_the_worst() {
    let dir = scratch("slowlog");
    build_archive(&dir, 17);

    let mut cfg = ServeConfig::new(&dir);
    cfg.slow_log = 4;
    let handle = Server::start(cfg).unwrap();
    let mut client =
        ServeClient::connect_retry(&handle.local_addr().to_string(), Duration::from_secs(5))
            .unwrap();

    let queries = workload(&mut client);
    for _ in 0..3 {
        for q in &queries {
            client.query(q).unwrap();
        }
    }

    let slow = client.obs_slow_log().unwrap();
    assert!(!slow.is_empty());
    assert!(slow.len() <= 4, "slow log must stay bounded at 4 entries");
    assert!(
        slow.windows(2).all(|w| w[0].total_us >= w[1].total_us),
        "slow log must be sorted worst-first"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
