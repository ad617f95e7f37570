//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory during the run and are written out at the end. A
//! span carries its name, start and end (µs since the tracer started), the
//! span that caused it, and the request it belongs to. A layer's self time
//! is its spans' durations minus the part of each interval its child spans
//! cover. With tracing off, recording is a no-op.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fork_telemetry::json::Value;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub request: Option<u64>,
}

/// Per-layer totals over all spans of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span with explicit bounds and returns its id (0 when off).
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, request, start, end);
        id
    }

    fn push(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let rec = SpanRecord {
            id,
            parent,
            name: name.into(),
            start_us: self.us(start),
            end_us: self.us(end),
            request,
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(rec);
    }

    /// Runs `f` inside a span; `f` gets the span id to parent children on.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(Option<u64>) -> T) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, name, parent, None, start, Instant::now());
        out
    }

    /// Total duration (µs) of every span named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum()
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, LayerTime> {
        let spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread");
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_us - s.start_us;
            let covered = children
                .get(&s.id)
                .map(|c| covered_us(c, s.start_us, s.end_us))
                .unwrap_or(0.0);
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_us += dur;
            t.self_us += dur - covered;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or(Value::Null, |v| Value::Num(v as f64));
        for s in spans.iter() {
            let line = Value::Obj(vec![
                ("id".into(), Value::Num(s.id as f64)),
                ("parent".into(), opt(s.parent)),
                ("name".into(), Value::Str(s.name.clone())),
                ("start_us".into(), Value::Num(s.start_us)),
                ("end_us".into(), Value::Num(s.end_us)),
                ("request".into(), opt(s.request)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(
            covered_us(&[(0.0, 4.0), (2.0, 6.0), (8.0, 20.0)], 1.0, 10.0),
            7.0
        );
        let t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms| base + Duration::from_millis(ms);
        let parent = t.record("outer", None, None, at(0), at(100));
        t.record("inner", Some(parent), Some(7), at(10), at(40));
        t.record("inner", Some(parent), Some(8), at(30), at(50));
        let times = t.self_times();
        let outer = times["outer"];
        assert!((outer.total_us - 100_000.0).abs() < 1.0);
        assert!((outer.self_us - 60_000.0).abs() < 1.0);
        assert_eq!(times["inner"].count, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, |id| id), None);
        assert!(t.self_times().is_empty());
    }
}
