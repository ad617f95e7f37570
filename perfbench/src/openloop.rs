//! Open-loop load: each connection sends its requests at their scheduled
//! due times whatever the replies are doing, and times every request from
//! its due time. A reply that stalls therefore shows in the latency of the
//! requests queued behind it, and a generator that falls behind shows as
//! lag (send time minus due time). One thread per connection both sends and
//! receives, polling for replies between due times.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fork_serve::{FrameReader, RequestBody};

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::wire::{classify, Conn, Reply};
use crate::Gate;

/// One scheduled request: when it is due (seconds after the phase start)
/// and which request body it sends.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due_s: f64,
    pub body: usize,
}

/// What happened to one planned request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub body: usize,
    pub due_s: f64,
    /// `None` when the connection stopped sending (backlog guard).
    pub sent_s: Option<f64>,
    /// `None` when no reply came before the drain deadline.
    pub done_s: Option<f64>,
    pub reply: Option<Reply>,
}

impl Outcome {
    /// Milliseconds from due time to reply.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_s.map(|d| (d - self.due_s) * 1e3)
    }

    /// Milliseconds the generator sent late.
    pub fn lag_ms(&self) -> Option<f64> {
        self.sent_s.map(|s| (s - self.due_s) * 1e3)
    }
}

/// Poisson arrivals at `rate` per second over `[0, duration_s)`, each
/// picking its body with `pick`, stratified: the gaps are the exponential
/// distribution's `rate * duration_s` quantiles, each jittered within its
/// stratum, in a seeded random order. Every phase then offers the gap mix
/// of a Poisson process without its sampling noise; at a light rate that
/// mix decides how long replies stall behind a delayed ACK (until the
/// connection's next request).
pub fn poisson(
    rng: &mut Rng,
    rate: f64,
    duration_s: f64,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<Planned> {
    let n = (rate * duration_s).round().max(1.0) as usize;
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + rng.unit()) / n as f64).ln() / rate)
        .collect();
    rng.shuffle(&mut gaps);
    let mut out = Vec::new();
    let mut t = 0.0;
    for gap in gaps {
        t += gap;
        if t >= duration_s {
            break;
        }
        out.push(Planned {
            due_s: t,
            body: pick(rng),
        });
    }
    out
}

/// Limits for one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// A connection stops sending once this many requests are in flight
    /// (kept below the daemon's per-connection cap, so the guard trips
    /// before the daemon refuses anything).
    pub max_in_flight: usize,
    /// How long after the last due time to wait for replies.
    pub drain_s: f64,
}

/// Drives `plans[i]` on `conns[i]`, all from one common start.
pub fn drive(
    conns: &mut [Conn],
    plans: &[Vec<Planned>],
    bodies: &[RequestBody],
    limits: Limits,
    tracer: &Tracer,
    phase: &str,
) -> Gate<Vec<Outcome>> {
    let start = Instant::now();
    let results: Vec<Gate<Vec<Outcome>>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(plans)
            .map(|(conn, plan)| {
                s.spawn(move || {
                    tracer.span(phase, None, |span| {
                        drive_one(conn, plan, bodies, limits, start, tracer, span)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

fn drive_one(
    conn: &mut Conn,
    plan: &[Planned],
    bodies: &[RequestBody],
    limits: Limits,
    start: Instant,
    tracer: &Tracer,
    span: Option<u64>,
) -> Gate<Vec<Outcome>> {
    let mut out: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            body: p.body,
            due_s: p.due_s,
            sent_s: None,
            done_s: None,
            reply: None,
        })
        .collect();
    let now = || start.elapsed().as_secs_f64();
    let last_due = plan.last().map_or(0.0, |p| p.due_s);
    let mut pending: HashMap<u64, usize> = HashMap::new();
    let mut reader = FrameReader::new();
    let mut next = 0;
    loop {
        while next < plan.len() && plan[next].due_s <= now() {
            if pending.len() >= limits.max_in_flight {
                next = plan.len();
                break;
            }
            let id = conn.send(bodies[plan[next].body].clone())?;
            out[next].sent_s = Some(now());
            pending.insert(id, next);
            next += 1;
        }
        let t = now();
        let drained = next >= plan.len() && (pending.is_empty() || t > last_due + limits.drain_s);
        if drained {
            break;
        }
        let until = if next < plan.len() {
            plan[next].due_s
        } else {
            last_due + limits.drain_s
        };
        let Some(payload) = poll(conn, &mut reader, until - t)? else {
            continue;
        };
        let done = now();
        let (id, reply) = classify(&payload)?;
        let i = pending
            .remove(&id)
            .ok_or_else(|| format!("reply for unknown request id {id}"))?;
        let due = start + Duration::from_secs_f64(out[i].due_s);
        tracer.record("client.request", span, Some(id), due, Instant::now());
        out[i].done_s = Some(done);
        out[i].reply = Some(reply);
    }
    Ok(out)
}

/// Socket read timeouts are rounded up to the kernel tick, so a blocking
/// read is only used to wait until this long before the next send is due.
const TICK_MARGIN_S: f64 = 0.012;
/// Inside the margin, replies are polled this often.
const POLL_S: f64 = 100e-6;

/// Waits up to `wait_s` for one reply frame, waking in time for the next
/// due send: a blocking read (which returns as soon as bytes arrive) while
/// the send is far off, then non-blocking polls with short sleeps.
fn poll(conn: &mut Conn, reader: &mut FrameReader, wait_s: f64) -> Gate<Option<Vec<u8>>> {
    let stall = Duration::from_secs(5);
    let io = |e: std::io::Error| format!("socket mode: {e}");
    if wait_s > TICK_MARGIN_S {
        let block = Duration::from_secs_f64((wait_s - TICK_MARGIN_S).min(0.05));
        conn.stream.set_read_timeout(Some(block)).map_err(io)?;
        return reader
            .poll_frame(&mut conn.stream, stall)
            .map_err(|e| format!("recv: {e}"));
    }
    conn.stream.set_nonblocking(true).map_err(io)?;
    let got = reader.poll_frame(&mut conn.stream, stall);
    conn.stream.set_nonblocking(false).map_err(io)?;
    let got = got.map_err(|e| format!("recv: {e}"))?;
    if got.is_none() {
        std::thread::sleep(Duration::from_secs_f64(wait_s.clamp(0.0, POLL_S)));
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fork_serve::{
        decode_request, encode_response, read_frame, write_frame, Response, ResponseBody,
    };
    use std::net::TcpListener;

    /// A daemon stand-in that answers every request with `Pong`, in order,
    /// but holds the reply to request `stall_id` for `stall`.
    fn stalling_server(stall_id: u64, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            while let Ok(payload) = read_frame(&mut stream) {
                let req = decode_request(&payload).expect("well-formed request");
                if req.id == stall_id {
                    std::thread::sleep(stall);
                }
                let resp = Response {
                    id: req.id,
                    body: ResponseBody::Pong,
                };
                if write_frame(&mut stream, &encode_response(&resp)).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn stratified_arrivals_keep_the_exponential_gap_mix() {
        let plan = poisson(&mut Rng::new(7, 0), 20.0, 30.0, |_| 0);
        assert!((590..=600).contains(&plan.len()), "{} arrivals", plan.len());
        let mut gaps: Vec<f64> = plan.windows(2).map(|w| w[1].due_s - w[0].due_s).collect();
        assert!(gaps.iter().all(|&g| g > 0.0) && plan.last().unwrap().due_s < 30.0);
        // The exponential median gap is ln 2 / rate; stratified, the sample
        // median lands within a stratum or two of it.
        gaps.sort_by(f64::total_cmp);
        let median = gaps[gaps.len() / 2];
        assert!(
            (median - 2f64.ln() / 20.0).abs() < 0.002,
            "median gap {median}"
        );
    }

    #[test]
    fn a_stalled_reply_inflates_the_requests_queued_behind_it() {
        // Requests every 10 ms; the server holds the 10th reply for 200 ms.
        let (addr, server) = stalling_server(10, Duration::from_millis(200));
        let mut conns = vec![Conn::connect(&addr).expect("connect")];
        let plan: Vec<Planned> = (0..40)
            .map(|k| Planned {
                due_s: 0.01 * k as f64,
                body: 0,
            })
            .collect();
        let limits = Limits {
            max_in_flight: 64,
            drain_s: 2.0,
        };
        let out = drive(
            &mut conns,
            &[plan],
            &[RequestBody::Ping],
            limits,
            &Tracer::new(false),
            "test",
        )
        .expect("drive");
        drop(conns);
        server.join().expect("server thread");
        let lat: Vec<f64> = out
            .iter()
            .map(|o| o.latency_ms().expect("answered"))
            .collect();
        // Before the stall: prompt. The stalled request and the ones due
        // during its stall wait for it: the one due 10 ms later is ~190 ms
        // late although the server answered it at once.
        assert!(
            lat[..9].iter().all(|&l| l < 60.0),
            "pre-stall {:?}",
            &lat[..9]
        );
        assert!(lat[9] >= 190.0, "stalled request {}", lat[9]);
        assert!(lat[10] >= 150.0, "queued behind the stall {}", lat[10]);
        assert!(lat[25] >= 20.0, "still catching up {}", lat[25]);
        assert!(lat[39] < 60.0, "recovered {}", lat[39]);
        // The generator itself kept its schedule.
        assert!(out.iter().all(|o| o.lag_ms().expect("sent") < 60.0));
    }

    #[test]
    fn the_backlog_guard_stops_sending_instead_of_overrunning_the_daemon() {
        let (addr, server) = stalling_server(1, Duration::from_millis(300));
        let mut conns = vec![Conn::connect(&addr).expect("connect")];
        let plan: Vec<Planned> = (0..50)
            .map(|k| Planned {
                due_s: 0.001 * k as f64,
                body: 0,
            })
            .collect();
        let limits = Limits {
            max_in_flight: 8,
            drain_s: 2.0,
        };
        let out = drive(
            &mut conns,
            &[plan],
            &[RequestBody::Ping],
            limits,
            &Tracer::new(false),
            "test",
        )
        .expect("drive");
        drop(conns);
        server.join().expect("server thread");
        let sent = out.iter().filter(|o| o.sent_s.is_some()).count();
        assert_eq!(sent, 8, "stopped at the in-flight limit");
        assert!(out
            .iter()
            .filter(|o| o.sent_s.is_some())
            .all(|o| o.done_s.is_some()));
    }
}
