//! A bare wire-protocol client: `encode_request` + `write_frame` out,
//! `read_frame`/`FrameReader` + `decode_response` in. Answers are compared
//! by a digest of their encoding, so the benchmark never holds full-archive
//! answers in memory.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::net::TcpStream;
use std::time::Duration;

use fork_archive::ArchiveReader;
use fork_query::{QueryExecutor, ReaderPool};
use fork_serve::{
    decode_response, encode_request, encode_response, read_frame, write_frame, ErrorKind, Request,
    RequestBody, Response, ResponseBody,
};
use fork_telemetry::Snapshot;

/// Bytes before the body in an encoded response: the correlation id.
const ID_LEN: usize = 8;

/// What one reply carried.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // short-lived, one per reply
pub enum Reply {
    /// A query or lookup answer: the digest of its encoded body.
    Answer(u64),
    /// A typed refusal or failure.
    Refused(ErrorKind),
    /// Any control-plane reply.
    Control(ResponseBody),
}

pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// The digest a served answer with `body` has.
pub fn answer_digest(body: ResponseBody) -> u64 {
    digest(&encode_response(&Response { id: 0, body })[ID_LEN..])
}

/// The daemon's endpoint label for a query or lookup.
pub fn endpoint_label(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Lookup(l) => fork_serve::ENDPOINTS[fork_serve::lookup_endpoint_index(l)],
        RequestBody::Query(q) => fork_serve::ENDPOINTS[fork_serve::endpoint_index(&q.projection)],
        _ => "control",
    }
}

/// Digest of the in-process answer to a query or lookup.
pub fn answer(exec: &QueryExecutor, pool: &ReaderPool, body: &RequestBody) -> Result<u64, String> {
    match body {
        RequestBody::Lookup(l) => exec
            .run_lookup(pool, l)
            .map(|o| answer_digest(ResponseBody::Lookup(o))),
        RequestBody::Query(q) => exec
            .run(pool, q)
            .map(|o| answer_digest(ResponseBody::Output(o))),
        other => return Err(format!("{other:?} is not a query")),
    }
    .map_err(|e| format!("{body:?}: {e}"))
}

/// Digest of the naive full-scan answer to a query or lookup.
pub fn naive_answer(reader: &ArchiveReader, body: &RequestBody) -> Result<u64, String> {
    match body {
        RequestBody::Lookup(l) => QueryExecutor::run_lookup_naive(reader, l)
            .map(|o| answer_digest(ResponseBody::Lookup(o))),
        RequestBody::Query(q) => {
            QueryExecutor::run_naive(reader, q).map(|o| answer_digest(ResponseBody::Output(o)))
        }
        other => return Err(format!("{other:?} is not a query")),
    }
    .map_err(|e| format!("naive {body:?}: {e}"))
}

/// Checks served replies against the in-process answers: `replies` pairs
/// an index into `bodies`/`expected` with the reply (if one came). A wrong
/// answer, a control reply or a refusal other than load shedding fails the
/// gate; returns how many requests were shed (`Backpressure`/`Overloaded`).
pub fn check_replies<'a>(
    replies: impl IntoIterator<Item = (usize, Option<&'a Reply>)>,
    expected: &[u64],
    bodies: &[RequestBody],
) -> Result<u64, String> {
    let mut shed = 0;
    for (i, reply) in replies {
        match reply {
            Some(Reply::Answer(d)) => crate::ensure!(
                *d == expected[i],
                "served answer differs from the in-process answer for {:?}",
                bodies[i]
            ),
            Some(Reply::Refused(ErrorKind::Backpressure | ErrorKind::Overloaded)) => shed += 1,
            Some(other) => return Err(format!("{other:?} in reply to {:?}", bodies[i])),
            None => {}
        }
    }
    Ok(shed)
}

/// Decodes one response payload into its id and [`Reply`].
pub fn classify(payload: &[u8]) -> Result<(u64, Reply), String> {
    let resp = decode_response(payload).map_err(|e| format!("undecodable reply: {e}"))?;
    let reply = match resp.body {
        ResponseBody::Output(_) | ResponseBody::Lookup(_) => {
            Reply::Answer(digest(&payload[ID_LEN..]))
        }
        ResponseBody::Error(e) => Reply::Refused(e.kind),
        other => Reply::Control(other),
    };
    Ok((resp.id, reply))
}

/// One client connection.
pub struct Conn {
    pub stream: TcpStream,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn { stream, next_id: 1 })
    }

    /// Sends `body` and returns its correlation id.
    pub fn send(&mut self, body: RequestBody) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = encode_request(&Request { id, body });
        write_frame(&mut self.stream, &payload).map_err(|e| format!("send: {e}"))?;
        Ok(id)
    }

    /// Blocks for the next reply.
    pub fn recv(&mut self) -> Result<(u64, Reply), String> {
        let payload = read_frame(&mut self.stream).map_err(|e| format!("recv: {e}"))?;
        classify(&payload)
    }

    /// One request, one reply.
    pub fn call(&mut self, body: RequestBody) -> Result<Reply, String> {
        let id = self.send(body)?;
        let (got, reply) = self.recv()?;
        crate::ensure!(got == id, "reply id {got} for request {id}");
        Ok(reply)
    }
}

/// Connects, retrying while a just-started daemon comes up.
pub fn connect_retry(addr: &str) -> Result<Conn, String> {
    let mut last = String::new();
    for _ in 0..100 {
        match Conn::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(last)
}

/// The daemon's telemetry snapshot, read through a `Stats` request.
pub fn stats(addr: &str) -> Result<Snapshot, String> {
    let mut conn = connect_retry(addr)?;
    match conn.call(RequestBody::Stats)? {
        Reply::Control(ResponseBody::Stats(json)) => Snapshot::from_json(&json),
        other => Err(format!("Stats answered with {other:?}")),
    }
}
