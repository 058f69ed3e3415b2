//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is one frame: a big-endian `u32` byte length followed
//! by that many bytes of JSON. JSON because the vendored serde stack
//! already serializes [`Value`] (the one interesting payload type) and
//! a text encoding keeps the CI smoke client scriptable; the length
//! prefix because JSON is not self-delimiting over a byte stream.
//!
//! A frame leaves in one write: [`write_frame`] puts the prefix and the
//! body in one buffer. Both ends set `TCP_NODELAY`, so a prefix written
//! on its own would be a segment — and a reader wakeup — of its own.
//!
//! Enum shape note: the vendored `serde_derive` supports unit and
//! newtype enum variants but not struct variants, so every variant
//! with fields wraps a named struct (`Request::Hello(Hello)` rather
//! than `Request::Hello { tenant, .. }`).

use gdm_core::Value;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Frames larger than this are refused — a corrupt length prefix must
/// not make the server try to allocate gigabytes.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Frame bodies are read (and buffers grown) in chunks of this size,
/// so a hostile length prefix costs at most one chunk of memory until
/// real bytes actually arrive — the prefix claims, the bytes prove.
pub const READ_CHUNK: usize = 64 * 1024;

/// A client's opening message: which tenant the session acts for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Tenant name, as registered in the server's configuration.
    pub tenant: String,
    /// Shared secret, when the tenant is configured with one.
    pub secret: Option<String>,
}

/// A read query in the engine's shared Cypher-like dialect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryReq {
    /// Query text; also the plan-cache key after whitespace trimming.
    pub text: String,
}

/// Everything a client can send.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Authenticate the session to a tenant. Must come first.
    Hello(Hello),
    /// Run a query under the session tenant's allowance.
    Query(QueryReq),
    /// Fetch server counters (per-tenant credits, plan cache, shed).
    Stats,
    /// Fetch the serving health state (ready/degraded/stale). Allowed
    /// *before* `Hello` so load balancers can probe without a tenant.
    Health,
    /// Ask the server to shut down (drains in-flight sessions).
    Shutdown,
    /// Close this session only.
    Goodbye,
}

/// Session accepted; the server identifies itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Welcome {
    /// Engine name the server is fronting.
    pub engine: String,
    /// Tenant the session authenticated to.
    pub tenant: String,
}

/// A completed query result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rows {
    /// Column names, in projection order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// True when the plan came from the shared plan cache.
    pub cached_plan: bool,
}

/// The query was stopped by the governor before completing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interrupted {
    /// Why: `"deadline exceeded"`, `"budget exhausted"`,
    /// `"cancelled"`, or `"tenant allowance exhausted"` (throttled by
    /// the fair budget pool).
    pub reason: String,
    /// Rows produced before the interrupt.
    pub partial: u64,
}

/// Admission control shed the request instead of queueing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Overloaded {
    /// Which limit shed it: `"tenant"` (the tenant's in-flight cap) or
    /// `"queue"` (the global wait queue was full).
    pub scope: String,
    /// How long a well-behaved client should back off before retrying.
    pub retry_after_ms: u64,
}

/// Anything else that went wrong (parse error, unsupported statement,
/// protocol misuse). The session stays open.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Human-readable description.
    pub message: String,
}

/// One tenant's counters in a [`StatsReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Fairness weight.
    pub weight: u64,
    /// Credits currently available (negative = overdrawn).
    pub credits: i64,
    /// Lifetime credits charged.
    pub charged: u64,
    /// Lifetime throttle interruptions.
    pub throttled: u64,
    /// Lifetime requests shed by the tenant's in-flight cap.
    pub shed: u64,
}

/// Plan-cache counters in a [`StatsReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lifetime lookup hits.
    pub hits: u64,
    /// Lifetime lookup misses.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: u64,
    /// Lifetime entries dropped because the serving snapshot moved to
    /// a new epoch after the plan was cached.
    pub epoch_evictions: u64,
}

/// The serving health state, answering [`Request::Health`].
///
/// Three states, coarsest first:
/// - `"ready"` — the snapshot is fresh enough and refreshes succeed.
/// - `"stale"` — recorded mutations have crossed the auto-refresh
///   policy's thresholds but no fresh snapshot is serving yet; results
///   are consistent but behind the live graph.
/// - `"degraded"` — the most recent refresh attempt(s) failed; the
///   server keeps answering from the last good snapshot while the
///   refresh thread backs off and retries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReply {
    /// `"ready"`, `"stale"`, or `"degraded"`.
    pub state: String,
    /// Epoch of the snapshot currently serving queries.
    pub snapshot_epoch: u64,
    /// Milliseconds since the serving snapshot was installed.
    pub snapshot_age_ms: u64,
    /// Mutations recorded against the serving snapshot, as last
    /// observed by the refresh thread (0 when auto-refresh is off).
    pub pending_changes: u64,
    /// Whether a background auto-refresh thread is running.
    pub auto_refresh: bool,
    /// Lifetime failed refresh attempts (background and explicit).
    pub refresh_failures: u64,
    /// Failed refresh attempts since the last success — the degraded
    /// trigger, and the exponent of the refresh thread's backoff.
    pub consecutive_refresh_failures: u64,
}

/// Server counters, answering [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Per-tenant pool and admission counters.
    pub tenants: Vec<TenantStats>,
    /// Shared plan-cache counters.
    pub plan_cache: CacheStats,
    /// Lifetime requests shed by the global queue.
    pub queue_shed: u64,
    /// The most threads one admitted query may run on, its session
    /// thread included — and, minus one, the helper threads in flight
    /// across all sessions (the resolved process-wide setting, ≥ 1).
    pub executor_workers: u64,
    /// Lifetime executions that ran on more than their session thread:
    /// they estimated enough work to be admitted *and* found a helper
    /// free. 0 means `executor_workers` has had nothing to do.
    pub fanned_out: u64,
    /// Epoch of the snapshot currently serving queries.
    pub snapshot_epoch: u64,
    /// Lifetime live snapshot refreshes since startup.
    pub refreshes: u64,
    /// Wall-clock cost of the most recent refresh (build + swap), in
    /// microseconds; 0 until the first refresh.
    pub last_refresh_us: u64,
    /// Lifetime refresh attempts that failed (the serving snapshot was
    /// left as it was; the refresh thread backs off and retries).
    pub refresh_failures: u64,
    /// Lifetime torn, oversized, or undecodable frames received —
    /// each one closed its session with a structured error where the
    /// socket was still writable.
    pub frame_errors: u64,
    /// Lifetime sessions closed by the server's own deadlines: a
    /// mid-frame read deadline (slowloris cutoff) or the idle max-age.
    pub sessions_reaped: u64,
    /// Lifetime queries whose execution panicked; each was contained
    /// by `catch_unwind`, answered with a structured error, and closed
    /// only its own session — the pooled worker survived.
    pub queries_poisoned: u64,
}

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Hello accepted.
    Welcome(Welcome),
    /// Query completed.
    Rows(Rows),
    /// Query stopped by the governor (structured, retryable).
    Interrupted(Interrupted),
    /// Request shed by admission control (structured, retryable).
    Overloaded(Overloaded),
    /// Request failed (not retryable as-is).
    Error(ErrorReply),
    /// Stats snapshot.
    Stats(StatsReply),
    /// Health snapshot.
    Health(HealthReply),
    /// Session closing (answer to Goodbye and Shutdown).
    Bye,
}

/// Writes one frame: `u32` big-endian length, then the JSON bytes,
/// assembled in one buffer and handed to a single `write_all`.
///
/// Both sides of the wire set `TCP_NODELAY`, so a prefix written on
/// its own would leave as a segment of its own and wake the reader
/// once for four bytes before the body arrives. A message over
/// [`MAX_FRAME`] is refused before anything is written.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let body = serde_json::to_vec(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&body);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, or `None` on a clean EOF at a frame boundary. EOF
/// anywhere inside a frame — length prefix included — is an
/// `UnexpectedEof` error.
pub fn read_frame<R: Read, T: serde::Deserialize>(r: &mut R) -> io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(mid_frame_eof()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    // Incremental body read: allocate per chunk as bytes arrive, never
    // the full claimed length up front (see [`READ_CHUNK`]).
    let len = len as usize;
    let mut body = Vec::with_capacity(len.min(READ_CHUNK));
    let mut chunk = [0u8; 4096];
    while body.len() < len {
        let want = (len - body.len()).min(chunk.len());
        let n = r.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(mid_frame_eof());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    serde_json::from_slice(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn mid_frame_eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(msg: &T) -> T
    where
        T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).expect("write");
        let mut cursor = io::Cursor::new(buf);
        read_frame(&mut cursor).expect("read").expect("a frame")
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello(Hello {
                tenant: "alpha".into(),
                secret: Some("s3cret".into()),
            }),
            Request::Query(QueryReq {
                text: "MATCH (p:person) RETURN p.name".into(),
            }),
            Request::Stats,
            Request::Health,
            Request::Shutdown,
            Request::Goodbye,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Welcome(Welcome {
                engine: "Neo4j".into(),
                tenant: "alpha".into(),
            }),
            Response::Rows(Rows {
                columns: vec!["name".into()],
                rows: vec![vec![Value::from("ada")], vec![Value::Null]],
                cached_plan: true,
            }),
            Response::Interrupted(Interrupted {
                reason: "tenant allowance exhausted".into(),
                partial: 17,
            }),
            Response::Overloaded(Overloaded {
                scope: "queue".into(),
                retry_after_ms: 25,
            }),
            Response::Error(ErrorReply {
                message: "cypher parse error".into(),
            }),
            Response::Stats(StatsReply {
                tenants: vec![TenantStats {
                    name: "alpha".into(),
                    weight: 3,
                    credits: -2,
                    charged: 1000,
                    throttled: 4,
                    shed: 1,
                }],
                plan_cache: CacheStats {
                    hits: 9,
                    misses: 2,
                    entries: 2,
                    epoch_evictions: 1,
                },
                queue_shed: 0,
                executor_workers: 2,
                fanned_out: 5,
                snapshot_epoch: 42,
                refreshes: 3,
                last_refresh_us: 180,
                refresh_failures: 1,
                frame_errors: 2,
                sessions_reaped: 1,
                queries_poisoned: 1,
            }),
            Response::Health(HealthReply {
                state: "degraded".into(),
                snapshot_epoch: 42,
                snapshot_age_ms: 1200,
                pending_changes: 7,
                auto_refresh: true,
                refresh_failures: 2,
                consecutive_refresh_failures: 1,
            }),
            Response::Bye,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            assert_eq!(round_trip(&req), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            assert_eq!(round_trip(&resp), resp);
        }
    }

    /// A `Write` double that keeps the length of every `write` call.
    #[derive(Default)]
    struct WriteLog(Vec<usize>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn write_calls<T: Serialize>(msg: &T) -> (io::Result<()>, Vec<usize>) {
        let mut log = WriteLog::default();
        let result = write_frame(&mut log, msg);
        (result, log.0)
    }

    /// Writes `msg` and checks it reached the writer as one call of
    /// `4 + body` bytes; returns the body length.
    fn assert_one_write<T: Serialize>(msg: &T) -> usize {
        let body = serde_json::to_vec(msg).expect("encode").len();
        let (result, calls) = write_calls(msg);
        result.expect("write");
        assert_eq!(calls, vec![4 + body]);
        body
    }

    #[test]
    fn a_frame_reaches_the_writer_in_one_call_or_none() {
        for req in sample_requests() {
            assert_one_write(&req);
        }
        for resp in sample_responses() {
            assert_one_write(&resp);
        }
        let big = Response::Rows(Rows {
            columns: vec!["name".into()],
            rows: (0..2048)
                .map(|i| vec![Value::from(format!("person-{i:026}"))])
                .collect(),
            cached_plan: false,
        });
        assert!(assert_one_write(&big) > 64 * 1024);

        // Over the cap: refused before anything reaches the writer.
        let huge = Request::Query(QueryReq {
            text: "x".repeat(MAX_FRAME as usize),
        });
        let (result, calls) = write_calls(&huge);
        assert_eq!(
            result.expect_err("refused").kind(),
            io::ErrorKind::InvalidData
        );
        assert!(calls.is_empty(), "{calls:?}");
    }

    #[test]
    fn eof_at_boundary_is_none_mid_frame_is_error() {
        let mut empty = io::Cursor::new(Vec::new());
        assert!(read_frame::<_, Request>(&mut empty)
            .expect("eof ok")
            .is_none());
        // A length prefix with no body, or a prefix cut after 1–3 of
        // its bytes, is a torn frame.
        for torn in [vec![0, 0, 0, 9], vec![0], vec![0, 0], vec![0, 0, 0]] {
            let err = read_frame::<_, Request>(&mut io::Cursor::new(torn.clone()))
                .expect_err("torn frame");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{torn:?}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame::<_, Request>(&mut cursor).is_err());
    }
}
