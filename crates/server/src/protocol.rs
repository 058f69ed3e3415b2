//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is one frame: a big-endian `u32` byte length followed
//! by that many bytes of JSON. JSON because the vendored serde stack
//! already serializes [`Value`] (the one interesting payload type) and
//! a text encoding keeps the CI smoke client scriptable; the length
//! prefix because JSON is not self-delimiting over a byte stream.
//!
//! The derived codec streams: a reply is encoded straight from its
//! result rows into the frame's one buffer, and a frame is decoded
//! straight from its bytes into the message, with no value tree in
//! between. Nesting deeper than 128 arrays and objects is refused, so a
//! hostile frame gets an error, not a stack overflow; a non-finite
//! float travels as `NaN`, `Infinity` or `-Infinity`.
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
/// - `"stale"` — the drift the engine owner last reported to
///   `ServerHandle::refresh_if_due` crosses that call's
///   [`crate::RefreshPolicy`] thresholds but no fresh snapshot is
///   serving yet; results are consistent but behind the live graph.
/// - `"degraded"` — the most recent refresh attempt(s) failed; the
///   server keeps answering from the last good snapshot while the
///   owner's `refresh_if_due` calls back off and retry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReply {
    /// `"ready"`, `"stale"`, or `"degraded"`.
    pub state: String,
    /// Epoch of the snapshot currently serving queries.
    pub snapshot_epoch: u64,
    /// Milliseconds since the serving snapshot was installed.
    pub snapshot_age_ms: u64,
    /// Mutations recorded against the serving snapshot, as the engine
    /// owner last reported them to `refresh_if_due` (0 before that).
    pub pending_changes: u64,
    /// Whether the engine owner has called `refresh_if_due`.
    pub auto_refresh: bool,
    /// Lifetime failed refresh attempts (background and explicit).
    pub refresh_failures: u64,
    /// Failed refresh attempts since the last success — the degraded
    /// trigger, and the exponent of `refresh_if_due`'s backoff.
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
    /// left as it was; `refresh_if_due` backs off and retries).
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

    /// A `Rows` reply holding every `Value` variant and the writer's
    /// edge cases: escapes, control characters, non-ASCII text, signed
    /// zero, extreme floats and integers, nested and empty lists.
    fn rows_corpus() -> Response {
        Response::Rows(Rows {
            columns: vec![
                "a".into(),
                "quote\"back\\slash/".into(),
                "ünï\u{1}code\n".into(),
            ],
            rows: vec![
                vec![Value::Null, Value::Bool(true), Value::Bool(false)],
                vec![Value::Int(0), Value::Int(i64::MIN), Value::Int(i64::MAX)],
                vec![
                    Value::Float(-0.0),
                    Value::Float(1e300),
                    Value::Float(5e-324),
                ],
                vec![Value::Float(1.0), Value::Float(0.1), Value::Float(-2.5e-7)],
                vec![
                    Value::from("tab\tcr\rnl\n\u{1}\u{8}\u{c}\u{1f}"),
                    Value::from("日本語 🎉"),
                    Value::from(""),
                ],
                vec![
                    Value::List(vec![]),
                    Value::List(vec![
                        Value::List(vec![Value::Int(-1), Value::List(vec![])]),
                        Value::from("x"),
                    ]),
                    Value::Null,
                ],
                vec![],
            ],
            cached_plan: false,
        })
    }

    /// Messages whose unsigned and signed fields sit at their limits.
    fn extreme_responses() -> Vec<Response> {
        vec![
            Response::Interrupted(Interrupted {
                reason: String::new(),
                partial: u64::MAX,
            }),
            Response::Overloaded(Overloaded {
                scope: "tenant".into(),
                retry_after_ms: 0,
            }),
            Response::Stats(StatsReply {
                tenants: vec![],
                plan_cache: CacheStats {
                    hits: u64::MAX,
                    misses: 0,
                    entries: 1,
                    epoch_evictions: 2,
                },
                queue_shed: 3,
                executor_workers: 4,
                fanned_out: 5,
                snapshot_epoch: 6,
                refreshes: 7,
                last_refresh_us: 8,
                refresh_failures: 9,
                frame_errors: 10,
                sessions_reaped: 11,
                queries_poisoned: 12,
            }),
            Response::Rows(Rows {
                columns: vec![],
                rows: vec![],
                cached_plan: true,
            }),
        ]
    }

    /// The wire bodies of `sample_requests()`, then `sample_responses()`,
    /// `rows_corpus()` and `extreme_responses()`: serde's standard JSON
    /// shapes, which deployed clients parse. The encoder must reproduce
    /// each byte for byte.
    const GOLDEN_BODIES: [&str; 19] = [
        r#"{"Hello":{"tenant":"alpha","secret":"s3cret"}}"#,
        r#"{"Query":{"text":"MATCH (p:person) RETURN p.name"}}"#,
        r#""Stats""#,
        r#""Health""#,
        r#""Shutdown""#,
        r#""Goodbye""#,
        r#"{"Welcome":{"engine":"Neo4j","tenant":"alpha"}}"#,
        r#"{"Rows":{"columns":["name"],"rows":[[{"Str":"ada"}],["Null"]],"cached_plan":true}}"#,
        r#"{"Interrupted":{"reason":"tenant allowance exhausted","partial":17}}"#,
        r#"{"Overloaded":{"scope":"queue","retry_after_ms":25}}"#,
        r#"{"Error":{"message":"cypher parse error"}}"#,
        r#"{"Stats":{"tenants":[{"name":"alpha","weight":3,"credits":-2,"charged":1000,"throttled":4,"shed":1}],"plan_cache":{"hits":9,"misses":2,"entries":2,"epoch_evictions":1},"queue_shed":0,"executor_workers":2,"fanned_out":5,"snapshot_epoch":42,"refreshes":3,"last_refresh_us":180,"refresh_failures":1,"frame_errors":2,"sessions_reaped":1,"queries_poisoned":1}}"#,
        r#"{"Health":{"state":"degraded","snapshot_epoch":42,"snapshot_age_ms":1200,"pending_changes":7,"auto_refresh":true,"refresh_failures":2,"consecutive_refresh_failures":1}}"#,
        r#""Bye""#,
        r#"{"Rows":{"columns":["a","quote\"back\\slash/","ünï\u0001code\n"],"rows":[["Null",{"Bool":true},{"Bool":false}],[{"Int":0},{"Int":-9223372036854775808},{"Int":9223372036854775807}],[{"Float":-0.0},{"Float":1e300},{"Float":5e-324}],[{"Float":1.0},{"Float":0.1},{"Float":-2.5e-7}],[{"Str":"tab\tcr\rnl\n\u0001\u0008\u000c\u001f"},{"Str":"日本語 🎉"},{"Str":""}],[{"List":[]},{"List":[{"List":[{"Int":-1},{"List":[]}]},{"Str":"x"}]},"Null"],[]],"cached_plan":false}}"#,
        r#"{"Interrupted":{"reason":"","partial":18446744073709551615}}"#,
        r#"{"Overloaded":{"scope":"tenant","retry_after_ms":0}}"#,
        r#"{"Stats":{"tenants":[],"plan_cache":{"hits":18446744073709551615,"misses":0,"entries":1,"epoch_evictions":2},"queue_shed":3,"executor_workers":4,"fanned_out":5,"snapshot_epoch":6,"refreshes":7,"last_refresh_us":8,"refresh_failures":9,"frame_errors":10,"sessions_reaped":11,"queries_poisoned":12}}"#,
        r#"{"Rows":{"columns":[],"rows":[],"cached_plan":true}}"#,
    ];

    /// Encodes `msg`, checks the body against `golden`, and checks that
    /// `golden` decodes to `msg` and re-encodes to itself (which also
    /// holds the sign of `-0.0`, where `PartialEq` does not look).
    fn assert_golden<T>(msg: &T, golden: &str)
    where
        T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        let body = serde_json::to_vec(msg).expect("encode");
        assert_eq!(std::str::from_utf8(&body).expect("UTF-8"), golden);
        let back: T = serde_json::from_str(golden).expect("decode");
        assert_eq!(&back, msg);
        assert_eq!(serde_json::to_vec(&back).expect("re-encode"), body);
    }

    #[test]
    fn bodies_are_byte_identical_to_the_golden_encoding() {
        let requests = sample_requests();
        let responses: Vec<Response> = sample_responses()
            .into_iter()
            .chain([rows_corpus()])
            .chain(extreme_responses())
            .collect();
        assert_eq!(requests.len() + responses.len(), GOLDEN_BODIES.len());
        let (request_bodies, response_bodies) = GOLDEN_BODIES.split_at(requests.len());
        for (req, golden) in requests.iter().zip(request_bodies) {
            assert_golden(req, golden);
        }
        for (resp, golden) in responses.iter().zip(response_bodies) {
            assert_golden(resp, golden);
        }
    }

    #[test]
    fn decoding_tolerates_whitespace_reordered_and_unknown_fields() {
        let hello = Request::Hello(Hello {
            tenant: "alpha".into(),
            secret: Some("s3cret".into()),
        });
        for body in [
            " {\n\t\"Hello\" : { \"tenant\" : \"alpha\" ,\r\n \"secret\" : \"s3cret\" } } \n",
            r#"{"Hello":{"secret":"s3cret","tenant":"alpha"}}"#,
            r#"{"Hello":{"tenant":"alpha","extra":[1,{"x":null},"y",-2.5e3],"secret":"s3cret"}}"#,
        ] {
            assert_eq!(serde_json::from_str::<Request>(body).expect(body), hello);
        }
        let rows = &sample_responses()[1];
        let body = r#"{ "Rows" : { "cached_plan" : true, "unknown" : {"a":[[]]},
            "rows" : [ [ { "Str" : "ada" } ] , [ "Null" ] ], "columns" : [ "name" ] } }"#;
        assert_eq!(&serde_json::from_str::<Response>(body).expect(body), rows);
    }

    #[test]
    fn malformed_bodies_stay_errors() {
        for body in [
            // A trailing comma.
            r#"{"Rows":{"columns":["a",],"rows":[],"cached_plan":true}}"#,
            r#"{"Hello":{"tenant":"alpha","secret":null,}}"#,
            // Trailing characters.
            r#""Stats" x"#,
            r#""Stats""Stats""#,
            // Missing fields, an `Option` field included.
            r#"{"Hello":{"tenant":"alpha"}}"#,
            r#"{"Rows":{"columns":[],"rows":[]}}"#,
            // Not one of the enum's shapes.
            r#"{"Stats":null}"#,
            r#"{"Hello":{"tenant":"alpha","secret":null},"Query":{"text":""}}"#,
        ] {
            assert!(serde_json::from_str::<Response>(body).is_err(), "{body}");
            assert!(serde_json::from_str::<Request>(body).is_err(), "{body}");
        }
        // Every proper prefix of a body is a truncated body.
        let body = GOLDEN_BODIES[14].as_bytes();
        for cut in 0..body.len() {
            assert!(
                serde_json::from_slice::<Response>(&body[..cut]).is_err(),
                "{cut}"
            );
        }
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
        // `Value`'s `PartialEq` says `NaN != NaN`: compare the bits.
        let floats = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let non_finite = Response::Rows(Rows {
            columns: vec!["x".into()],
            rows: floats.iter().map(|&f| vec![Value::Float(f)]).collect(),
            cached_plan: false,
        });
        let Response::Rows(back) = round_trip(&non_finite) else {
            panic!("expected Rows");
        };
        assert_eq!(back.rows.len(), floats.len());
        for (row, f) in back.rows.iter().zip(floats) {
            match row[..] {
                [Value::Float(x)] => assert_eq!(x.to_bits(), f.to_bits(), "{f}"),
                ref other => panic!("{f}: read back {other:?}"),
            }
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
