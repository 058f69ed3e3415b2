//! Seeded fuzzing of the server's wire-protocol surface.
//!
//! Several hundred adversarial connections throw malformed input at a
//! live server — random bytes, truncated frames, oversized length
//! prefixes, garbage JSON, structurally valid JSON of the wrong shape,
//! and post-`Hello` corruption — and assert the contract the hardening
//! work promises: the server never panics, never hangs, answers each
//! mangled frame with a structured `Error` (or a clean close when the
//! bytes are beyond parsing), counts every incident in `frame_errors`,
//! and keeps serving well-formed sessions throughout. The corpus is
//! generated from a fixed seed, so a failure reproduces exactly; one
//! fixed input follows it, a frame nested 100 000 arrays deep.

use graph_db_models::core::props;
use graph_db_models::engines::{make_engine, EngineKind};
use graph_db_models::server::protocol::{Response, MAX_FRAME};
use graph_db_models::server::{serve, Client, ServerConfig, TenantConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SEED: u64 = 0xF422_0001;
const CASES: usize = 300;

fn server() -> (graph_db_models::server::ServerHandle, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("gdm-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut db = make_engine(EngineKind::Neo4j, &dir).unwrap();
    for i in 0..10 {
        db.create_node(Some("person"), props! { "name" => format!("p{i}") })
            .unwrap();
    }
    let mut config = ServerConfig {
        workers: 4,
        // Torn frames otherwise wait out the full default deadline.
        frame_deadline: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    config.tenants.push(TenantConfig::new("alpha", 1));
    let handle = serve(db.serving_snapshot().unwrap(), config).unwrap();
    (handle, dir)
}

/// One adversarial payload, chosen and filled from the per-case rng.
fn corpus_case(rng: &mut StdRng) -> Vec<u8> {
    let hello = br#"{"Hello":{"tenant":"alpha","secret":null}}"#;
    let frame = |body: &[u8]| {
        let mut f = Vec::with_capacity(4 + body.len());
        f.extend_from_slice(&(body.len() as u32).to_be_bytes());
        f.extend_from_slice(body);
        f
    };
    let garbage = |rng: &mut StdRng, n: usize| -> Vec<u8> {
        (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect()
    };
    match rng.gen_range(0u32..6) {
        // Raw bytes, no framing discipline at all.
        0 => {
            let n = rng.gen_range(1usize..64);
            garbage(rng, n)
        }
        // Well-framed garbage body (not JSON).
        1 => {
            let n = rng.gen_range(1usize..128);
            frame(&garbage(rng, n))
        }
        // Truncated frame: the prefix promises more than arrives.
        2 => {
            let claim = rng.gen_range(16u32..4096);
            let send = rng.gen_range(0usize..16);
            let mut f = claim.to_be_bytes().to_vec();
            f.extend_from_slice(&garbage(rng, send));
            f
        }
        // Oversized length prefix (over MAX_FRAME, up to u32::MAX).
        3 => {
            let claim = rng.gen_range(MAX_FRAME + 1..u32::MAX);
            claim.to_be_bytes().to_vec()
        }
        // Valid JSON, wrong shape for a Request.
        4 => {
            let bodies: [&[u8]; 4] = [
                b"{}",
                b"[1,2,3]",
                br#"{"Hello":"not-a-struct"}"#,
                br#"{"Nonsense":{"x":1}}"#,
            ];
            frame(bodies[rng.gen_range(0usize..bodies.len())])
        }
        // A legitimate Hello, then corruption mid-session.
        _ => {
            let mut f = frame(hello);
            let n = rng.gen_range(1usize..96);
            f.extend_from_slice(&frame(&garbage(rng, n)));
            f
        }
    }
}

/// Sends `payload` on a fresh connection, half-closes it, and drains
/// whatever the server answers until it closes. Says whether the
/// answer held a structured `Error`.
fn send_and_drain(addr: std::net::SocketAddr, payload: &[u8], case: usize) -> bool {
    let mut s = TcpStream::connect(addr).expect("fuzz connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    // The server may close mid-write (it already rejected the
    // prefix); a broken pipe here is the server being *correct*.
    let _ = s.write_all(payload);
    let _ = s.shutdown(std::net::Shutdown::Write);
    // Drain whatever the server answers until it closes. The read
    // deadline bounds this: a hang would fail the test, not CI.
    let mut reply = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                assert!(
                    !timed_out,
                    "case {case}: server went silent without closing"
                );
                break; // reset/abort: also a close
            }
        }
    }
    reply.windows(b"Error".len()).any(|w| w == b"Error")
}

/// A well-formed session still gets its `Welcome` and all 10 rows.
fn assert_healthy(addr: std::net::SocketAddr, case: usize) {
    let mut c = Client::connect(addr).expect("healthy connect");
    match c.hello("alpha", None).expect("healthy hello") {
        Response::Welcome(_) => {}
        other => panic!("case {case}: expected Welcome, got {other:?}"),
    }
    match c
        .query("MATCH (p:person) RETURN p.name")
        .expect("healthy query")
    {
        Response::Rows(r) => assert_eq!(r.rows.len(), 10),
        other => panic!("case {case}: expected Rows, got {other:?}"),
    }
    c.goodbye().ok();
}

#[test]
fn fuzzed_frames_get_structured_errors_and_never_wedge_the_server() {
    let (handle, dir) = server();
    let addr = handle.addr();
    let before = handle.stats();
    let mut structured_errors = 0u64;

    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(case as u64));
        let payload = corpus_case(&mut rng);
        if send_and_drain(addr, &payload, case) {
            structured_errors += 1;
        }

        // Every tenth case, prove a well-formed session still works —
        // the fuzz traffic must not degrade real service.
        if case % 10 == 0 {
            assert_healthy(addr, case);
        }
    }

    // One fixed input after the seeded corpus, so its cases do not
    // shift: a frame of 100 000 `[`, sent before any `Hello`. Decoding
    // must stop at the nesting limit with an error; recursing that deep
    // would overflow the session worker's stack and abort the process.
    let before_deep = handle.stats().frame_errors;
    let mut deep = (100_000u32).to_be_bytes().to_vec();
    deep.resize(4 + 100_000, b'[');
    send_and_drain(addr, &deep, CASES);
    assert_eq!(handle.stats().frame_errors - before_deep, 1);
    assert_healthy(addr, CASES);

    let after = handle.stats();
    let frame_errors = after.frame_errors - before.frame_errors;
    assert!(
        frame_errors >= (CASES / 2) as u64,
        "most corpus cases must be counted as frame errors, got {frame_errors}"
    );
    assert!(
        structured_errors >= (CASES / 10) as u64,
        "parseable-but-wrong frames must earn structured Error replies, got {structured_errors}"
    );
    assert_eq!(
        after.queries_poisoned, 0,
        "fuzzing must never reach a panic"
    );

    // Final proof of life, then a clean drain.
    let mut c = Client::connect(addr).expect("final connect");
    c.hello("alpha", None).expect("final hello");
    assert!(matches!(
        c.query("MATCH (p:person) RETURN p.name").unwrap(),
        Response::Rows(_)
    ));
    c.goodbye().ok();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
