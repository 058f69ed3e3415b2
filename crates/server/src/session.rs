//! One connection's life: authenticate, then serve requests.
//!
//! The session socket carries a short read timeout so the loop can
//! poll the server's stop flag between requests — that is what makes
//! shutdown a *drain* (in-flight queries finish, idle sessions close)
//! instead of an abort. The same poll points enforce the session's
//! two self-defense deadlines:
//!
//! - **Frame deadline** (slowloris cutoff): once a frame's first byte
//!   arrives, the whole frame must arrive within
//!   `ServerConfig::frame_deadline`, or the session is reaped — a
//!   client sending 4 length bytes and then dripping cannot pin a
//!   pooled worker.
//! - **Idle max-age**: a session that starts no frame for
//!   `ServerConfig::idle_timeout` is reaped between frames.
//!
//! Torn, oversized, or undecodable frames get a best-effort structured
//! `Error` reply and a close (`frame_errors`); a query whose execution
//! panics is contained by `catch_unwind` and closes only its own
//! session (`queries_poisoned`) — the worker thread survives to serve
//! the next connection.

use crate::admission::Shed;
use crate::protocol::{
    read_frame, write_frame, ErrorReply, Interrupted, Overloaded, QueryReq, Request, Response,
    Rows, Welcome,
};
use crate::server::Shared;
use gdm_govern::{CancelToken, ExecutionGuard};
use gdm_query::cypher::{self, CypherStatement};
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often an idle session re-checks the stop flag and its deadlines.
const POLL: Duration = Duration::from_millis(50);

/// Backoff hint for shed requests, scaled by why they were shed: a
/// queue-full shed clears as soon as one query finishes; a tenant-cap
/// shed means the client itself is the congestion.
fn retry_after_ms(shed: Shed) -> u64 {
    match shed {
        Shed::QueueFull => 10,
        Shed::TenantCap => 50,
    }
}

/// Runs one session to completion. Errors (broken pipe, torn frame,
/// tripped deadline) close the connection; the server keeps serving
/// others.
pub(crate) fn serve_session(mut stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    // A stalled reader cannot wedge the worker inside write_frame: the
    // write times out and the session closes.
    stream.set_write_timeout(Some(shared.write_timeout)).ok();
    stream.set_nodelay(true).ok();

    // First frame must be Hello; authenticate against the tenant list.
    // HEALTH is the one pre-auth command, so load balancers can probe
    // liveness without tenant credentials.
    let tenant = loop {
        let req = match next_request(&mut stream, shared) {
            Some(r) => r,
            None => return, // client left, reaped, or server draining
        };
        match req {
            Request::Hello(h) => {
                let known = shared.tenants.iter().find(|t| t.name == h.tenant);
                match known {
                    Some(t) if t.secret == h.secret => {
                        let welcome = Response::Welcome(Welcome {
                            engine: shared.current().engine.to_owned(),
                            tenant: t.name.clone(),
                        });
                        if write_frame(&mut stream, &welcome).is_err() {
                            return;
                        }
                        break t.name.clone();
                    }
                    Some(_) => {
                        let _ = write_frame(
                            &mut stream,
                            &Response::Error(ErrorReply {
                                message: format!("bad secret for tenant '{}'", h.tenant),
                            }),
                        );
                        return;
                    }
                    None => {
                        let _ = write_frame(
                            &mut stream,
                            &Response::Error(ErrorReply {
                                message: format!("unknown tenant '{}'", h.tenant),
                            }),
                        );
                        return;
                    }
                }
            }
            Request::Health => {
                if write_frame(&mut stream, &Response::Health(shared.health())).is_err() {
                    return;
                }
            }
            _ => {
                let reply = Response::Error(ErrorReply {
                    message: "session not authenticated: send Hello first".to_owned(),
                });
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
        }
    };

    loop {
        let req = match next_request(&mut stream, shared) {
            Some(r) => r,
            None => return,
        };
        match req {
            Request::Query(q) => {
                // Containment: a panic inside planning or execution
                // poisons this session only — reply with a structured
                // error where possible, close, and leave the pooled
                // worker alive for the next connection. The shared
                // state a query touches (snapshot Arc, atomics, the
                // admission permit released on unwind) stays
                // consistent, which is what makes the unwind safe to
                // assert across.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_query(shared, &tenant, &q)
                }));
                match result {
                    Ok(resp) => {
                        if write_frame(&mut stream, &resp).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        shared.queries_poisoned.fetch_add(1, Ordering::Relaxed);
                        let _ = write_frame(
                            &mut stream,
                            &Response::Error(ErrorReply {
                                message: "internal error: query execution panicked; \
                                          closing this session"
                                    .to_owned(),
                            }),
                        );
                        return;
                    }
                }
            }
            Request::Stats => {
                if write_frame(&mut stream, &Response::Stats(shared.stats())).is_err() {
                    return;
                }
            }
            Request::Health => {
                if write_frame(&mut stream, &Response::Health(shared.health())).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = write_frame(&mut stream, &Response::Bye);
                shared.trigger_stop();
                return;
            }
            Request::Goodbye => {
                let _ = write_frame(&mut stream, &Response::Bye);
                return;
            }
            Request::Hello(_) => {
                let reply = Response::Error(ErrorReply {
                    message: "session already authenticated".to_owned(),
                });
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
        }
    }
}

/// Admission → plan cache → governed execution, as one response.
///
/// The serving snapshot is pinned (one `Arc` clone) before planning
/// and held until the rows are produced: a live refresh swapping the
/// server's snapshot mid-query never moves the graph under this
/// execution, it only redirects *later* queries to the new epoch.
fn run_query(shared: &Arc<Shared>, tenant: &str, q: &QueryReq) -> Response {
    if shared.panic_injection && q.text.trim() == "::chaos-panic" {
        panic!("chaos: injected query panic");
    }
    let snapshot = shared.current();
    let permit = match shared.admission.admit(tenant) {
        Ok(p) => p,
        Err(shed) => {
            return Response::Overloaded(Overloaded {
                scope: shed.scope().to_owned(),
                retry_after_ms: retry_after_ms(shed),
            })
        }
    };

    // The text is looked up before it is parsed: a hit needs no parse.
    // Cache lookups carry the pinned snapshot's epoch: a plan cached
    // against an older (or newer) snapshot misses and is evicted, so a
    // refresh needs no coordinated cache clear. Only a text that parsed
    // as MATCH and planned is ever inserted.
    let key = q.text.trim();
    let epoch = snapshot.frozen.epoch();
    let (planned, cached_plan) = match shared.cache.get_epoch(key, epoch) {
        Some(p) => (p, true),
        None => {
            let select = match cypher::parse(key) {
                Ok(CypherStatement::Select(s)) => *s,
                Ok(_) => return Response::Error(ErrorReply {
                    message:
                        "the server serves an immutable snapshot: only MATCH queries are accepted"
                            .to_owned(),
                }),
                Err(e) => {
                    return Response::Error(ErrorReply {
                        message: e.to_string(),
                    })
                }
            };
            let planned = match gdm_query::plan_select(&snapshot.frozen, &select) {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    return Response::Error(ErrorReply {
                        message: e.to_string(),
                    })
                }
            };
            shared.cache.insert_epoch(key, epoch, planned.clone());
            (planned, false)
        }
    };

    let guard = match shared.pool.get(tenant) {
        Some(allowance) => {
            ExecutionGuard::with_allowance(shared.limits, CancelToken::new(), allowance)
        }
        None => ExecutionGuard::with_cancel(shared.limits, CancelToken::new()),
    };
    let result = gdm_query::execute_planned_governed(&snapshot.frozen, &planned, &guard);
    drop(permit);

    match result {
        Ok(rs) => Response::Rows(Rows {
            columns: rs.columns,
            rows: rs.rows,
            cached_plan,
        }),
        Err(e) if e.is_interrupted() => {
            let reason = e
                .interrupt_reason()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "interrupted".to_owned());
            let partial = match e {
                gdm_core::GdmError::Interrupted { partial, .. } => partial,
                _ => 0,
            };
            Response::Interrupted(Interrupted { reason, partial })
        }
        Err(e) => Response::Error(ErrorReply {
            message: e.to_string(),
        }),
    }
}

/// Reads the next request, classifying every failure: `None` means
/// the session is over (clean EOF, drain, reap, or a counted frame
/// error that got its best-effort structured reply here).
fn next_request(stream: &mut TcpStream, shared: &Arc<Shared>) -> Option<Request> {
    let mut polled = Polled {
        stream,
        shared,
        idle_since: Instant::now(),
        frame_start: None,
    };
    match read_frame(&mut polled) {
        Ok(r) => r,
        Err(e) => {
            if matches!(
                e.kind(),
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
            ) {
                shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                // Best-effort structured goodbye; on a torn frame the
                // peer is often already gone and the write just fails.
                let _ = write_frame(
                    stream,
                    &Response::Error(ErrorReply {
                        message: format!("protocol error: {e}; closing session"),
                    }),
                );
            }
            None
        }
    }
}

/// The session socket as [`read_frame`] sees it: a read waits out the
/// socket's poll timeouts, and each poll point enforces the session's
/// deadlines. Before a frame's first byte, a poll returns `Ok(0)` — a
/// clean end between frames — when the server is draining or the idle
/// max-age has passed (the latter counted in `sessions_reaped`). After
/// it, the frame deadline is checked on every read and every poll: a
/// slowloris drip is cut off with a `TimedOut` error (counted in
/// `sessions_reaped`) instead of holding the worker hostage.
struct Polled<'a> {
    stream: &'a mut TcpStream,
    shared: &'a Shared,
    idle_since: Instant,
    /// When the current frame's first byte arrived.
    frame_start: Option<Instant>,
}

impl Polled<'_> {
    fn reap_check(&self, frame_start: Instant) -> io::Result<()> {
        if frame_start.elapsed() >= self.shared.frame_deadline {
            self.shared.sessions_reaped.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame read deadline exceeded (slowloris cutoff)",
            ));
        }
        Ok(())
    }
}

impl Read for Polled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    let t0 = *self.frame_start.get_or_insert_with(Instant::now);
                    self.reap_check(t0)?;
                    return Ok(n);
                }
                Err(e) if is_timeout(&e) => match self.frame_start {
                    Some(t0) => self.reap_check(t0)?,
                    None if self.shared.stop.load(Ordering::Acquire) => return Ok(0),
                    None if self.idle_since.elapsed() >= self.shared.idle_timeout => {
                        self.shared.sessions_reaped.fetch_add(1, Ordering::Relaxed);
                        return Ok(0);
                    }
                    None => {}
                },
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
