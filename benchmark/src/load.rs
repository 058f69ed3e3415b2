//! The timed window: closed-loop connections walking a request
//! source, every reply verified, latencies kept per class.

use crate::gen::{Class, ColdCursor, PeopleGraph, Pool, PooledCursor, BLOCK};
use crate::verify::{answer_of, Answer, ColdAnswers};
use crate::world::TENANT;
use gdm_server::protocol::Response;
use gdm_server::Client;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Where a connection's requests come from.
// One per connection, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Source {
    Pooled {
        cursor: PooledCursor,
        pool: Arc<Pool>,
        answers: Arc<Vec<Answer>>,
    },
    Cold {
        cursor: ColdCursor,
        graph: Arc<PeopleGraph>,
        answers: Arc<ColdAnswers>,
    },
}

/// One request: its class, its text, and what the reply must reduce to.
pub struct Ask {
    pub class: Class,
    pub text: String,
    pub want: Answer,
}

impl Source {
    pub fn next(&mut self) -> Ask {
        match self {
            Source::Pooled {
                cursor,
                pool,
                answers,
            } => {
                let t = cursor.next_text();
                Ask {
                    class: Pool::class_of(t),
                    text: pool.texts[t].clone(),
                    want: answers[t],
                }
            }
            Source::Cold {
                cursor,
                graph,
                answers,
            } => {
                let (class, text, ask) = cursor.next(graph);
                Ask {
                    class,
                    text,
                    want: answers.expect(ask),
                }
            }
        }
    }
}

/// True when `reply` carries exactly the wanted rows.
pub fn reply_is(reply: &io::Result<Response>, want: Answer) -> bool {
    matches!(reply, Ok(Response::Rows(r)) if answer_of(&r.rows) == want)
}

pub fn connect(addr: SocketAddr) -> io::Result<Client> {
    let mut client = Client::connect(addr)?;
    client.hello(TENANT, None)?;
    Ok(client)
}

/// What one connection measured in its window.
#[derive(Debug, Default)]
pub struct ConnStats {
    /// `(class, round trip in ms)` of every request of the window.
    pub lat_ms: Vec<(Class, f64)>,
    pub failed: u64,
    /// Length of this connection's window (whole blocks), seconds.
    pub elapsed_s: f64,
}

/// Runs one connection: whole warm-up blocks until `warmup` has passed
/// (plans cached, lazy set-up done), then — after every connection
/// reached `start` — whole measured blocks until `seconds` have
/// passed. Measuring whole blocks keeps the class mix of every window
/// identical (see [`BLOCK`]). A reply that is an error, refused,
/// interrupted, or carries the wrong rows counts as failed; after an
/// I/O error the connection is re-opened.
pub fn run_connection(
    addr: SocketAddr,
    mut source: Source,
    warmup: Duration,
    seconds: Duration,
    start: &Barrier,
) -> io::Result<ConnStats> {
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            // Reach the barrier even when failing, or the other
            // participants would wait for ever.
            start.wait();
            return Err(e);
        }
    };
    let mut stats = ConnStats::default();
    let mut block = |client: &mut Client, stats: &mut ConnStats, record: bool| -> io::Result<()> {
        for _ in 0..BLOCK {
            let ask = source.next();
            let t = Instant::now();
            let reply = client.query(&ask.text);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if record {
                stats.lat_ms.push((ask.class, ms));
                if !reply_is(&reply, ask.want) {
                    stats.failed += 1;
                }
            }
            if reply.is_err() {
                *client = connect(addr)?;
            }
        }
        Ok(())
    };
    let t = Instant::now();
    let warmed = loop {
        if let Err(e) = block(&mut client, &mut stats, false) {
            break Err(e);
        }
        if t.elapsed() >= warmup {
            break Ok(());
        }
    };
    start.wait();
    warmed?;
    let t = Instant::now();
    loop {
        block(&mut client, &mut stats, true)?;
        if t.elapsed() >= seconds {
            break;
        }
    }
    stats.elapsed_s = t.elapsed().as_secs_f64();
    let _ = client.goodbye();
    Ok(stats)
}
