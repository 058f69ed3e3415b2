//! Deterministic fault-injecting TCP proxy for resilience testing.
//!
//! A [`ChaosProxy`] sits between clients and a `gdm-server`, forwarding
//! bytes while injecting network faults according to a seed-driven
//! schedule: abrupt disconnects, partial writes (a frame cut mid-body),
//! delayed bytes, garbage frames, truncated frames, and slowloris
//! drip-feeds that start a frame and never finish it. Every fault is
//! chosen by accept order from [`ChaosConfig::schedule`] and
//! parameterised from [`ChaosConfig::seed`], so a run is reproducible:
//! same seed, same schedule, same faults in the same order.
//!
//! The proxy is intentionally *connection-terminal* about corruption:
//! once it has injected garbage or torn a frame it cuts the connection
//! rather than resuming pass-through, so a client can never read a
//! reply that belongs to a corrupted request — recovery is always a
//! clean reconnect (which [`crate::RetryingClient`] performs
//! transparently). Delay faults are the exception: they only stretch
//! time, never corrupt, and the connection survives.
//!
//! Used by `tests/server_chaos.rs`; the design notes live in
//! DESIGN.md §15.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often proxy relay loops wake to poll the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// One connection's fault plan. Byte counts apply to the
/// client→server direction, which is where a hostile or unlucky
/// network hurts a server most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Clean pass-through in both directions.
    None,
    /// Forward `after_bytes` client bytes, then cut both directions
    /// abruptly — possibly mid-frame, possibly mid-reply.
    Disconnect {
        /// Client bytes forwarded before the cut.
        after_bytes: usize,
    },
    /// Forward only `forward` client bytes, then half-close the
    /// upstream write side: the server sees a frame that stops
    /// mid-body (a torn write), while its error reply still reaches
    /// the client.
    PartialWrite {
        /// Client bytes forwarded before the write side goes quiet.
        forward: usize,
    },
    /// Forward everything, but pause `pause_ms` after every `every`
    /// bytes — a slow network, not a broken one. Non-terminal.
    Delay {
        /// Bytes between pauses.
        every: usize,
        /// Length of each pause, in milliseconds.
        pause_ms: u64,
    },
    /// Forward `after_bytes` client bytes, then inject a well-formed
    /// length prefix followed by `len` random bytes that are not JSON,
    /// then cut.
    Garbage {
        /// Client bytes forwarded before the injection.
        after_bytes: usize,
        /// Garbage body length.
        len: u32,
    },
    /// Forward `after_bytes` client bytes, then send a length prefix
    /// claiming `claim` bytes, deliver only `send` of them, and cut —
    /// the server reads EOF mid-frame.
    Truncate {
        /// Client bytes forwarded before the truncated frame.
        after_bytes: usize,
        /// Body length the prefix promises.
        claim: u32,
        /// Body bytes actually delivered (< `claim`).
        send: usize,
    },
    /// Never forward the client at all: start a frame claiming `claim`
    /// bytes and drip `drip` bytes every `pause_ms`, holding the
    /// connection hostage until the server's frame deadline reaps it.
    Slowloris {
        /// Body length the prefix promises.
        claim: u32,
        /// Bytes dripped per pause.
        drip: usize,
        /// Milliseconds between drips.
        pause_ms: u64,
    },
}

/// Seed plus per-connection schedule; connection `i` (accept order)
/// gets `schedule[i % schedule.len()]`.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seeds the garbage-byte generator and any derived parameters.
    pub seed: u64,
    /// Fault plans, cycled by accept order. Empty means pass-through.
    pub schedule: Vec<Fault>,
}

impl ChaosConfig {
    /// Pass-through proxy: useful as the control arm of an experiment.
    pub fn clean(seed: u64) -> Self {
        ChaosConfig {
            seed,
            schedule: vec![Fault::None],
        }
    }

    /// Every fault category, interleaved with clean connections so
    /// retrying clients always make progress. Parameters are derived
    /// from `seed`, so two runs with the same seed inject the same
    /// faults at the same byte offsets.
    pub fn full_menu(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = vec![
            Fault::None,
            Fault::Garbage {
                after_bytes: rng.gen_range(5usize..40),
                len: rng.gen_range(8u32..128),
            },
            Fault::None,
            Fault::Truncate {
                after_bytes: rng.gen_range(5usize..40),
                claim: rng.gen_range(64u32..512),
                send: rng.gen_range(1usize..32),
            },
            Fault::None,
            Fault::Disconnect {
                // Low enough that a Hello plus one query always crosses
                // it — the cut is guaranteed to be exercised.
                after_bytes: rng.gen_range(10usize..100),
            },
            Fault::None,
            Fault::PartialWrite {
                forward: rng.gen_range(5usize..25),
            },
            Fault::None,
            Fault::Slowloris {
                claim: 64 * 1024,
                drip: rng.gen_range(1usize..8),
                pause_ms: 40,
            },
            Fault::None,
            Fault::Delay {
                every: rng.gen_range(16usize..48),
                pause_ms: rng.gen_range(3u64..12),
            },
        ];
        ChaosConfig { seed, schedule }
    }
}

/// Counts of faults actually *injected* (a plan whose connection ends
/// before its trigger byte offset injects nothing and counts nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections proxied cleanly end to end.
    pub passthrough: u64,
    /// Abrupt two-way cuts injected.
    pub disconnects: u64,
    /// Frames torn by a half-closed write side.
    pub partial_writes: u64,
    /// Connections stretched by injected pauses.
    pub delays: u64,
    /// Garbage frames injected.
    pub garbage_frames: u64,
    /// Truncated frames injected.
    pub truncated_frames: u64,
    /// Slowloris drip-feeds injected.
    pub slowloris: u64,
}

#[derive(Default)]
struct StatsInner {
    connections: AtomicU64,
    passthrough: AtomicU64,
    disconnects: AtomicU64,
    partial_writes: AtomicU64,
    delays: AtomicU64,
    garbage_frames: AtomicU64,
    truncated_frames: AtomicU64,
    slowloris: AtomicU64,
}

/// The running proxy: accepts on its own port, forwards to the
/// upstream server, injects faults per its schedule.
pub struct ChaosProxy {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: Arc<StatsInner>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts proxying to
    /// `upstream`.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(StatsInner::default());

        let acceptor = {
            let stop = stop.clone();
            let conns = conns.clone();
            let stats = stats.clone();
            std::thread::spawn(move || {
                let mut idx = 0usize;
                loop {
                    match listener.accept() {
                        Ok((client, _)) => {
                            if stop.load(Ordering::Acquire) {
                                break; // the wake-up connection
                            }
                            let plan = if config.schedule.is_empty() {
                                Fault::None
                            } else {
                                config.schedule[idx % config.schedule.len()]
                            };
                            // Unique per connection, stable per run.
                            let conn_seed = config.seed.wrapping_add(idx as u64);
                            idx += 1;
                            stats.connections.fetch_add(1, Ordering::Relaxed);
                            let stop = stop.clone();
                            let stats = stats.clone();
                            let handle = std::thread::spawn(move || {
                                handle_conn(client, upstream, plan, conn_seed, &stats, stop);
                            });
                            conns.lock().expect("chaos conns lock").push(handle);
                        }
                        Err(_) => {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                        }
                    }
                }
            })
        };

        Ok(ChaosProxy {
            local,
            stop,
            acceptor: Some(acceptor),
            conns,
            stats,
        })
    }

    /// The address clients should connect to instead of the server's.
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// Snapshot of injected-fault counters.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            passthrough: self.stats.passthrough.load(Ordering::Relaxed),
            disconnects: self.stats.disconnects.load(Ordering::Relaxed),
            partial_writes: self.stats.partial_writes.load(Ordering::Relaxed),
            delays: self.stats.delays.load(Ordering::Relaxed),
            garbage_frames: self.stats.garbage_frames.load(Ordering::Relaxed),
            truncated_frames: self.stats.truncated_frames.load(Ordering::Relaxed),
            slowloris: self.stats.slowloris.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, cuts live proxied connections, joins all
    /// threads. Also runs on drop.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.local); // wake the acceptor
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        let handles: Vec<JoinHandle<()>> = self
            .conns
            .lock()
            .expect("chaos conns lock")
            .drain(..)
            .collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Cuts both directions of both streams; errors mean "already cut".
fn cut(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Forwards up to `n` bytes from `src` to `dst`. Returns `Ok(true)` if
/// all `n` were forwarded (the fault's trigger point was reached),
/// `Ok(false)` on EOF or stop before that.
fn forward_n(src: &mut TcpStream, dst: &mut TcpStream, n: usize, stop: &AtomicBool) -> bool {
    let mut buf = [0u8; 4096];
    let mut done = 0usize;
    while done < n {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let want = (n - done).min(buf.len());
        match src.read(&mut buf[..want]) {
            Ok(0) => return false,
            Ok(k) => {
                if dst.write_all(&buf[..k]).is_err() {
                    return false;
                }
                done += k;
            }
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Forwards until EOF, stop, or a write failure; `pause` injects a
/// sleep every so many bytes (the Delay fault).
fn forward_all(
    src: &mut TcpStream,
    dst: &mut TcpStream,
    stop: &AtomicBool,
    pause: Option<(usize, Duration)>,
) {
    let mut buf = [0u8; 4096];
    let mut since_pause = 0usize;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match src.read(&mut buf) {
            Ok(0) => return,
            Ok(k) => {
                if let Some((every, nap)) = pause {
                    // Dripping in `every`-byte steps with a nap between
                    // them stretches delivery without corrupting it.
                    let mut sent = 0usize;
                    while sent < k {
                        let step = (k - sent).min(every.max(1));
                        if dst.write_all(&buf[sent..sent + step]).is_err() {
                            return;
                        }
                        sent += step;
                        since_pause += step;
                        if since_pause >= every.max(1) {
                            since_pause = 0;
                            std::thread::sleep(nap);
                        }
                    }
                } else if dst.write_all(&buf[..k]).is_err() {
                    return;
                }
            }
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn handle_conn(
    client: TcpStream,
    upstream_addr: SocketAddr,
    plan: Fault,
    conn_seed: u64,
    stats: &StatsInner,
    stop: Arc<AtomicBool>,
) {
    let upstream = match TcpStream::connect(upstream_addr) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    for s in [&client, &upstream] {
        if s.set_read_timeout(Some(POLL)).is_err() {
            cut(&client, &upstream);
            return;
        }
        s.set_write_timeout(Some(Duration::from_secs(5))).ok();
        s.set_nodelay(true).ok();
    }

    // Server→client replies relay unmodified on their own thread; it
    // ends when either side closes and then cuts whatever is left.
    let reply_relay = {
        let mut up = match upstream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                cut(&client, &upstream);
                return;
            }
        };
        let mut cl = match client.try_clone() {
            Ok(s) => s,
            Err(_) => {
                cut(&client, &upstream);
                return;
            }
        };
        let stop = stop.clone();
        std::thread::spawn(move || {
            forward_all(&mut up, &mut cl, &stop, None);
            cut(&cl, &up);
        })
    };

    run_plan(client, upstream, plan, conn_seed, stats, &stop);
    let _ = reply_relay.join();
}

fn run_plan(
    mut client: TcpStream,
    mut upstream: TcpStream,
    plan: Fault,
    conn_seed: u64,
    stats: &StatsInner,
    stop: &AtomicBool,
) {
    match plan {
        Fault::None => {
            stats.passthrough.fetch_add(1, Ordering::Relaxed);
            forward_all(&mut client, &mut upstream, stop, None);
            cut(&client, &upstream);
        }
        Fault::Delay { every, pause_ms } => {
            stats.delays.fetch_add(1, Ordering::Relaxed);
            let pause = (every, Duration::from_millis(pause_ms));
            forward_all(&mut client, &mut upstream, stop, Some(pause));
            cut(&client, &upstream);
        }
        Fault::Disconnect { after_bytes } => {
            if forward_n(&mut client, &mut upstream, after_bytes, stop) {
                stats.disconnects.fetch_add(1, Ordering::Relaxed);
            }
            cut(&client, &upstream);
        }
        Fault::PartialWrite { forward } => {
            if forward_n(&mut client, &mut upstream, forward, stop) {
                stats.partial_writes.fetch_add(1, Ordering::Relaxed);
                // Half-close: the server sees EOF mid-frame, and its
                // structured error reply still relays back to the
                // client before everything winds down.
                let _ = upstream.shutdown(Shutdown::Write);
                forward_all(&mut client, &mut upstream, stop, None);
            }
            cut(&client, &upstream);
        }
        Fault::Garbage { after_bytes, len } => {
            if forward_n(&mut client, &mut upstream, after_bytes, stop) {
                let mut rng = StdRng::seed_from_u64(conn_seed);
                let mut frame = Vec::with_capacity(4 + len as usize);
                frame.extend_from_slice(&len.to_be_bytes());
                for _ in 0..len {
                    frame.push(rng.gen_range(0u32..256) as u8);
                }
                if upstream.write_all(&frame).is_ok() {
                    stats.garbage_frames.fetch_add(1, Ordering::Relaxed);
                }
            }
            cut(&client, &upstream);
        }
        Fault::Truncate {
            after_bytes,
            claim,
            send,
        } => {
            if forward_n(&mut client, &mut upstream, after_bytes, stop) {
                let mut rng = StdRng::seed_from_u64(conn_seed);
                let send = send.min(claim.saturating_sub(1) as usize);
                let mut frame = Vec::with_capacity(4 + send);
                frame.extend_from_slice(&claim.to_be_bytes());
                for _ in 0..send {
                    frame.push(rng.gen_range(0u32..256) as u8);
                }
                if upstream.write_all(&frame).is_ok() {
                    stats.truncated_frames.fetch_add(1, Ordering::Relaxed);
                }
            }
            cut(&client, &upstream);
        }
        Fault::Slowloris {
            claim,
            drip,
            pause_ms,
        } => {
            stats.slowloris.fetch_add(1, Ordering::Relaxed);
            let mut rng = StdRng::seed_from_u64(conn_seed);
            let drip = drip.max(1);
            let pause = Duration::from_millis(pause_ms.max(1));
            let mut sent = 0usize;
            let budget = claim.saturating_sub(1) as usize; // never finish
            if upstream.write_all(&claim.to_be_bytes()).is_err() {
                cut(&client, &upstream);
                return;
            }
            while sent < budget && !stop.load(Ordering::Acquire) {
                let step = drip.min(budget - sent);
                let mut chunk = Vec::with_capacity(step);
                for _ in 0..step {
                    chunk.push(rng.gen_range(0u32..256) as u8);
                }
                if upstream.write_all(&chunk).is_err() {
                    break; // the server reaped us — mission accomplished
                }
                sent += step;
                std::thread::sleep(pause);
            }
            cut(&client, &upstream);
        }
    }
}
