//! The driver endpoint: client threads and the monitor live in this
//! process; servers are reached over sockets.
//!
//! [`NetClient`] owns the **client→server** half of the fault schedule:
//! every request goes through the shared [`Realizer`] exactly like on the
//! in-process bus, and this endpoint's sink writes the tagged frame to the
//! destination server's connection — so a `Duplicate` is the same tagged
//! frame twice (the server's dedup window absorbs the copy), and a
//! crash-window exit writes the exempt amnesia signal *before* the
//! triggering frame on the same FIFO connection. The schedule draws no
//! `Reorder`/`Delay` on client→server links, so this endpoint never holds
//! a frame back or starts a delayer. A batched send (one client's
//! buffered requests) goes out as one `EnvBatch` frame per destination
//! server, packed by [`Realizer::realize_batch`] — the packer the server
//! endpoint uses for its replies.
//!
//! Inbound frames are replies: each reader thread reads its connection
//! through a buffer and admits every envelope —
//! an `Env` frame as a batch of one — through the connection's dedup
//! window and routes it to the issuing client's lane by its `re` header
//! via [`ReplyRouter`]; replies to retired tags count as
//! `net.rpc.tag_mismatch_drops`.

use std::io::BufReader;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::flight::FlightDump;
use blunt_obs::FlightRecorder;

use crate::conn::Addr;
use crate::fault::{FaultConfig, FaultConfigError};
use crate::frame::{read_frame, Frame, TaggedEnv, DRIVER_NODE};
use crate::injector::{Injector, Realizer, TransportStats};
use crate::pool::ConnectionPool;
use crate::rpc::{DedupWindow, ReplyRouter, TagGen};
use crate::wire::Envelope;
use crate::{Coverage, Transport};

/// How a driver reaches its servers.
pub struct NetClientCfg {
    /// Fault-schedule seed (shared with the servers' own injectors).
    pub seed: u64,
    /// Fault configuration (shared likewise).
    pub faults: FaultConfig,
    /// One listen address per server, index = server pid.
    pub servers: Vec<Addr>,
    /// Number of client threads this driver runs.
    pub clients: u32,
    /// Whether crash-window exits raise the amnesia signal (sent to the
    /// crashed server as an exempt [`Payload::Crash`](crate::Payload::Crash) frame).
    pub signal_crashes: bool,
}

/// A server's parting stats, reported in its `Goodbye` frame at shutdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerGoodbye {
    /// Crash events the server processed.
    pub crashes: u64,
    /// Recoveries it completed.
    pub recoveries: u64,
    /// WAL records it lost to crashes.
    pub wal_lost: u64,
    /// WAL records it replayed during recoveries.
    pub wal_replayed: u64,
    /// p99 WAL fsync latency (µs) over the server's whole run.
    pub fsync_p99_us: u64,
}

/// A server's cumulative telemetry snapshot, shipped periodically over the
/// driver connection as a `Telemetry` frame. Last-writer-wins on the
/// driver side, so a server that dies before its `Goodbye` still leaves
/// its most recent counters behind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerTelemetry {
    /// Recoveries completed so far.
    pub recoveries: u64,
    /// Crash events processed so far.
    pub crashes: u64,
    /// WAL fsyncs performed so far.
    pub fsync_count: u64,
    /// Running p99 WAL fsync latency (µs).
    pub fsync_p99_us: u64,
    /// Flight events recorded so far that carry a span.
    pub span_events: u64,
    /// Flight events recorded so far, total.
    pub events: u64,
}

/// What the driver knows about one remote server process: its estimated
/// clock offset and the latest telemetry/dump it shipped back.
#[derive(Clone, Debug, Default)]
pub struct RemoteServer {
    /// Estimated offset of the server's flight clock relative to the
    /// driver's (`remote_t ≈ driver_t + offset_us`), from the latest
    /// `Hello`/`HelloAck` round trip.
    pub offset_us: i64,
    /// The most recent `Telemetry` snapshot, if any arrived.
    pub telemetry: Option<ServerTelemetry>,
    /// The bounded flight dump piggybacked on the server's `Goodbye`, if
    /// one arrived and parsed.
    pub dump: Option<FlightDump>,
}

/// State the per-connection reader threads share with the send path.
struct Shared {
    router: ReplyRouter,
    /// One mailbox per client lane (lane = pid − servers).
    lanes: Vec<Sender<Envelope>>,
    goodbyes: Mutex<Vec<Option<ServerGoodbye>>>,
    /// Per-server remote state (index = server pid).
    remote: Mutex<Vec<RemoteServer>>,
    /// The driver's flight recorder — its clock is the reference frame for
    /// clock-offset estimation.
    flight: Arc<FlightRecorder>,
}

impl Shared {
    /// Admits inbound envelopes, in order: each passes the connection's
    /// dedup window and is routed to its client's lane by `re`.
    fn admit(&self, dedup: &mut DedupWindow, entries: impl IntoIterator<Item = TaggedEnv>) {
        for e in entries {
            if !dedup.admit(e.tag) {
                blunt_obs::static_counter!("net.rpc.dedup_drops").inc();
                continue;
            }
            match self.router.route(e.re) {
                Some(lane) => {
                    let _ = self.lanes[lane].send(e.env.in_reply_to(e.tag));
                }
                None => {
                    blunt_obs::static_counter!("net.rpc.tag_mismatch_drops").inc();
                }
            }
        }
    }

    fn reader_loop(&self, peer: usize, stream: crate::conn::Stream) {
        // Buffered: frames that arrive back to back cost one read syscall.
        let mut stream = BufReader::new(stream);
        let mut dedup = DedupWindow::new(1024);
        loop {
            let frame = match read_frame(&mut stream) {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => return,
            };
            match frame {
                Frame::Env { tag, re, env } => {
                    self.admit(&mut dedup, [TaggedEnv { tag, re, env }]);
                }
                Frame::EnvBatch { entries } => self.admit(&mut dedup, entries),
                Frame::HelloAck { echo_t, t_us, .. } => {
                    // Cristian's algorithm: assume the reply took half the
                    // round trip, so the server stamped `t_us` at roughly
                    // driver-time `echo_t + rtt/2`.
                    let now = self.flight.now_us();
                    let rtt = now.saturating_sub(echo_t);
                    let offset = t_us as i64 - (echo_t + rtt / 2) as i64;
                    self.remote.lock().expect("remote lock")[peer].offset_us = offset;
                }
                Frame::Telemetry {
                    recoveries,
                    crashes,
                    fsync_count,
                    fsync_p99_us,
                    span_events,
                    events,
                    ..
                } => {
                    self.remote.lock().expect("remote lock")[peer].telemetry =
                        Some(ServerTelemetry {
                            recoveries,
                            crashes,
                            fsync_count,
                            fsync_p99_us,
                            span_events,
                            events,
                        });
                }
                Frame::Goodbye {
                    crashes,
                    recoveries,
                    wal_lost,
                    wal_replayed,
                    fsync_p99_us,
                    ref dump,
                    ..
                } => {
                    if !dump.is_empty() {
                        if let Ok(parsed) = FlightDump::parse(dump) {
                            self.remote.lock().expect("remote lock")[peer].dump = Some(parsed);
                        }
                    }
                    self.goodbyes.lock().expect("goodbye lock")[peer] = Some(ServerGoodbye {
                        crashes,
                        recoveries,
                        wal_lost,
                        wal_replayed,
                        fsync_p99_us,
                    });
                }
                // Servers never send these to a driver.
                Frame::Hello { .. } | Frame::Shutdown => {}
            }
        }
    }
}

/// The driver-process transport: sockets to every server, the
/// client→server fault links, and reply routing back to client lanes.
pub struct NetClient {
    servers: u32,
    realizer: Realizer<TaggedEnv>,
    pool: Arc<ConnectionPool>,
    tags: TagGen,
    shared: Arc<Shared>,
    flight: Arc<FlightRecorder>,
}

impl NetClient {
    /// Connects to every server in `cfg`, returning the transport plus one
    /// inbound mailbox per client lane (index = client pid − servers).
    /// Connections are dialed lazily on first send and self-heal across
    /// server restarts.
    ///
    /// # Errors
    ///
    /// [`FaultConfigError`] for unusable fault configurations; connection
    /// errors surface later, on send, as silently lost frames (the
    /// retransmission layer absorbs them).
    pub fn connect(
        cfg: &NetClientCfg,
        flight: Arc<FlightRecorder>,
    ) -> Result<(Arc<NetClient>, Vec<Receiver<Envelope>>), FaultConfigError> {
        let servers = cfg.servers.len() as u32;
        let nodes = servers + cfg.clients;
        let injector = Injector::new(cfg.seed, cfg.faults, servers, nodes, cfg.signal_crashes)?;
        let mut lanes = Vec::with_capacity(cfg.clients as usize);
        let mut receivers = Vec::with_capacity(cfg.clients as usize);
        for _ in 0..cfg.clients {
            let (tx, rx) = mpsc::channel();
            lanes.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            router: ReplyRouter::new(cfg.clients as usize),
            lanes,
            goodbyes: Mutex::new(vec![None; cfg.servers.len()]),
            remote: Mutex::new(vec![RemoteServer::default(); cfg.servers.len()]),
            flight: Arc::clone(&flight),
        });
        let reader_shared = Arc::clone(&shared);
        let hello_flight = Arc::clone(&flight);
        let pool = Arc::new(ConnectionPool::new(
            cfg.servers.clone(),
            // Fresh clock sample per dial: the server echoes `t_us` in its
            // `HelloAck`, giving the reader loop one offset estimate per
            // (re)connection.
            move || Frame::Hello {
                node: DRIVER_NODE,
                t_us: hello_flight.now_us(),
            },
            move |peer, stream| {
                let shared = Arc::clone(&reader_shared);
                std::thread::spawn(move || shared.reader_loop(peer, stream));
            },
        ));
        let late = Arc::clone(&pool);
        let client = Arc::new(NetClient {
            servers,
            realizer: Realizer::new(injector, move |t| write(&late, t)),
            pool,
            tags: TagGen::new(),
            shared,
            flight,
        });
        Ok((client, receivers))
    }

    /// `env` under a fresh tag, registered for reply routing when the
    /// sender is a client lane. Exempt frames keep their reply
    /// correlation; faulted traffic is always unsolicited from this
    /// endpoint.
    fn tagged(&self, env: Envelope) -> TaggedEnv {
        let tag = self.tags.next();
        if env.src.0 >= self.servers {
            self.shared
                .router
                .register((env.src.0 - self.servers) as usize, tag);
        }
        let re = if env.exempt { env.reply_to } else { 0 };
        TaggedEnv {
            tag,
            re,
            env: Envelope { reply_to: 0, ..env },
        }
    }

    /// Total recoveries across all servers' latest telemetry snapshots —
    /// the live number `--watch` shows while the run is still going.
    #[must_use]
    pub fn remote_recoveries(&self) -> u64 {
        self.shared
            .remote
            .lock()
            .expect("remote lock")
            .iter()
            .filter_map(|r| r.telemetry.map(|t| t.recoveries))
            .sum()
    }

    /// A snapshot of every server's remote state (index = server pid):
    /// clock offset, last telemetry, and the flight dump its `Goodbye`
    /// piggybacked, for cross-process merging.
    #[must_use]
    pub fn remote_snapshot(&self) -> Vec<RemoteServer> {
        self.shared.remote.lock().expect("remote lock").clone()
    }

    /// Tells every server to finish up, then waits up to `wait` for their
    /// `Goodbye` stats. Missing goodbyes (a server that died hard) come
    /// back as `None`.
    pub fn shutdown(&self, wait: Duration) -> Vec<Option<ServerGoodbye>> {
        for peer in 0..self.pool.len() {
            let _ = self.pool.send(peer, &Frame::Shutdown);
        }
        let deadline = Instant::now() + wait;
        loop {
            {
                let g = self.shared.goodbyes.lock().expect("goodbye lock");
                if g.iter().all(Option::is_some) || Instant::now() >= deadline {
                    return g.clone();
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Writes `t` as an `Env` frame to its destination server. A failed write
/// is a lost frame; retransmission recovers, exactly as with any other
/// drop on the path.
fn write(pool: &ConnectionPool, t: TaggedEnv) {
    let dst = t.env.dst.index();
    let _ = pool.send(dst, &t.into());
}

impl Transport for NetClient {
    fn send(&self, env: Envelope) {
        let put = |t| write(&self.pool, t);
        let signal = |crash| write(&self.pool, self.tagged(crash));
        self.realizer
            .realize(self.tagged(env), &self.flight.thread_ring(), put, signal);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        let signal = |crash| write(&self.pool, self.tagged(crash));
        let items = envs.into_iter().map(|env| self.tagged(env));
        let frames = self
            .realizer
            .realize_batch(items, &self.flight.thread_ring(), signal);
        for (dst, entries) in frames {
            let n = entries.len() as u64;
            blunt_obs::static_counter!("net.batch.frames").inc();
            blunt_obs::static_counter!("net.batch.envelopes").add(n);
            blunt_obs::static_histogram!("net.batch.envelopes_per_frame").record(n);
            let _ = self.pool.send(dst.index(), &Frame::EnvBatch { entries });
        }
    }

    fn on_op_start(&self, client: Pid) {
        if client.0 >= self.servers {
            self.shared
                .router
                .begin_op((client.0 - self.servers) as usize);
        }
    }

    fn flush(&self) {
        self.realizer.flush(|t| write(&self.pool, t));
    }

    fn stats(&self) -> TransportStats {
        self.realizer.stats()
    }

    fn coverage(&self) -> Coverage {
        self.realizer.coverage()
    }
}
