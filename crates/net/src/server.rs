//! The server endpoint: one `chaos serve` process per server pid.
//!
//! [`NetServer`] accepts the driver's connection plus peer-server
//! connections (recovery traffic), admits every inbound envelope — an
//! `Env` frame as a batch of one — through the connection's dedup window
//! into one mailbox for the ABD server loop, and owns the
//! **server→client** half of the fault schedule: every send goes through
//! the shared [`Realizer`], whose `Reorder` hold-backs and `Delay` thread
//! (both drawn on these links only) are the bus's own. This endpoint's
//! sink writes the tagged frame to the driver, or — for recovery traffic,
//! always exempt — to the peer server. A batched send (the replies one
//! replica's host buffered over an idle period) draws its fates per entry
//! and goes out as one `EnvBatch` frame per destination, packed by the
//! same [`Realizer::realize_batch`] as the driver's requests; items the
//! delayer or a final flush releases later still go out as single `Env`
//! frames.
//!
//! Inbound `Shutdown` raises the stop flag; the runtime then reports the
//! server's crash/recovery/WAL stats back with [`NetServer::goodbye`].
//! Dropping the [`NetServer`] closes its listener and joins the accept
//! thread, so the address is free again once the server is gone.

use std::io::{self, BufReader};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use blunt_core::ids::Pid;
use blunt_obs::FlightRecorder;

use crate::client::{ServerGoodbye, ServerTelemetry};
use crate::conn::{Addr, Stream};
use crate::fault::FaultConfig;
use crate::frame::{read_frame, write_frame, Frame, TaggedEnv, DRIVER_NODE};
use crate::injector::{Injector, Realizer, TransportStats};
use crate::pool::ConnectionPool;
use crate::rpc::{DedupWindow, TagGen};
use crate::wire::Envelope;
use crate::{Coverage, Transport};

/// How one server process joins a chaos run.
pub struct NetServerCfg {
    /// Where this server listens.
    pub listen: Addr,
    /// This server's pid (`0..servers`).
    pub me: Pid,
    /// Total number of servers in the run.
    pub servers: u32,
    /// Number of client threads the driver runs.
    pub clients: u32,
    /// Every server's listen address, index = pid (recovery traffic dials
    /// peers directly; this server's own entry is never dialed).
    pub peers: Vec<Addr>,
    /// Fault-schedule seed, shared with the driver.
    pub seed: u64,
    /// Fault configuration, shared with the driver.
    pub faults: FaultConfig,
}

/// The single writer handle back to the driver process, replaced whenever
/// the driver redials (e.g. after noticing a dead connection).
struct DriverSlot(Mutex<Option<Stream>>);

impl DriverSlot {
    fn write(&self, frame: &Frame) {
        let mut slot = self.0.lock().expect("driver slot lock");
        if let Some(s) = slot.as_mut() {
            if write_frame(s, frame).is_err() {
                // The frame is lost; the driver's pool will redial and the
                // retransmission layer recovers.
                *slot = None;
            }
        }
    }
}

/// The server-process transport: the driver/peer listener, the
/// server→client fault links, and the peer pool for recovery traffic.
pub struct NetServer {
    me: Pid,
    realizer: Realizer<TaggedEnv>,
    out: Arc<Outbound>,
    tags: TagGen,
    /// Where the accept thread listens, as this process dials it.
    listen: Addr,
    /// The accept thread; joined on drop.
    acceptor: Option<JoinHandle<()>>,
    /// Raised on drop: the accept thread's next wake-up is its last.
    closing: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    flight: Arc<FlightRecorder>,
    /// Bumped by [`Transport::on_crash`] (an amnesia crash of this server
    /// process); every connection loop compares against its last-seen value
    /// and resets its dedup window when it lags — dedup state is volatile
    /// and must not survive the crash.
    dedup_epoch: Arc<AtomicU64>,
}

/// Where this server's frames go: the driver, or a peer server.
struct Outbound {
    servers: u32,
    driver: DriverSlot,
    peers: ConnectionPool,
}

impl Outbound {
    /// Writes `t` as an `Env` frame to its destination.
    fn write(&self, t: TaggedEnv) {
        let dst = t.env.dst;
        self.send(dst, &t.into());
    }

    /// Writes `frame` to `dst`: the driver, or a peer server. A failed
    /// write is a lost frame; retransmission recovers.
    fn send(&self, dst: Pid, frame: &Frame) {
        if dst.0 < self.servers {
            let _ = self.peers.send(dst.index(), frame);
        } else {
            self.driver.write(frame);
        }
    }
}

/// Admits inbound envelopes, in order, through the connection's dedup
/// window into the mailbox. `false` once the mailbox is gone.
fn admit(
    dedup: &mut DedupWindow,
    mailbox: &Sender<Envelope>,
    entries: impl IntoIterator<Item = TaggedEnv>,
) -> bool {
    for e in entries {
        if !dedup.admit(e.tag) {
            blunt_obs::static_counter!("net.rpc.dedup_drops").inc();
            continue;
        }
        if mailbox.send(e.env.in_reply_to(e.tag)).is_err() {
            return false;
        }
    }
    true
}

/// One accepted connection: identify the peer by its `Hello`, then pump
/// envelopes into the mailbox until the stream ends.
fn conn_loop(
    me: Pid,
    flight: &FlightRecorder,
    stream: Stream,
    mailbox: &Sender<Envelope>,
    driver: &DriverSlot,
    stop: &AtomicBool,
    dedup_epoch: &AtomicU64,
) {
    // Buffered: frames that arrive back to back cost one read syscall.
    let mut stream = BufReader::new(stream);
    let (hello, hello_t) = match read_frame(&mut stream) {
        Ok(Some(Frame::Hello { node, t_us })) => (node, t_us),
        _ => return,
    };
    if hello == DRIVER_NODE {
        if let Ok(writer) = stream.get_ref().try_clone() {
            *driver.0.lock().expect("driver slot lock") = Some(writer);
        }
        // Echo the driver's timestamp with our own flight clock — the same
        // clock stamping this process's flight events — so the driver can
        // estimate this process's clock offset from the round trip.
        driver.write(&Frame::HelloAck {
            node: me.0,
            echo_t: hello_t,
            t_us: flight.now_us(),
        });
    }
    let mut dedup = DedupWindow::new(1024);
    let mut seen_epoch = dedup_epoch.load(Ordering::SeqCst);
    loop {
        let frame = read_frame(&mut stream);
        // An amnesia crash since the last frame wipes this connection's
        // dedup memory: pre-crash clients retransmit tags this window has
        // already admitted, and dropping them would starve recovery of
        // exactly the retries it depends on. Checked after the blocking
        // read so the first post-crash frame sees the fresh window.
        let epoch = dedup_epoch.load(Ordering::SeqCst);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            dedup.reset();
            blunt_obs::static_counter!("net.rpc.dedup_resets").inc();
        }
        match frame {
            Ok(Some(Frame::Env { tag, re, env })) => {
                if !admit(&mut dedup, mailbox, [TaggedEnv { tag, re, env }]) {
                    return;
                }
            }
            Ok(Some(Frame::EnvBatch { entries })) => {
                if !admit(&mut dedup, mailbox, entries) {
                    return;
                }
            }
            Ok(Some(Frame::Shutdown)) => {
                stop.store(true, Ordering::SeqCst);
            }
            Ok(Some(
                Frame::Hello { .. }
                | Frame::HelloAck { .. }
                | Frame::Telemetry { .. }
                | Frame::Goodbye { .. },
            )) => {}
            Ok(None) | Err(_) => return,
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Wake the blocked `accept` with a connection of our own; the
        // accept thread sees `closing` and exits, closing the listener.
        self.closing.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = self.listen.connect();
            let _ = acceptor.join();
        }
    }
}

impl NetServer {
    /// Binds the listener and returns the transport plus the server loop's
    /// inbound mailbox. Accepting and reading happen on background threads
    /// from here on.
    ///
    /// # Errors
    ///
    /// Bind errors, and unusable fault configurations (as
    /// [`io::ErrorKind::InvalidInput`]).
    pub fn bind(
        cfg: &NetServerCfg,
        flight: Arc<FlightRecorder>,
    ) -> io::Result<(Arc<NetServer>, Receiver<Envelope>)> {
        let nodes = cfg.servers + cfg.clients;
        let injector = Injector::new(cfg.seed, cfg.faults, cfg.servers, nodes, false)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = cfg.listen.listen()?;
        let listen = listener.local_addr()?;
        let (mailbox_tx, mailbox_rx) = mpsc::channel();
        let me = cfg.me;
        let peers = ConnectionPool::new(
            cfg.peers.clone(),
            // Peer hellos carry no clock sample — only the driver estimates
            // offsets, from its own `Hello`/`HelloAck` round trips.
            move || Frame::Hello {
                node: me.0,
                t_us: 0,
            },
            // Peer connections are write-only from this side: replies to
            // our recovery queries arrive on the connection the peer dials
            // back (its own pool), so the read half idles until EOF.
            |_, _| {},
        );
        let out = Arc::new(Outbound {
            servers: cfg.servers,
            driver: DriverSlot(Mutex::new(None)),
            peers,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let dedup_epoch = Arc::new(AtomicU64::new(0));
        let closing = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let closing = Arc::clone(&closing);
            let out = Arc::clone(&out);
            let stop = Arc::clone(&stop);
            let flight = Arc::clone(&flight);
            let dedup_epoch = Arc::clone(&dedup_epoch);
            // Returning drops (closes) the listener.
            std::thread::spawn(move || loop {
                let Ok(stream) = listener.accept() else {
                    return;
                };
                if closing.load(Ordering::SeqCst) {
                    // Woken by the drop's self-connect.
                    return;
                }
                let mailbox = mailbox_tx.clone();
                let out = Arc::clone(&out);
                let stop = Arc::clone(&stop);
                let flight = Arc::clone(&flight);
                let dedup_epoch = Arc::clone(&dedup_epoch);
                std::thread::spawn(move || {
                    conn_loop(
                        me,
                        &flight,
                        stream,
                        &mailbox,
                        &out.driver,
                        &stop,
                        &dedup_epoch,
                    )
                });
            })
        };
        let late = Arc::clone(&out);
        let server = Arc::new(NetServer {
            me,
            realizer: Realizer::new(injector, move |t| late.write(t)),
            out,
            tags: TagGen::new(),
            listen,
            acceptor: Some(acceptor),
            closing,
            stop,
            flight,
            dedup_epoch,
        });
        Ok((server, mailbox_rx))
    }

    /// The stop flag raised by an inbound `Shutdown` frame; the runtime's
    /// serve loop polls it.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Ships a cumulative telemetry snapshot to the driver. Best-effort:
    /// if the driver connection is down the snapshot is lost and the next
    /// periodic tick resends fresher numbers.
    pub fn telemetry(&self, t: ServerTelemetry) {
        self.out.driver.write(&Frame::Telemetry {
            node: self.me.0,
            recoveries: t.recoveries,
            crashes: t.crashes,
            fsync_count: t.fsync_count,
            fsync_p99_us: t.fsync_p99_us,
            span_events: t.span_events,
            events: t.events,
        });
    }

    /// Reports this server's parting stats to the driver, piggybacking a
    /// bounded flight dump (JSONL; empty string = no dump).
    pub fn goodbye(&self, g: ServerGoodbye, dump: String) {
        self.out.driver.write(&Frame::Goodbye {
            node: self.me.0,
            crashes: g.crashes,
            recoveries: g.recoveries,
            wal_lost: g.wal_lost,
            wal_replayed: g.wal_replayed,
            fsync_p99_us: g.fsync_p99_us,
            dump,
        });
    }

    /// `env` as a frame entry under a fresh tag, answering `env.reply_to`.
    fn tagged(&self, env: Envelope) -> TaggedEnv {
        TaggedEnv {
            tag: self.tags.next(),
            re: env.reply_to,
            env: Envelope { reply_to: 0, ..env },
        }
    }
}

impl Transport for NetServer {
    fn send(&self, env: Envelope) {
        let put = |t| self.out.write(t);
        let signal = |crash| self.out.write(self.tagged(crash));
        self.realizer
            .realize(self.tagged(env), &self.flight.thread_ring(), put, signal);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        let signal = |crash| self.out.write(self.tagged(crash));
        let items = envs.into_iter().map(|env| self.tagged(env));
        let frames = self
            .realizer
            .realize_batch(items, &self.flight.thread_ring(), signal);
        for (dst, entries) in frames {
            blunt_obs::static_counter!("net.server.batch.frames").inc();
            blunt_obs::static_counter!("net.server.batch.envelopes").add(entries.len() as u64);
            self.out.send(dst, &Frame::EnvBatch { entries });
        }
    }

    fn on_crash(&self) {
        // Volatile transport state dies with the server: every connection
        // loop observes the bumped epoch and resets its dedup window before
        // admitting its next frame.
        self.dedup_epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn flush(&self) {
        self.realizer.flush(|t| self.out.write(t));
    }

    fn stats(&self) -> TransportStats {
        self.realizer.stats()
    }

    fn coverage(&self) -> Coverage {
        self.realizer.coverage()
    }
}
