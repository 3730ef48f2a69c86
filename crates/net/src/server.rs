//! The server endpoint: one `chaos serve` process per server pid.
//!
//! [`NetServer`] accepts the driver's connection plus peer-server
//! connections (recovery traffic), funnels every inbound envelope into one
//! mailbox for the ABD server loop, and owns the **server→client** half of
//! the fault schedule: replies consult the shared [`Injector`] and realize
//! their fate at the socket — including `Reorder` (a per-link hold-back
//! slot, released when the next reply on the same link overtakes it) and
//! `Delay` (a delayer thread that writes the frame when its deadline
//! passes), which the schedule restricts to these links.
//!
//! Inbound `Shutdown` raises the stop flag; the runtime then reports the
//! server's crash/recovery/WAL stats back with [`NetServer::goodbye`].
//! Dropping the [`NetServer`] closes its listener and joins the accept
//! thread, so the address is free again once the server is gone.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::{FlightKind, FlightRecorder};

use crate::client::{ServerGoodbye, ServerTelemetry};
use crate::conn::{Addr, Stream};
use crate::fault::{Fate, FaultConfig};
use crate::frame::{read_frame, write_frame, Frame, DRIVER_NODE};
use crate::injector::{Injector, TransportStats};
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

struct DelayedFrame {
    due: Instant,
    frame: Frame,
}

/// The server-process transport: the driver/peer listener, the
/// server→client fault links, and the peer pool for recovery traffic.
pub struct NetServer {
    me: Pid,
    servers: u32,
    injector: Mutex<Injector>,
    peers: ConnectionPool,
    tags: TagGen,
    driver: Arc<DriverSlot>,
    /// Reorder hold-back, one slot per client link (index = dst − servers).
    holds: Vec<Mutex<Option<Frame>>>,
    delayer: Mutex<Option<Sender<DelayedFrame>>>,
    delayer_handle: Mutex<Option<JoinHandle<()>>>,
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

/// One accepted connection: identify the peer by its `Hello`, then pump
/// envelopes into the mailbox until the stream ends.
fn conn_loop(
    me: Pid,
    flight: &FlightRecorder,
    mut stream: Stream,
    mailbox: &Sender<Envelope>,
    driver: &DriverSlot,
    stop: &AtomicBool,
    dedup_epoch: &AtomicU64,
) {
    let (hello, hello_t) = match read_frame(&mut stream) {
        Ok(Some(Frame::Hello { node, t_us })) => (node, t_us),
        _ => return,
    };
    if hello == DRIVER_NODE {
        if let Ok(writer) = stream.try_clone() {
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
            Ok(Some(Frame::Env { tag, env, .. })) => {
                if !dedup.admit(tag) {
                    blunt_obs::static_counter!("net.rpc.dedup_drops").inc();
                    continue;
                }
                if mailbox.send(env.in_reply_to(tag)).is_err() {
                    return;
                }
            }
            Ok(Some(Frame::EnvBatch { entries })) => {
                // Unpack in order: each entry is handled exactly as if it
                // had arrived as its own `Env` frame.
                for e in entries {
                    if !dedup.admit(e.tag) {
                        blunt_obs::static_counter!("net.rpc.dedup_drops").inc();
                        continue;
                    }
                    if mailbox.send(e.env.in_reply_to(e.tag)).is_err() {
                        return;
                    }
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
        let driver = Arc::new(DriverSlot(Mutex::new(None)));
        let stop = Arc::new(AtomicBool::new(false));
        let dedup_epoch = Arc::new(AtomicU64::new(0));
        let me = cfg.me;
        let closing = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let closing = Arc::clone(&closing);
            let driver = Arc::clone(&driver);
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
                let driver = Arc::clone(&driver);
                let stop = Arc::clone(&stop);
                let flight = Arc::clone(&flight);
                let dedup_epoch = Arc::clone(&dedup_epoch);
                std::thread::spawn(move || {
                    conn_loop(me, &flight, stream, &mailbox, &driver, &stop, &dedup_epoch)
                });
            })
        };
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
        let server = Arc::new(NetServer {
            me,
            servers: cfg.servers,
            injector: Mutex::new(injector),
            peers,
            tags: TagGen::new(),
            driver,
            holds: (0..cfg.clients).map(|_| Mutex::new(None)).collect(),
            delayer: Mutex::new(None),
            delayer_handle: Mutex::new(None),
            listen,
            acceptor: Some(acceptor),
            closing,
            stop,
            flight,
            dedup_epoch,
        });
        server.spawn_delayer();
        Ok((server, mailbox_rx))
    }

    /// The delayer thread: frames held by `Fate::Delay`, written to the
    /// driver once due. Dropping the sender flushes the rest and exits.
    fn spawn_delayer(&self) {
        let (tx, rx) = mpsc::channel::<DelayedFrame>();
        let driver = Arc::clone(&self.driver);
        let handle = std::thread::spawn(move || {
            let mut pending: Vec<DelayedFrame> = Vec::new();
            loop {
                let timeout = pending
                    .iter()
                    .map(|d| d.due.saturating_duration_since(Instant::now()))
                    .min()
                    .unwrap_or(Duration::from_millis(50));
                match rx.recv_timeout(timeout) {
                    Ok(d) => pending.push(d),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        for d in pending.drain(..) {
                            driver.write(&d.frame);
                        }
                        return;
                    }
                }
                let now = Instant::now();
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].due <= now {
                        let d = pending.swap_remove(i);
                        driver.write(&d.frame);
                    } else {
                        i += 1;
                    }
                }
            }
        });
        *self.delayer.lock().expect("delayer lock") = Some(tx);
        *self.delayer_handle.lock().expect("delayer handle lock") = Some(handle);
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
        self.driver.write(&Frame::Telemetry {
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
        self.driver.write(&Frame::Goodbye {
            node: self.me.0,
            crashes: g.crashes,
            recoveries: g.recoveries,
            wal_lost: g.wal_lost,
            wal_replayed: g.wal_replayed,
            fsync_p99_us: g.fsync_p99_us,
            dump,
        });
    }
}

impl Transport for NetServer {
    fn send(&self, env: Envelope) {
        let (src, dst, label) = (env.src.0, env.dst.0, env.msg.flight_label());
        let ring = self.flight.thread_ring();
        ring.record_span(
            FlightKind::BusSend,
            src,
            u64::from(dst),
            label,
            env.span.flight_word(),
        );
        let re = env.reply_to;
        let frame = Frame::Env {
            tag: self.tags.next(),
            re,
            env: Envelope { reply_to: 0, ..env },
        };
        if dst < self.servers {
            // Peer traffic is recovery (always exempt): straight to the
            // peer's listener, no fault schedule.
            let _ = self.peers.send(dst as usize, &frame);
            return;
        }
        if let Frame::Env { env, .. } = &frame {
            if env.exempt {
                self.driver.write(&frame);
                return;
            }
        }
        let (fate, _signal) = {
            let mut inj = self.injector.lock().expect("injector lock");
            inj.decide(Pid(src), Pid(dst))
        };
        match fate {
            Fate::Deliver => {}
            Fate::Drop => ring.record(FlightKind::FaultDrop, src, u64::from(dst), label),
            Fate::Duplicate => ring.record(FlightKind::FaultDuplicate, src, u64::from(dst), label),
            Fate::Reorder => ring.record(FlightKind::FaultReorder, src, u64::from(dst), label),
            Fate::Delay(ms) => {
                ring.record(FlightKind::FaultDelay, src, u64::from(dst), u64::from(ms));
            }
            Fate::CrashDrop { window } => {
                ring.record(FlightKind::FaultCrashDrop, src, u64::from(dst), window);
            }
            Fate::PartitionDrop { window } => {
                ring.record(FlightKind::FaultPartitionDrop, src, u64::from(dst), window);
            }
        }
        let slot = (dst - self.servers) as usize;
        match fate {
            Fate::Drop | Fate::CrashDrop { .. } | Fate::PartitionDrop { .. } => {}
            Fate::Reorder => {
                let displaced = self.holds[slot].lock().expect("hold lock").replace(frame);
                if let Some(p) = displaced {
                    self.driver.write(&p);
                }
            }
            Fate::Deliver | Fate::Duplicate => {
                self.driver.write(&frame);
                if fate == Fate::Duplicate {
                    // Same tag twice; the driver's dedup window absorbs it.
                    self.driver.write(&frame);
                }
                let held = self.holds[slot].lock().expect("hold lock").take();
                if let Some(h) = held {
                    // The held frame is overtaken: written after.
                    self.driver.write(&h);
                }
            }
            Fate::Delay(ms) => {
                let due = Instant::now() + Duration::from_millis(u64::from(ms));
                let guard = self.delayer.lock().expect("delayer lock");
                if let Some(tx) = guard.as_ref() {
                    let _ = tx.send(DelayedFrame { due, frame });
                }
            }
        }
    }

    fn on_crash(&self) {
        // Volatile transport state dies with the server: every connection
        // loop observes the bumped epoch and resets its dedup window before
        // admitting its next frame.
        self.dedup_epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn flush(&self) {
        let held: Vec<Frame> = self
            .holds
            .iter()
            .filter_map(|h| h.lock().expect("hold lock").take())
            .collect();
        for frame in held {
            self.driver.write(&frame);
        }
        *self.delayer.lock().expect("delayer lock") = None;
        if let Some(h) = self
            .delayer_handle
            .lock()
            .expect("delayer handle lock")
            .take()
        {
            let _ = h.join();
        }
    }

    fn stats(&self) -> TransportStats {
        self.injector.lock().expect("injector lock").stats()
    }

    fn coverage(&self) -> Coverage {
        self.injector.lock().expect("injector lock").coverage()
    }
}
