//! The in-process message bus: per-node mpsc queues plus the fault
//! injector.
//!
//! Every node (server or client thread) owns one `mpsc::Receiver<Envelope>`;
//! the bus holds the matching senders. A send first consults the shared
//! fault-decision core ([`blunt_net::Injector`] — the same one the socket
//! transports use, so fault counters are a pure function of the seed
//! regardless of backend), then realizes the fate:
//!
//! - `Drop`/`CrashDrop`/`PartitionDrop` — the envelope vanishes;
//! - `Duplicate` — enqueued twice back to back;
//! - `Reorder` — held in the link until the next message on the same link
//!   overtakes it (flushed by [`Bus::flush`] if none ever comes);
//! - `Delay(ms)` — handed to a dedicated delayer thread that sleeps until
//!   the deadline and then enqueues it.
//!
//! **Crash events.** When constructed with `signal_crashes`, a crash
//! blackout window additionally raises an *amnesia signal* at its **exit**:
//! the first non-`CrashDrop` first-transmission on a link that just saw a
//! `CrashDrop` enqueues an exempt [`Payload::Crash`] control envelope to
//! the crashed server (at most once per `(server, window)` pair), telling
//! it to erase volatile state and run recovery. Signaling at window exit —
//! not entry — matters twice over: recovery's peer catch-up runs when the
//! server is reachable again (a reboot after the outage, not during it),
//! and the post-crash state is actually observable by clients instead of
//! being shadowed by the blackout itself.
//!
//! The set of signaled `(server, window)` pairs is deterministic for a
//! seed: a pair fires iff some link's fixed first-transmission count
//! reaches past the end of that window, which is a pure function of the
//! per-link schedules — consecutive windows of one server are always
//! separated by at least one non-window index (`validate` guarantees
//! `crash_len < crash_period`), so a link that keeps sending always
//! resolves the pending window before entering the next. Hence
//! `BusStats::crash_events` is replayable exactly.
//!
//! **Shared mailboxes.** A mailbox belongs to a receiving *thread*, not to
//! a pid: [`Bus::with_mailboxes`] maps each pid to a mailbox, so every
//! replica a replica host drives shares that host's one channel and the
//! host dispatches by `env.dst`. Fates are still drawn per link, in send
//! order, so stats and coverage do not depend on the mailbox map.
//!
//! `std::sync::mpsc` channels are per-sender FIFO and internally
//! linearizable, which is what makes the per-link message indexing of
//! [`blunt_net::fault::FaultPlan`] well defined.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::Pid;
use blunt_net::injector::Injector;
use blunt_net::{Fate, FaultConfig, FaultConfigError, Transport};
use blunt_obs::{FlightKind, FlightRecorder};

use crate::coverage::Coverage;

pub use blunt_net::wire::{Envelope, Payload, SpanCtx};

/// Deterministic fault counters accumulated by a run; equal across runs
/// with the same seed and configuration. (The transport-agnostic name is
/// [`blunt_net::TransportStats`]; this alias keeps the original in-process
/// spelling.)
pub type BusStats = blunt_net::TransportStats;

struct DelayedMsg {
    due: Instant,
    env: Envelope,
}

/// Per-link mutable state: the fate stream lives in the shared injector;
/// this holds the reorder hold-back slot.
struct LinkHold {
    held: Option<Envelope>,
}

struct BusInner {
    injector: Injector,
    holds: Vec<LinkHold>,
}

/// The bus proper. Cloneable handles are not needed — threads share it via
/// `Arc<Bus>`.
pub struct Bus {
    nodes: u32,
    flight: Arc<FlightRecorder>,
    /// The sending half of each pid's mailbox (index = pid); pids that
    /// share a mailbox hold clones of one sender.
    mailboxes: Vec<Sender<Envelope>>,
    inner: Mutex<BusInner>,
    delayer: Mutex<Option<Sender<DelayedMsg>>>,
    delayer_handle: Mutex<Option<JoinHandle<()>>>,
}

impl Bus {
    /// Creates a bus for `nodes` processes with one mailbox per pid,
    /// returning it together with one receiver per node (index = pid) —
    /// [`Bus::with_mailboxes`] under the identity map.
    ///
    /// # Errors
    ///
    /// As [`Bus::with_mailboxes`].
    pub fn new(
        seed: u64,
        cfg: FaultConfig,
        servers: u32,
        nodes: u32,
        signal_crashes: bool,
        flight: Arc<FlightRecorder>,
    ) -> Result<(Bus, Vec<Receiver<Envelope>>), FaultConfigError> {
        let identity: Vec<usize> = (0..nodes as usize).collect();
        Bus::with_mailboxes(seed, cfg, servers, &identity, signal_crashes, flight)
    }

    /// Creates a bus for `mailbox_of.len()` processes where pid `p`
    /// receives on mailbox `mailbox_of[p]`, returning it together with one
    /// receiver per mailbox (index = mailbox; every index below the
    /// largest must be used). With `signal_crashes`, crash blackout
    /// windows additionally raise the amnesia signal (see the module
    /// docs); without it, crashes stay pure message blackouts. Every send
    /// and fault decision is recorded into `flight` on the sending
    /// thread's ring.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultConfig::validate`] error for unusable
    /// configurations (overlapping crash stagger, zero periods,
    /// oversubscribed rates).
    ///
    /// # Panics
    ///
    /// Panics if some mailbox index below the largest is mapped to no pid.
    pub fn with_mailboxes(
        seed: u64,
        cfg: FaultConfig,
        servers: u32,
        mailbox_of: &[usize],
        signal_crashes: bool,
        flight: Arc<FlightRecorder>,
    ) -> Result<(Bus, Vec<Receiver<Envelope>>), FaultConfigError> {
        let nodes = u32::try_from(mailbox_of.len()).expect("node count fits u32");
        let injector = Injector::new(seed, cfg, servers, nodes, signal_crashes)?;
        let count = mailbox_of.iter().max().map_or(0, |m| m + 1);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..count).map(|_| mpsc::channel()).unzip();
        for m in 0..count {
            assert!(mailbox_of.contains(&m), "mailbox {m} has no pid");
        }
        let bus = Bus {
            nodes,
            flight,
            mailboxes: mailbox_of.iter().map(|&m| senders[m].clone()).collect(),
            inner: Mutex::new(BusInner {
                injector,
                holds: (0..nodes * nodes)
                    .map(|_| LinkHold { held: None })
                    .collect(),
            }),
            delayer: Mutex::new(None),
            delayer_handle: Mutex::new(None),
        };
        bus.spawn_delayer();
        Ok((bus, receivers))
    }

    /// The delayer thread: a min-deadline buffer fed by `Fate::Delay`
    /// messages, drained on deadline. Dropping the sender shuts it down
    /// (remaining messages are flushed immediately).
    fn spawn_delayer(&self) {
        let (tx, rx) = mpsc::channel::<DelayedMsg>();
        let mailboxes = self.mailboxes.clone();
        let handle = std::thread::spawn(move || {
            let mut pending: Vec<DelayedMsg> = Vec::new();
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
                            let _ = mailboxes[d.env.dst.index()].send(d.env);
                        }
                        return;
                    }
                }
                let now = Instant::now();
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].due <= now {
                        let d = pending.swap_remove(i);
                        let _ = mailboxes[d.env.dst.index()].send(d.env);
                    } else {
                        i += 1;
                    }
                }
            }
        });
        *self.delayer.lock().unwrap() = Some(tx);
        *self.delayer_handle.lock().unwrap() = Some(handle);
    }

    fn enqueue(&self, env: Envelope) {
        // A closed mailbox means the receiver already shut down; late
        // messages to it are irrelevant.
        let _ = self.mailboxes[env.dst.index()].send(env);
    }

    /// Sends `env`, applying the fault schedule to non-exempt envelopes.
    pub fn send(&self, env: Envelope) {
        let (src, dst, label) = (env.src.0, env.dst.0, env.msg.flight_label());
        let ring = self.flight.thread_ring();
        ring.record(FlightKind::BusSend, src, u64::from(dst), label);
        if env.exempt {
            self.enqueue(env);
            return;
        }
        /// What must happen once the lock is released.
        enum Outcome {
            Lost,
            Deliver {
                env: Envelope,
                dup: bool,
                /// A previously reorder-held message now overtaken.
                released: Option<Envelope>,
            },
            Hold {
                /// Displaced by the newly held message (two reorders in a
                /// row: the first is released by the second taking its
                /// place).
                released: Option<Envelope>,
            },
            Delay {
                env: Envelope,
                ms: u16,
            },
        }
        let (signal, fate, outcome) = {
            let mut inner = self.inner.lock().unwrap();
            // The shared fault-decision core: fate, stats, coverage, and
            // crash-window bookkeeping, all under this one lock.
            let (fate, signal) = inner.injector.decide(env.src, env.dst);
            let slot = (env.src.0 * self.nodes + env.dst.0) as usize;
            let outcome = match fate {
                Fate::Drop | Fate::CrashDrop { .. } | Fate::PartitionDrop { .. } => Outcome::Lost,
                Fate::Reorder => Outcome::Hold {
                    released: inner.holds[slot].held.replace(env),
                },
                Fate::Deliver | Fate::Duplicate => Outcome::Deliver {
                    env,
                    dup: fate == Fate::Duplicate,
                    released: inner.holds[slot].held.take(),
                },
                Fate::Delay(ms) => Outcome::Delay { env, ms },
            };
            (signal, fate, outcome)
        };
        // The fault decision, on the sender's ring (outside the lock; the
        // event words were captured before `env` moved into the outcome).
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
        if let Some((dst, window)) = signal {
            // Before the triggering message: the server must crash and
            // recover before serving any post-window traffic.
            self.enqueue(Envelope {
                src: dst,
                dst,
                msg: Payload::Crash { window },
                exempt: true,
                reply_to: 0,
                span: SpanCtx::NONE,
            });
        }
        match outcome {
            Outcome::Lost => {
                blunt_obs::static_counter!("runtime.bus.lost").inc();
            }
            Outcome::Hold { released } => {
                if let Some(p) = released {
                    self.enqueue(p);
                }
                blunt_obs::static_counter!("runtime.bus.reordered").inc();
            }
            Outcome::Deliver { env, dup, released } => {
                self.enqueue(env.clone());
                if dup {
                    self.enqueue(env);
                }
                if let Some(h) = released {
                    // The held message is overtaken: deliver after.
                    self.enqueue(h);
                }
                blunt_obs::static_counter!("runtime.bus.delivered").inc();
            }
            Outcome::Delay { env, ms } => {
                blunt_obs::static_counter!("runtime.bus.delayed").inc();
                let due = Instant::now() + Duration::from_millis(u64::from(ms));
                let guard = self.delayer.lock().unwrap();
                if let Some(tx) = guard.as_ref() {
                    let _ = tx.send(DelayedMsg { due, env });
                }
            }
        }
    }

    /// Broadcasts the ABD message `msg` from `src` to every pid in `dsts`.
    pub fn broadcast(&self, src: Pid, dsts: impl Iterator<Item = Pid>, msg: &AbdMsg, exempt: bool) {
        for dst in dsts {
            self.send(Envelope::abd(src, dst, msg.clone(), exempt));
        }
    }

    /// Releases every reorder hold-back (end of run: nothing will overtake
    /// them anymore) and flushes the delayer.
    pub fn flush(&self) {
        let held: Vec<Envelope> = {
            let mut inner = self.inner.lock().unwrap();
            inner
                .holds
                .iter_mut()
                .filter_map(|h| h.held.take())
                .collect()
        };
        for env in held {
            self.enqueue(env);
        }
        // Dropping the delayer sender makes the thread flush and exit.
        *self.delayer.lock().unwrap() = None;
        if let Some(h) = self.delayer_handle.lock().unwrap().take() {
            let _ = h.join();
        }
    }

    /// The deterministic fault counters so far.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.inner.lock().unwrap().injector.stats()
    }

    /// The fault-schedule coverage so far: per-link fate tallies (links
    /// with traffic only) plus the configured window shape. Deterministic
    /// for a seed, like [`Bus::stats`].
    #[must_use]
    pub fn coverage(&self) -> Coverage {
        self.inner.lock().unwrap().injector.coverage()
    }
}

impl Transport for Bus {
    fn send(&self, env: Envelope) {
        Bus::send(self, env);
    }

    fn flush(&self) {
        Bus::flush(self);
    }

    fn stats(&self) -> BusStats {
        Bus::stats(self)
    }

    fn coverage(&self) -> Coverage {
        Bus::coverage(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blunt_core::ids::ObjId;

    fn q(sn: u32) -> AbdMsg {
        AbdMsg::Query { obj: ObjId(0), sn }
    }

    fn env(src: u32, dst: u32, sn: u32, exempt: bool) -> Envelope {
        Envelope::abd(Pid(src), Pid(dst), q(sn), exempt)
    }

    fn drain(rx: &Receiver<Envelope>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Ok(e) = rx.recv_timeout(Duration::from_millis(200)) {
            match e.msg {
                Payload::Abd(m) => out.push(m.sn()),
                // Control traffic is surfaced as a sentinel so tests can
                // assert on its absence.
                Payload::Crash { .. } => out.push(u32::MAX),
                Payload::StateQuery { .. } | Payload::StateReply { .. } => {}
            }
            if out.len() > 64 {
                break;
            }
        }
        out
    }

    fn flight() -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder::new(64))
    }

    fn bus(
        seed: u64,
        cfg: FaultConfig,
        servers: u32,
        nodes: u32,
    ) -> (Bus, Vec<Receiver<Envelope>>) {
        Bus::new(seed, cfg, servers, nodes, false, flight()).unwrap()
    }

    #[test]
    fn faultless_bus_preserves_per_link_fifo() {
        let (bus, rxs) = bus(0, FaultConfig::none(), 1, 3);
        for sn in 0..10 {
            bus.send(env(2, 0, sn, false));
        }
        bus.flush();
        drop(bus);
        assert_eq!(drain(&rxs[0]), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn exempt_messages_always_arrive_even_under_full_drop() {
        let mut cfg = FaultConfig::none();
        cfg.drop_per_mille = 1000;
        let (bus, rxs) = bus(0, cfg, 1, 3);
        for sn in 0..5 {
            bus.send(env(2, 0, sn, false));
        }
        for sn in 100..103 {
            bus.send(env(2, 0, sn, true));
        }
        bus.flush();
        drop(bus);
        assert_eq!(drain(&rxs[0]), vec![100, 101, 102]);
    }

    #[test]
    fn duplicate_fate_delivers_twice() {
        let mut cfg = FaultConfig::none();
        cfg.duplicate_per_mille = 1000;
        let (bus, rxs) = bus(0, cfg, 1, 2);
        bus.send(env(1, 0, 7, false));
        bus.flush();
        drop(bus);
        assert_eq!(drain(&rxs[0]), vec![7, 7]);
    }

    #[test]
    fn reorder_fate_swaps_with_successor_and_flush_releases_stragglers() {
        let mut cfg = FaultConfig::none();
        cfg.reorder_per_mille = 1000;
        let (bus, rxs) = bus(0, cfg, 1, 2);
        // Every message is held, then released when the next one takes its
        // slot: 0 held; 1 arrives → 0 out, 1 held; ... flush releases 4.
        for sn in 0..5 {
            bus.send(env(1, 0, sn, false));
        }
        bus.flush();
        drop(bus);
        assert_eq!(drain(&rxs[0]), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn delayed_messages_eventually_arrive() {
        let mut cfg = FaultConfig::none();
        cfg.delay_per_mille = 1000;
        cfg.max_delay_ms = 2;
        let (bus, rxs) = bus(0, cfg, 1, 2);
        for sn in 0..8 {
            bus.send(env(1, 0, sn, false));
        }
        bus.flush();
        drop(bus);
        let mut got = drain(&rxs[0]);
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn stats_are_reproducible_for_a_seed() {
        let run = |signal| {
            let (bus, _rxs) = Bus::new(42, FaultConfig::chaos(), 3, 6, signal, flight()).unwrap();
            for sn in 0..400 {
                for dst in 0..3 {
                    bus.send(env(4, dst, sn, false));
                }
                bus.send(env(0, 4, sn, false));
            }
            bus.flush();
            bus.stats()
        };
        let a = run(false);
        let b = run(false);
        assert_eq!(a, b);
        assert_eq!(a.offered, 1600);
        assert!(a.dropped > 0 && a.delayed > 0 && a.crash_dropped > 0);
        assert_eq!(a.crash_events, 0, "no signaling unless asked");
        // Signaling changes crash_events (deterministically) and nothing
        // else about the schedule-determined counters.
        let c = run(true);
        let d = run(true);
        assert_eq!(c, d);
        assert!(c.crash_events > 0);
        assert_eq!(
            BusStats {
                crash_events: 0,
                ..c
            },
            a,
            "the amnesia signal must not perturb the fault schedule"
        );
    }

    #[test]
    fn crash_signal_fires_once_per_window_at_its_exit() {
        // One server, crash window [0, 4) of every 10-index period on each
        // incoming link. Two links each send indices 0..6: 0–3 are inside
        // the window and dropped; index 4 is the first past it. The server
        // must get exactly ONE Crash{window: 0} signal — raised at the
        // window's exit, before any post-window delivery — not one per
        // dropped message or per link.
        let mut cfg = FaultConfig::none();
        cfg.crash_len = 4;
        cfg.crash_period = 10;
        let (bus, rxs) = Bus::new(0, cfg, 1, 3, true, flight()).unwrap();
        for sn in 0..6 {
            bus.send(env(1, 0, sn, false));
            bus.send(env(2, 0, sn, false));
        }
        bus.flush();
        drop(bus);
        let mut seen = Vec::new();
        while let Ok(e) = rxs[0].recv_timeout(Duration::from_millis(200)) {
            match e.msg {
                Payload::Crash { window } => {
                    assert!(e.exempt, "the amnesia signal must be exempt");
                    seen.push(u32::MAX);
                    assert_eq!(window, 0);
                }
                Payload::Abd(m) => seen.push(m.sn()),
                _ => {}
            }
        }
        assert_eq!(
            seen,
            vec![u32::MAX, 4, 4, 5, 5],
            "one signal, before the first post-window deliveries"
        );
    }

    #[test]
    fn shared_mailboxes_keep_per_link_order_and_the_fault_schedule() {
        // Pids 0 and 1 share mailbox 0; pid 2 has mailbox 1.
        let (bus, rxs) =
            Bus::with_mailboxes(0, FaultConfig::none(), 2, &[0, 0, 1], false, flight()).unwrap();
        assert_eq!(rxs.len(), 2);
        for sn in 0..10 {
            bus.send(env(2, sn % 2, sn, false));
        }
        bus.flush();
        drop(bus);
        let mut got = Vec::new();
        while let Ok(e) = rxs[0].recv_timeout(Duration::from_millis(200)) {
            if let Payload::Abd(m) = e.msg {
                assert_eq!(e.dst.0, m.sn() % 2, "dispatchable by dst");
                got.push(m.sn());
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // The fault schedule is drawn per link, whatever the mailbox map.
        let stats = |map: &[usize]| {
            let (bus, _rxs) =
                Bus::with_mailboxes(7, FaultConfig::chaos(), 2, map, true, flight()).unwrap();
            for sn in 0..300 {
                bus.send(env(2, sn % 2, sn, false));
                bus.send(env(sn % 2, 2, sn, false));
            }
            bus.flush();
            (bus.stats(), bus.coverage())
        };
        assert_eq!(stats(&[0, 0, 1]), stats(&[0, 1, 2]));
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut cfg = FaultConfig::none();
        cfg.crash_len = 50;
        cfg.crash_period = 100;
        let err = Bus::new(0, cfg, 3, 5, false, flight())
            .err()
            .expect("must be rejected");
        assert!(matches!(err, FaultConfigError::CrashStaggerOverflow { .. }));
    }
}
