//! The shared fault core: one seed-determined [`FaultPlan`] plus the
//! stats, coverage, and crash-signal bookkeeping every transport updates
//! *atomically with* each fate decision ([`Injector`]), and the one place
//! a drawn fate turns into actions ([`Realizer`]).
//!
//! [`Injector::decide`] is the critical section: which fate, which
//! counters, whether a crash window just exited — under one lock, so the
//! resulting [`TransportStats`] and [`Coverage`] are pure functions of the
//! seed on every backend.
//!
//! [`Realizer`] wraps the injector for the in-process bus and both socket
//! endpoints alike. It is generic over the delivered item — an
//! [`Envelope`] on the bus, a [`TaggedEnv`] frame entry on sockets — and
//! each endpoint supplies only its sink (a mailbox enqueue or a socket
//! write). Per item it lets exempt envelopes through, records `BusSend`
//! and the fate's flight event (both carrying the envelope's span), emits
//! the amnesia signal ahead of the item that triggered it, and then drops,
//! duplicates, holds a reorder until the next item on the same link
//! overtakes it, or hands a delay to the delayer thread — started on the
//! first `Delay` fate, so client→server endpoints and fault-free runs
//! never start one. [`Realizer::flush`] releases the held items, then
//! drains and joins the delayer. [`Realizer::realize_batch`] is the
//! batched form both socket endpoints pack their `EnvBatch` frames with.

use std::collections::HashSet;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use blunt_core::ids::Pid;
use blunt_obs::{FlightKind, FlightRing};

use crate::coverage::{Coverage, LinkCoverage};
use crate::fault::{Fate, FaultConfig, FaultConfigError, FaultPlan};
use crate::frame::TaggedEnv;
use crate::wire::Envelope;

/// Deterministic fault counters accumulated by a run; equal across runs
/// with the same seed and configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TransportStats {
    /// First-transmission messages offered to the injector.
    pub offered: u64,
    /// Messages dropped by the random drop fault.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages swapped with their successor.
    pub reordered: u64,
    /// Messages held back by a delay.
    pub delayed: u64,
    /// Messages lost to crash blackout windows.
    pub crash_dropped: u64,
    /// Messages lost to partition windows.
    pub partition_dropped: u64,
    /// Distinct `(server, window)` crash events signaled (0 unless the
    /// transport was built with `signal_crashes`).
    pub crash_events: u64,
}

/// The fault-decision state of one transport endpoint: the per-link fate
/// streams plus everything that must update under the same lock as a fate
/// decision (stats, coverage tallies, pending-crash windows, signaled
/// sets). Transports hold it inside a [`Realizer`].
pub struct Injector {
    plan: FaultPlan,
    cfg: FaultConfig,
    nodes: u32,
    signal_crashes: bool,
    stats: TransportStats,
    /// Per-link fate tallies for the coverage report, updated with the
    /// decision (so coverage is seed-deterministic).
    coverage: Vec<LinkCoverage>,
    /// Per-link: the crash window the link's latest first-transmission fell
    /// into, awaiting its exit (the next non-`CrashDrop` index).
    pending_crash: Vec<Option<u64>>,
    /// Crash windows already signaled, per server (index = pid).
    signaled: Vec<HashSet<u64>>,
}

impl Injector {
    /// Builds the injector for a topology of `nodes` processes of which
    /// `Pid(0..servers)` are servers. With `signal_crashes`, crash blackout
    /// windows raise the amnesia signal at their exit (see
    /// [`Injector::decide`]); without it, crashes stay pure blackouts.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultConfig::validate`] error for unusable
    /// configurations (overlapping crash stagger, zero periods,
    /// oversubscribed rates).
    pub fn new(
        seed: u64,
        cfg: FaultConfig,
        servers: u32,
        nodes: u32,
        signal_crashes: bool,
    ) -> Result<Injector, FaultConfigError> {
        let plan = FaultPlan::new(seed, cfg, servers, nodes)?;
        Ok(Injector {
            plan,
            cfg,
            nodes,
            signal_crashes,
            stats: TransportStats::default(),
            coverage: (0..nodes * nodes)
                .map(|i| LinkCoverage {
                    src: i / nodes,
                    dst: i % nodes,
                    ..LinkCoverage::default()
                })
                .collect(),
            pending_crash: vec![None; (nodes * nodes) as usize],
            signaled: (0..servers).map(|_| HashSet::new()).collect(),
        })
    }

    /// Decides the fate of the next first-transmission message on
    /// `src → dst`, updating stats, coverage, and the crash-window exit
    /// bookkeeping in the same step. Returns the fate plus, at most once
    /// per `(server, window)` pair, the crash signal the caller must
    /// deliver (as an exempt [`Payload::Crash`](crate::Payload::Crash)
    /// envelope) *before* realizing the triggering message's fate.
    ///
    /// Exempt envelopes must never be passed through here — they consume no
    /// fault-schedule indices.
    pub fn decide(&mut self, src: Pid, dst: Pid) -> (Fate, Option<(Pid, u64)>) {
        self.stats.offered += 1;
        let fate = self.plan.fate(src, dst);
        let slot = self.slot(src, dst);
        // Crash-window exit detection: a CrashDrop marks the link as
        // inside a window; the next non-CrashDrop index on the same
        // link means the window has passed, and the server restarts —
        // signaled at most once per (server, window), race-free under
        // the same lock that decided the fate.
        let mut signal = None;
        if self.signal_crashes {
            if let Fate::CrashDrop { window } = fate {
                self.pending_crash[slot] = Some(window);
            } else if let Some(w) = self.pending_crash[slot].take() {
                if self.signaled[dst.index()].insert(w) {
                    self.stats.crash_events += 1;
                    signal = Some((dst, w));
                }
            }
        }
        let cov = &mut self.coverage[slot];
        cov.offered += 1;
        match fate {
            Fate::Deliver => cov.delivered += 1,
            Fate::Drop => cov.dropped += 1,
            Fate::Duplicate => cov.duplicated += 1,
            Fate::Reorder => cov.reordered += 1,
            Fate::Delay(_) => cov.delayed += 1,
            Fate::CrashDrop { window } => {
                cov.crash_dropped += 1;
                cov.crash_windows.insert(window);
            }
            Fate::PartitionDrop { window } => {
                cov.partition_dropped += 1;
                cov.partition_windows.insert(window);
            }
        }
        match fate {
            Fate::Drop => self.stats.dropped += 1,
            Fate::Duplicate => self.stats.duplicated += 1,
            Fate::Reorder => self.stats.reordered += 1,
            Fate::Delay(_) => self.stats.delayed += 1,
            Fate::CrashDrop { .. } => self.stats.crash_dropped += 1,
            Fate::PartitionDrop { .. } => self.stats.partition_dropped += 1,
            Fate::Deliver => {}
        }
        (fate, signal)
    }

    /// The per-link index of `src → dst`.
    fn slot(&self, src: Pid, dst: Pid) -> usize {
        (src.0 * self.nodes + dst.0) as usize
    }

    /// The deterministic fault counters so far.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// The fault-schedule coverage so far: per-link fate tallies (links
    /// with traffic only) plus the configured window shape. Deterministic
    /// for a seed, like [`Injector::stats`].
    #[must_use]
    pub fn coverage(&self) -> Coverage {
        Coverage {
            links: self
                .coverage
                .iter()
                .filter(|l| l.offered > 0)
                .cloned()
                .collect(),
            crash_len: self.cfg.crash_len,
            crash_period: self.cfg.crash_period,
            partition_len: self.cfg.partition_len,
            partition_period: self.cfg.partition_period,
        }
    }
}

/// An item a [`Realizer`] delivers: anything carrying one [`Envelope`].
pub trait Carried: Clone + Send + 'static {
    /// The envelope inside.
    fn envelope(&self) -> &Envelope;
}

impl Carried for Envelope {
    fn envelope(&self) -> &Envelope {
        self
    }
}

impl Carried for TaggedEnv {
    fn envelope(&self) -> &Envelope {
        &self.env
    }
}

/// Turns drawn fates into deliveries for one transport endpoint (see the
/// module docs). One lock per non-exempt item covers the decision, the
/// reorder hold-back, and the hand-off to the delayer; sinks run outside
/// it.
pub struct Realizer<T> {
    state: Mutex<RealizerState<T>>,
    /// Where the delayer hands items whose delay has passed.
    late: Arc<dyn Fn(T) + Send + Sync>,
}

struct RealizerState<T> {
    injector: Injector,
    /// Reorder hold-back, one slot per link (index = src · nodes + dst).
    held: Vec<Option<T>>,
    delayer: Option<Delayer<T>>,
}

/// A thread holding delayed items until their deadlines; dropping `tx`
/// makes it hand over everything still pending and exit.
struct Delayer<T> {
    tx: Sender<(Instant, T)>,
    handle: JoinHandle<()>,
}

impl<T: Send + 'static> Delayer<T> {
    fn spawn(late: Arc<dyn Fn(T) + Send + Sync>) -> Delayer<T> {
        let (tx, rx) = mpsc::channel::<(Instant, T)>();
        let handle = thread::spawn(move || {
            let mut pending: Vec<(Instant, T)> = Vec::new();
            loop {
                let next = match pending.iter().map(|(due, _)| *due).min() {
                    Some(due) => rx.recv_timeout(due.saturating_duration_since(Instant::now())),
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                };
                match next {
                    Ok(d) => pending.push(d),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        for (_, item) in pending.drain(..) {
                            late(item);
                        }
                        return;
                    }
                }
                let now = Instant::now();
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].0 <= now {
                        late(pending.swap_remove(i).1);
                    } else {
                        i += 1;
                    }
                }
            }
        });
        Delayer { tx, handle }
    }
}

/// The flight event a fate leaves — its kind and fourth word (the message
/// label, the delay in ms, or the fault window) — or `None` for `Deliver`.
fn fate_event(fate: Fate, label: u64) -> Option<(FlightKind, u64)> {
    Some(match fate {
        Fate::Deliver => return None,
        Fate::Drop => (FlightKind::FaultDrop, label),
        Fate::Duplicate => (FlightKind::FaultDuplicate, label),
        Fate::Reorder => (FlightKind::FaultReorder, label),
        Fate::Delay(ms) => (FlightKind::FaultDelay, u64::from(ms)),
        Fate::CrashDrop { window } => (FlightKind::FaultCrashDrop, window),
        Fate::PartitionDrop { window } => (FlightKind::FaultPartitionDrop, window),
    })
}

impl<T: Carried> Realizer<T> {
    /// Wraps `injector`; the delayer (if a `Delay` fate ever starts one)
    /// hands due items to `late`.
    pub fn new(injector: Injector, late: impl Fn(T) + Send + Sync + 'static) -> Realizer<T> {
        let links = (injector.nodes * injector.nodes) as usize;
        Realizer {
            state: Mutex::new(RealizerState {
                injector,
                held: (0..links).map(|_| None).collect(),
                delayer: None,
            }),
            late: Arc::new(late),
        }
    }

    /// Realizes `item`'s fate: every delivery it causes now goes to `put`,
    /// in order, and the amnesia signal of a crash window the item's link
    /// just left goes to `signal` first. Flight events land on `ring`.
    /// Returns the fate, or `None` for an exempt item (delivered as is,
    /// consuming no fault-schedule index).
    pub fn realize(
        &self,
        item: T,
        ring: &FlightRing,
        mut put: impl FnMut(T),
        signal: impl FnOnce(Envelope),
    ) -> Option<Fate> {
        let env = item.envelope();
        let (src, dst) = (env.src, env.dst);
        let (label, span) = (env.msg.flight_label(), env.span.flight_word());
        ring.record_span(FlightKind::BusSend, src.0, u64::from(dst.0), label, span);
        if env.exempt {
            put(item);
            return None;
        }
        // What to deliver once the lock is released: `now` (twice on a
        // duplicate), then `then`.
        let (fate, crash, now, then) = {
            let mut st = self.state.lock().expect("realizer lock");
            let (fate, crash) = st.injector.decide(src, dst);
            let slot = st.injector.slot(src, dst);
            let (now, then) = match fate {
                Fate::Drop | Fate::CrashDrop { .. } | Fate::PartitionDrop { .. } => (None, None),
                // Held until the next item on the link overtakes it; an
                // item held by the previous reorder is released now.
                Fate::Reorder => (st.held[slot].replace(item), None),
                // A held item is overtaken: delivered after this one.
                Fate::Deliver | Fate::Duplicate => (Some(item), st.held[slot].take()),
                // Handed over under the lock. The amnesia signal is never
                // overtaken by it: signals go to servers, while the
                // schedule draws delays on server→client links only.
                Fate::Delay(ms) => {
                    let due = Instant::now() + Duration::from_millis(u64::from(ms));
                    let late = &self.late;
                    let delayer = st
                        .delayer
                        .get_or_insert_with(|| Delayer::spawn(Arc::clone(late)));
                    let _ = delayer.tx.send((due, item));
                    (None, None)
                }
            };
            (fate, crash, now, then)
        };
        if let Some((kind, word)) = fate_event(fate, label) {
            ring.record_span(kind, src.0, u64::from(dst.0), word, span);
        }
        if let Some((server, window)) = crash {
            // Before the triggering item: the server must crash and recover
            // before serving any post-window traffic.
            signal(Envelope::crash_signal(server, window));
        }
        if let Some(item) = now {
            if fate == Fate::Duplicate {
                put(item.clone());
            }
            put(item);
        }
        if let Some(item) = then {
            put(item);
        }
        Some(fate)
    }

    /// Realizes `items` in order, each exactly as [`Realizer::realize`]
    /// would, and packs what they deliver now per destination, in
    /// first-appearance order — the frames of one batched send, for both
    /// socket endpoints. Fates are drawn per logical item, so the link
    /// indices consumed (and with them stats and coverage) equal the
    /// one-by-one realization's. Crash signals go to `signal` as they are
    /// drawn, before the caller writes any packed item, so a signal still
    /// precedes its triggering item on a FIFO connection.
    pub fn realize_batch(
        &self,
        items: impl IntoIterator<Item = T>,
        ring: &FlightRing,
        mut signal: impl FnMut(Envelope),
    ) -> Vec<(Pid, Vec<T>)> {
        let mut per_dst: Vec<(Pid, Vec<T>)> = Vec::new();
        for item in items {
            let put = |t: T| {
                let dst = t.envelope().dst;
                match per_dst.iter_mut().find(|(d, _)| *d == dst) {
                    Some((_, bucket)) => bucket.push(t),
                    None => per_dst.push((dst, vec![t])),
                }
            };
            self.realize(item, ring, put, &mut signal);
        }
        per_dst
    }

    /// End of run — nothing will overtake them anymore: releases every
    /// held item to `put`, then drains the delayer (through `late`) and
    /// joins it.
    pub fn flush(&self, put: impl FnMut(T)) {
        let (held, delayer) = {
            let mut st = self.state.lock().expect("realizer lock");
            let held: Vec<T> = st.held.iter_mut().filter_map(Option::take).collect();
            (held, st.delayer.take())
        };
        held.into_iter().for_each(put);
        if let Some(Delayer { tx, handle }) = delayer {
            drop(tx);
            let _ = handle.join();
        }
    }

    /// The deterministic fault counters so far.
    #[must_use]
    pub fn stats(&self) -> TransportStats {
        self.state.lock().expect("realizer lock").injector.stats()
    }

    /// The fault-schedule coverage so far.
    #[must_use]
    pub fn coverage(&self) -> Coverage {
        self.state
            .lock()
            .expect("realizer lock")
            .injector
            .coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_matches_the_raw_plan_and_counts_every_fate() {
        let cfg = FaultConfig::chaos();
        let expected = FaultPlan::preview(9, cfg, 3, 6, Pid(4), Pid(0), 600);
        let mut inj = Injector::new(9, cfg, 3, 6, false).unwrap();
        let got: Vec<Fate> = (0..600).map(|_| inj.decide(Pid(4), Pid(0)).0).collect();
        assert_eq!(got, expected, "the injector must not perturb the plan");
        let s = inj.stats();
        assert_eq!(s.offered, 600);
        assert_eq!(
            s.offered,
            s.dropped
                + s.duplicated
                + s.reordered
                + s.delayed
                + s.crash_dropped
                + s.partition_dropped
                + inj.coverage().links[0].delivered
        );
        assert_eq!(s.crash_events, 0, "no signaling unless asked");
    }

    #[test]
    fn crash_signal_fires_once_per_window_at_its_exit() {
        // One server, crash window [0, 4) of each 10-index period: indices
        // 0–3 are CrashDrop, index 4 is the first past the window and must
        // carry the signal — exactly once, even with two links racing.
        let mut cfg = FaultConfig::none();
        cfg.crash_len = 4;
        cfg.crash_period = 10;
        let mut inj = Injector::new(0, cfg, 1, 3, true).unwrap();
        let mut signals = Vec::new();
        for _ in 0..6 {
            for src in [1u32, 2] {
                if let (_, Some(sig)) = inj.decide(Pid(src), Pid(0)) {
                    signals.push(sig);
                }
            }
        }
        assert_eq!(signals, vec![(Pid(0), 0)]);
        assert_eq!(inj.stats().crash_events, 1);
    }

    #[test]
    fn stats_and_coverage_are_reproducible_for_a_seed() {
        let run = || {
            let mut inj = Injector::new(42, FaultConfig::chaos(), 3, 6, true).unwrap();
            for _ in 0..400 {
                for dst in 0..3 {
                    inj.decide(Pid(4), Pid(dst));
                }
                inj.decide(Pid(0), Pid(4));
            }
            (inj.stats(), inj.coverage())
        };
        let (s1, c1) = run();
        let (s2, c2) = run();
        assert_eq!(s1, s2);
        assert_eq!(c1.to_json().to_string(), c2.to_json().to_string());
        assert!(s1.crash_events > 0);
    }

    fn realizer<T: Carried>(
        cfg: FaultConfig,
        late: impl Fn(T) + Send + Sync + 'static,
    ) -> Realizer<T> {
        Realizer::new(Injector::new(0, cfg, 1, 3, false).unwrap(), late)
    }

    fn reply(dst: u32, sn: u32) -> Envelope {
        use blunt_abd::msg::AbdMsg;
        use blunt_core::ids::ObjId;
        Envelope::abd(Pid(0), Pid(dst), AbdMsg::Ack { obj: ObjId(0), sn }, false)
    }

    fn sn(env: &Envelope) -> u64 {
        env.msg.flight_label()
    }

    #[test]
    fn delayer_starts_on_the_first_delay_fate_and_flush_drains_and_joins_it() {
        let mut cfg = FaultConfig::none();
        cfg.delay_per_mille = 1000;
        cfg.max_delay_ms = 2;
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let r = realizer(cfg, move |env: Envelope| {
            tx.lock().unwrap().send(env).unwrap()
        });
        let ring = blunt_obs::FlightRecorder::new(64).thread_ring();
        let mut now = Vec::new();
        // Client→server links never draw a delay: no delayer yet.
        let to_server = Envelope {
            src: Pid(1),
            dst: Pid(0),
            ..reply(0, 1)
        };
        assert_eq!(
            r.realize(to_server, &ring, |e| now.push(e), |_| {}),
            Some(Fate::Deliver)
        );
        assert!(r.state.lock().unwrap().delayer.is_none());
        for i in 0..4 {
            assert!(matches!(
                r.realize(reply(1 + i % 2, i), &ring, |e| now.push(e), |_| {}),
                Some(Fate::Delay(_))
            ));
        }
        assert!(r.state.lock().unwrap().delayer.is_some());
        assert_eq!(
            now.len(),
            1,
            "delayed items do not reach the immediate sink"
        );
        r.flush(|e| now.push(e));
        assert!(r.state.lock().unwrap().delayer.is_none(), "flush joined it");
        let mut late: Vec<u64> = rx.try_iter().map(|e| sn(&e)).collect();
        late.sort_unstable();
        let mut want: Vec<u64> = (0..4).map(|i| sn(&reply(1, i))).collect();
        want.sort_unstable();
        assert_eq!(late, want, "every delayed item arrived through `late`");
    }

    #[test]
    fn frame_entries_keep_their_tags_through_duplicates_and_reorders() {
        let tagged = |tag, sn| TaggedEnv {
            tag,
            re: 0,
            env: reply(1, sn),
        };
        let ring = blunt_obs::FlightRecorder::new(64).thread_ring();
        let mut dup = FaultConfig::none();
        dup.duplicate_per_mille = 1000;
        let r = realizer(dup, |_: TaggedEnv| unreachable!("no delays"));
        let mut out = Vec::new();
        r.realize(tagged(7, 0), &ring, |t| out.push(t.tag), |_| {});
        assert_eq!(out, vec![7, 7], "a duplicate is the same entry twice");

        let mut reorder = FaultConfig::none();
        reorder.reorder_per_mille = 1000;
        let r = realizer(reorder, |_: TaggedEnv| unreachable!("no delays"));
        let mut out = Vec::new();
        for tag in 1..=3 {
            r.realize(tagged(tag, 0), &ring, |t| out.push(t.tag), |_| {});
        }
        assert_eq!(
            out,
            vec![1, 2],
            "each reorder releases the one it displaces"
        );
        r.flush(|t| out.push(t.tag));
        assert_eq!(out, vec![1, 2, 3], "flush releases the last held entry");
    }

    #[test]
    fn flight_events_carry_the_envelope_span_and_exempt_items_skip_the_schedule() {
        let mut cfg = FaultConfig::none();
        cfg.drop_per_mille = 1000;
        let r = realizer(cfg, |_: Envelope| unreachable!("no delays"));
        let recorder = blunt_obs::FlightRecorder::new(64);
        let ring = recorder.thread_ring();
        let span = crate::SpanCtx::request(1, 9);
        let mut out = Vec::new();
        let exempt = Envelope {
            exempt: true,
            ..reply(1, 1)
        };
        assert_eq!(r.realize(exempt, &ring, |e| out.push(e), |_| {}), None);
        assert_eq!(r.stats().offered, 0, "exempt items consume no index");
        let dropped = reply(1, 2).with_span(span);
        assert_eq!(
            r.realize(dropped, &ring, |e| out.push(e), |_| {}),
            Some(Fate::Drop)
        );
        assert_eq!(out.len(), 1);
        let events = recorder.dump().events;
        let kinds: Vec<_> = events.iter().map(|e| (e.kind, e.span)).collect();
        assert_eq!(
            kinds,
            vec![
                (FlightKind::BusSend, blunt_obs::flight::SPAN_NONE),
                (FlightKind::BusSend, span.flight_word()),
                (FlightKind::FaultDrop, span.flight_word()),
            ]
        );
    }
}
