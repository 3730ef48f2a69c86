//! Replica hosts: one thread and one mailbox driving the ABD step machines
//! of many replicas.
//!
//! A *host* owns a set of replicas ([`HostedReplica`]) and a single inbound
//! mailbox that every one of them receives on (the bus maps their pids to
//! it — see [`crate::bus::Bus::with_mailboxes`]). [`host_loop`] takes one
//! envelope at a time and dispatches it to the replica named by
//! `env.dst`. The keyed store places whole shards on a host, so a quorum
//! broadcast wakes one thread instead of one per replica (a one-shard,
//! single-register run puts all its replicas on one host); each
//! `chaos serve` process passes a one-replica set.
//!
//! Nothing in a replica blocks: every step is a reaction to one envelope,
//! so replicas that are each other's peers can share a thread.
//!
//! **Drain, then flush.** Each replica sends through its own
//! [`BatchingTransport`]: its replies, acks and recovery traffic
//! accumulate while the host works through its mailbox and leave as one
//! batch per replica — one `EnvBatch` frame per destination on the socket
//! tier — when the mailbox runs dry (right after that replica's WAL group
//! commit, so the acks the commit releases leave in the same flush), when
//! 64 have accumulated, and before the replica's crash is handled. A
//! flush runs with the sending replica's flight ring bound, so its
//! `BusSend` and fault events land in that replica's `server-<pid>` ring.
//!
//! **Crash recovery.** Under [`RecoveryMode::Amnesia`] every replica keeps a
//! write-ahead log ([`MultiWal`]) and obeys the *write-ahead ack
//! discipline*: an update is acknowledged only once a WAL record with a
//! timestamp covering it is fsynced. Group commit flushes a replica's WAL
//! when its batch fills, when an exempt retransmission reaches it (some
//! client is stuck waiting, plausibly on a withheld ack), and — for every
//! hosted replica at once — whenever the host's mailbox runs dry, before
//! the host blocks. When the bus raises the amnesia signal
//! ([`Payload::Crash`]) at a crash window's exit, the replica erases its
//! volatile state and its unsynced WAL suffix, replays its durable
//! checkpoint, and then catches up from `quorum − 1` peers via exempt
//! [`Payload::StateQuery`] state transfer (mirroring the ABD read phase).
//! Catch-up is a per-replica *recovering* state, not a blocking wait:
//! while recovering, the replica answers its peers' state queries inline,
//! counts further crash signals and runs them one after another once the
//! current recovery ends, and buffers its ABD traffic, which it replays in
//! arrival order after the last recovery. When the host's idle poll sees
//! the run's stop flag, every open catch-up is cut short (counted in
//! `catchup_aborted`; the replayed checkpoint stands — truncating catch-up
//! costs freshness, never soundness), so every crash still ends in exactly
//! one recovery. The soundness argument lives in `docs/RUNTIME.md`.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blunt_abd::msg::AbdMsg;
use blunt_abd::server::StoreState;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::{BatchingTransport, SpanCtx, Transport};
use blunt_obs::{FlightKind, FlightRecorder, FlightRing};

use crate::bus::{Envelope, Payload};
use crate::recovery::{RecoveryMode, RecoverySink};
use crate::storage::MultiWal;

/// How long an idle host blocks before it looks at the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// The idle poll while some hosted replica is catching up, so a shutdown
/// cuts a catch-up short promptly.
const CATCHUP_POLL: Duration = Duration::from_millis(5);

/// How many sends one replica buffers before they leave without waiting
/// for the mailbox to run dry.
const REPLY_BATCH_MAX: usize = 64;

/// One replica for a host to drive.
#[derive(Clone, Debug)]
pub struct HostedReplica {
    /// The replica's pid.
    pub me: Pid,
    /// The replica group `me` belongs to (including `me`): recovery
    /// catch-up queries exactly these peers and derives its quorum from the
    /// group size. In single-shard runs this is all servers; in the sharded
    /// store it is one shard's replicas.
    pub group: Vec<Pid>,
    /// What a crash means for this replica.
    pub mode: RecoveryMode,
    /// Where this replica's crash/recovery counters go.
    pub sink: Arc<RecoverySink>,
}

/// Runs one replica host until the run stops: dispatches every envelope on
/// `rx` to the hosted replica named by its `dst`. Responses inherit the
/// triggering envelope's exemption so retransmitted exchanges complete
/// without consuming fault indices.
///
/// Replicas are **keyed throughout** ([`StoreState`]/[`MultiWal`]): every
/// ABD message names its [`ObjId`], so the same loop serves the classic
/// single-register workload and a sharded keyed store (`blunt-store`)
/// without a mode switch. Each replica records into its own `server-<pid>`
/// flight ring.
///
/// The loop returns once `stop` is set and the mailbox has stayed empty for
/// an idle poll, or once every sender of `rx` is gone. Crash signals are
/// enqueued synchronously inside client sends, so a driver that sets
/// `stop` after joining its clients has every signal processed first,
/// which keeps the crash/recovery counters deterministic.
///
/// # Panics
///
/// Panics if `replicas` is empty, names a pid twice, or holds a replica
/// whose group does not include it.
pub fn host_loop(
    replicas: Vec<HostedReplica>,
    rx: Receiver<Envelope>,
    bus: &dyn Transport,
    stop: &AtomicBool,
    recorder: &FlightRecorder,
) {
    let mut host = Host::new(replicas, bus, recorder);
    loop {
        let env = match rx.try_recv() {
            Ok(env) => env,
            Err(TryRecvError::Empty) => {
                // The mailbox ran dry: group-commit every replica's pending
                // records now, so a withheld ack never waits for the host to
                // go quiet, then send what every replica buffered.
                host.flush_all();
                let poll = if host.any_recovering() {
                    CATCHUP_POLL
                } else {
                    IDLE_POLL
                };
                match rx.recv_timeout(poll) {
                    Ok(env) => env,
                    Err(RecvTimeoutError::Timeout) => {
                        if stop.load(Ordering::Relaxed) {
                            if !host.any_recovering() {
                                return;
                            }
                            // Shutdown: peers may already be gone.
                            host.abort_catchups();
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        host.dispatch(env);
    }
    // Every sender is gone: cut open catch-ups short and send what they
    // released.
    host.abort_catchups();
    host.flush_all();
}

/// The replicas of one host plus the pid → replica index.
struct Host<'a> {
    replicas: Vec<Replica<'a>>,
    /// `slot[pid]` is the index of `pid`'s replica, if hosted here.
    slot: Vec<Option<usize>>,
    recorder: &'a FlightRecorder,
    /// The replica whose ring is bound as this thread's flight ring, so the
    /// transport's send events land in the ring of the replica sending.
    bound: usize,
}

impl<'a> Host<'a> {
    fn new(
        replicas: Vec<HostedReplica>,
        bus: &'a dyn Transport,
        recorder: &'a FlightRecorder,
    ) -> Host<'a> {
        assert!(!replicas.is_empty(), "a host drives at least one replica");
        let max_pid = replicas.iter().map(|r| r.me.index()).max().unwrap_or(0);
        let mut slot = vec![None; max_pid + 1];
        for (i, r) in replicas.iter().enumerate() {
            let prior = slot[r.me.index()].replace(i);
            assert!(prior.is_none(), "pid {} hosted twice", r.me.0);
        }
        let replicas: Vec<Replica<'a>> = replicas
            .into_iter()
            .map(|r| Replica::new(r, bus, recorder))
            .collect();
        recorder.bind_current(&replicas[0].ring);
        Host {
            replicas,
            slot,
            recorder,
            bound: 0,
        }
    }

    /// The replica at `i`, with its ring bound as the thread's ring.
    fn act_as(&mut self, i: usize) -> &mut Replica<'a> {
        if self.bound != i {
            self.recorder.bind_current(&self.replicas[i].ring);
            self.bound = i;
        }
        &mut self.replicas[i]
    }

    fn dispatch(&mut self, env: Envelope) {
        let Some(i) = self.slot.get(env.dst.index()).copied().flatten() else {
            // Misrouted (the bus never does this): not ours to serve.
            return;
        };
        let r = self.act_as(i);
        let exempt = env.exempt;
        r.ring.record_span(
            FlightKind::BusDeliver,
            r.me.0,
            u64::from(env.src.0),
            env.msg.flight_label(),
            env.span.flight_word(),
        );
        r.handle(env);
        if exempt && r.amnesia && r.catchup.is_none() {
            // Retransmission pressure: an exempt arrival means some client
            // is stuck waiting, plausibly on a withheld ack — group-commit
            // now.
            r.flush_wal();
        }
    }

    /// The dry point, replica by replica under its own ring: group-commit
    /// the WAL, then send the buffered replies — the acks that commit just
    /// released among them, so they leave in this flush and never before
    /// their records are durable.
    fn flush_all(&mut self) {
        for i in 0..self.replicas.len() {
            let r = &self.replicas[i];
            if r.wal.unsynced_len() == 0 && r.out.is_empty() {
                continue;
            }
            let r = self.act_as(i);
            if r.wal.unsynced_len() > 0 {
                r.flush_wal();
            }
            r.out.flush_pending();
        }
    }

    fn any_recovering(&self) -> bool {
        self.replicas.iter().any(|r| r.catchup.is_some())
    }

    /// Cuts every open catch-up short, running any crash signals queued
    /// behind it (each of which is cut short in turn).
    fn abort_catchups(&mut self) {
        for i in 0..self.replicas.len() {
            while self.replicas[i].catchup.is_some() {
                self.act_as(i).end_catchup(true);
            }
        }
    }
}

/// An acknowledgment withheld until the WAL covers its timestamp (the
/// write-ahead ack discipline).
struct PendingAck {
    ts: Ts,
    dst: Pid,
    obj: ObjId,
    sn: u32,
    /// The request frame's tag, echoed so socket transports can route the
    /// ack back to the issuing client lane.
    re: u64,
    /// The update's trace context, echoed (as the reply hop) on the
    /// released ack so the exchange stays span-attributed end to end.
    span: SpanCtx,
}

/// An open peer catch-up: the recovering state of one replica.
struct Catchup {
    /// The state-transfer exchange this catch-up waits on.
    sn: u64,
    /// Matching replies still to come.
    needed: usize,
    /// Per-register freshest answer across the replies so far.
    best: BTreeMap<ObjId, (Val, Ts)>,
    /// When this recovery started.
    t0: Instant,
    /// Crash signals that arrived meanwhile, run one after another once
    /// this recovery ends.
    crashes: u64,
    /// The replica's ABD traffic that arrived meanwhile, in arrival order.
    buffered: Vec<Envelope>,
}

/// One ABD replica with its durable storage and recovery machinery.
struct Replica<'a> {
    me: Pid,
    group: Vec<Pid>,
    /// Every send of this replica: buffered until the host's mailbox runs
    /// dry (or [`REPLY_BATCH_MAX`] accumulate), then one batch.
    out: BatchingTransport<'a>,
    sink: Arc<RecoverySink>,
    state: StoreState,
    wal: MultiWal,
    pending_acks: Vec<PendingAck>,
    amnesia: bool,
    demo_skip: bool,
    /// Exchange counter for recovery state transfer, scoped to this replica.
    catchup_sn: u64,
    /// `Some` while the replica is recovering from a crash.
    catchup: Option<Catchup>,
    /// This replica's flight-recorder ring (`server-<pid>`).
    ring: Arc<FlightRing>,
}

impl<'a> Replica<'a> {
    fn new(r: HostedReplica, bus: &'a dyn Transport, recorder: &FlightRecorder) -> Replica<'a> {
        assert!(
            r.group.contains(&r.me),
            "a replica group includes its own pid"
        );
        let (amnesia, fsync_interval, demo_skip) = match r.mode {
            RecoveryMode::Stable => (false, 1, false),
            RecoveryMode::Amnesia {
                fsync_interval,
                demo_skip_recovery,
            } => (true, fsync_interval, demo_skip_recovery),
        };
        Replica {
            me: r.me,
            group: r.group,
            out: BatchingTransport::hosted(bus, REPLY_BATCH_MAX),
            sink: r.sink,
            state: StoreState::new(Val::Nil),
            wal: MultiWal::new(fsync_interval),
            pending_acks: Vec::new(),
            amnesia,
            demo_skip,
            catchup_sn: 0,
            catchup: None,
            ring: recorder.register(&format!("server-{}", r.me.0)),
        }
    }

    fn handle(&mut self, env: Envelope) {
        if let Some(c) = self.catchup.as_mut() {
            if matches!(env.msg, Payload::Abd(_)) {
                // Served only once recovery is done.
                c.buffered.push(env);
                return;
            }
        }
        match env.msg {
            Payload::Abd(msg) => self.handle_abd(env.src, msg, env.exempt, env.reply_to, env.span),
            Payload::Crash { .. } => self.on_crash_signal(),
            // Answered inline even while recovering: a peer recovering
            // concurrently waits on this answer.
            Payload::StateQuery { sn } => self.answer_state_query(env.src, sn, env.reply_to),
            Payload::StateReply { sn, snap } => self.on_state_reply(sn, snap),
        }
    }

    fn handle_abd(&mut self, src: Pid, msg: AbdMsg, exempt: bool, re: u64, span: SpanCtx) {
        match msg {
            AbdMsg::Query { obj, sn } => {
                // Queries may serve volatile (unsynced) state: a reader that
                // returns it first re-makes it durable at an ack-quorum via
                // its own write-back, so a later crash here cannot un-happen
                // an observed read (docs/RUNTIME.md).
                let reply = self.state.reply(obj, sn);
                self.out.send(
                    Envelope::abd(self.me, src, reply, exempt)
                        .in_reply_to(re)
                        .with_span(span.reply()),
                );
            }
            AbdMsg::Update { obj, sn, val, ts } => {
                if !self.amnesia {
                    self.state.absorb(obj, val, ts);
                    self.ring.record_span(
                        FlightKind::ServerAck,
                        self.me.0,
                        u64::from(src.0),
                        u64::from(sn),
                        span.flight_word(),
                    );
                    self.out.send(
                        Envelope::abd(self.me, src, AbdMsg::Ack { obj, sn }, exempt)
                            .in_reply_to(re)
                            .with_span(span.reply()),
                    );
                    return;
                }
                // Amnesia-mode acks are always exempt: group commit makes
                // an ack's timing — and, when a crash clears a withheld
                // ack, its very existence — depend on flush scheduling, so
                // routing acks through the per-link schedule would make
                // `TransportStats::offered` timing-dependent and break replay.
                // The injector still exercises this exchange through the
                // update leg, which drives the same retransmission path.
                self.state.absorb(obj, val.clone(), ts);
                if self.wal.durable_ts(obj) >= ts {
                    // A durable record already covers this timestamp —
                    // replay would restore state at least this new, so the
                    // ack is safe immediately.
                    self.ring.record_span(
                        FlightKind::ServerAck,
                        self.me.0,
                        u64::from(src.0),
                        u64::from(sn),
                        span.flight_word(),
                    );
                    self.out.send(
                        Envelope::abd(self.me, src, AbdMsg::Ack { obj, sn }, true)
                            .in_reply_to(re)
                            .with_span(span.reply()),
                    );
                } else {
                    // Write-ahead ack discipline: log first, ack after the
                    // covering fsync. (Re-appending a retransmitted update
                    // whose record is still unsynced is harmless — the
                    // checkpoint keeps the max.)
                    self.wal.append(obj, val, ts);
                    self.pending_acks.push(PendingAck {
                        ts,
                        dst: src,
                        obj,
                        sn,
                        re,
                        span,
                    });
                    if self.wal.batch_full() {
                        self.flush_wal();
                    }
                }
            }
            // Replies and acks are client-bound; a misrouted one is
            // ignorable.
            AbdMsg::Reply { .. } | AbdMsg::Ack { .. } => {}
        }
    }

    /// Group commit: one fsync covers every register's pending records
    /// (the shards share the storage file), then release every
    /// acknowledgment the new per-register durable frontiers cover —
    /// which is all of them, since each frontier is that register's max
    /// appended timestamp. The single fsync amortizes across keys: that
    /// is the batched-WAL half of the store's group commit.
    fn flush_wal(&mut self) {
        let t0 = Instant::now();
        self.wal.fsync();
        let fsync_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        if self.pending_acks.is_empty() {
            return;
        }
        self.ring.record(
            FlightKind::WalFlush,
            self.me.0,
            self.pending_acks.len() as u64,
            fsync_us,
        );
        let mut i = 0;
        while i < self.pending_acks.len() {
            if self.pending_acks[i].ts <= self.wal.durable_ts(self.pending_acks[i].obj) {
                let a = self.pending_acks.swap_remove(i);
                self.ring.record_span(
                    FlightKind::ServerAck,
                    self.me.0,
                    u64::from(a.dst.0),
                    u64::from(a.sn),
                    a.span.flight_word(),
                );
                // Exempt like every amnesia-mode ack (see `handle_abd`).
                self.out.send(
                    Envelope::abd(
                        self.me,
                        a.dst,
                        AbdMsg::Ack {
                            obj: a.obj,
                            sn: a.sn,
                        },
                        true,
                    )
                    .in_reply_to(a.re)
                    .with_span(a.span.reply()),
                );
            } else {
                i += 1;
            }
        }
    }

    fn answer_state_query(&self, peer: Pid, sn: u64, re: u64) {
        self.out.send(Envelope {
            src: self.me,
            dst: peer,
            msg: Payload::StateReply {
                sn,
                snap: self.state.snapshot_all(),
            },
            exempt: true,
            reply_to: re,
            span: SpanCtx::NONE,
        });
    }

    /// The amnesia signal arrived. Mid-recovery it queues behind the
    /// current recovery; otherwise the replica crashes now.
    fn on_crash_signal(&mut self) {
        if !self.amnesia {
            // Stable-mode replicas keep their memory across crash windows;
            // a stray signal (e.g. a driver misconfigured relative to its
            // servers in multi-process mode) is ignorable, not fatal.
            return;
        }
        match self.catchup.as_mut() {
            Some(c) => c.crashes += 1,
            None => self.run_crashes(1, Vec::new()),
        }
    }

    /// Runs `crashes` crash + recovery cycles back to back, then replays
    /// `buffered` in arrival order. Stops early — parking the remaining
    /// cycles and the buffer in the replica's [`Catchup`] — as soon as a
    /// cycle has to wait for its peers.
    fn run_crashes(&mut self, mut crashes: u64, buffered: Vec<Envelope>) {
        while crashes > 0 {
            crashes -= 1;
            let Some(t0) = self.crash_and_replay() else {
                continue;
            };
            match self.start_catchup() {
                Some((sn, needed)) => {
                    self.catchup = Some(Catchup {
                        sn,
                        needed,
                        best: BTreeMap::new(),
                        t0,
                        crashes,
                        buffered,
                    });
                    return;
                }
                None => self.recovered(t0),
            }
        }
        for env in buffered {
            if let Payload::Abd(msg) = env.msg {
                self.handle_abd(env.src, msg, env.exempt, env.reply_to, env.span);
            }
        }
    }

    /// The crash plus phase 1 of recovery (WAL replay). Returns when the
    /// recovery started, or `None` for the intentionally-broken recovery,
    /// which never runs.
    fn crash_and_replay(&mut self) -> Option<Instant> {
        // What the replica sent before the crash leaves first; volatile
        // transport-side state (socket dedup windows) then dies with the
        // server — the in-process bus keeps none and no-ops this.
        self.out.on_crash();
        // The crash: unsynced WAL suffix and all volatile state are gone.
        // Withheld acks die with their records — the clients retransmit and
        // the updates are re-logged.
        let lost = self.wal.lose_unsynced();
        self.pending_acks.clear();
        self.state.forget();
        self.sink.on_crash(lost as u64);
        self.ring
            .record(FlightKind::ServerCrash, self.me.0, lost as u64, 0);

        if self.demo_skip {
            // The intentionally-broken recovery: no replay, no catch-up —
            // and storage itself wiped, modeling a server that comes back
            // blank and immediately serves timestamp (0, 0). The monitor
            // must flag the stale reads this produces.
            self.wal.wipe();
            return None;
        }
        let t0 = Instant::now();
        // Phase 1 — WAL replay: restore every register's newest durable
        // record. Every acknowledged update is covered by this (write-ahead
        // ack discipline), so the replica is already *sound* here; what it
        // may lack is freshness.
        let checkpoints = self.wal.replay();
        if !checkpoints.is_empty() {
            for (obj, val, ts) in checkpoints {
                self.state.restore(obj, val, ts);
            }
            self.sink.on_replay();
        }
        Some(t0)
    }

    /// Phase 2 of recovery — peer catch-up, mirroring the ABD read phase:
    /// ask every peer, wait for quorum−1 answers (self completes the
    /// majority), adopt the newest. Exempt traffic: recovery never perturbs
    /// the fault schedule. Returns the exchange and the answers needed, or
    /// `None` when the group has no one to ask.
    fn start_catchup(&mut self) -> Option<(u64, usize)> {
        let peers: Vec<Pid> = self
            .group
            .iter()
            .copied()
            .filter(|p| *p != self.me)
            .collect();
        let quorum = u32::try_from(self.group.len()).expect("group fits u32") / 2 + 1;
        let needed = (quorum.saturating_sub(1) as usize).min(peers.len());
        if needed == 0 {
            return None;
        }
        self.catchup_sn += 1;
        let sn = self.catchup_sn;
        for p in &peers {
            self.out.send(Envelope {
                src: self.me,
                dst: *p,
                msg: Payload::StateQuery { sn },
                exempt: true,
                reply_to: 0,
                span: SpanCtx::NONE,
            });
        }
        self.sink.on_state_queries(peers.len() as u64);
        Some((sn, needed))
    }

    fn on_state_reply(&mut self, sn: u64, snap: Vec<(ObjId, Val, Ts)>) {
        let Some(c) = self.catchup.as_mut().filter(|c| c.sn == sn) else {
            // A reply to a catch-up exchange that already completed (or was
            // aborted): stale, ignorable.
            return;
        };
        for (obj, val, ts) in snap {
            match c.best.entry(obj) {
                Entry::Vacant(e) => {
                    e.insert((val, ts));
                }
                Entry::Occupied(mut e) => {
                    if ts > e.get().1 {
                        e.insert((val, ts));
                    }
                }
            }
        }
        c.needed -= 1;
        if c.needed == 0 {
            self.end_catchup(false);
        }
    }

    /// Closes the open catch-up — complete, or cut short by shutdown —
    /// installs what it learned, and goes on with any queued crashes and
    /// then the buffered traffic.
    fn end_catchup(&mut self, aborted: bool) {
        let c = self.catchup.take().expect("a catch-up is open");
        if aborted {
            self.sink.on_catchup_aborted();
        }
        for (obj, (val, ts)) in c.best {
            // Freshness only: install iff newer than the replayed
            // checkpoint (absorb's own rule), register by register.
            self.state.absorb(obj, val, ts);
        }
        self.recovered(c.t0);
        self.run_crashes(c.crashes, c.buffered);
    }

    fn recovered(&self, t0: Instant) {
        let recovery_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.sink.on_recovery(recovery_us);
        self.ring
            .record(FlightKind::ServerRecover, self.me.0, recovery_us, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;
    use blunt_net::{Coverage, FaultConfig, TransportStats};
    use std::sync::Mutex;
    use std::thread;

    const BOUND: Duration = Duration::from_secs(10);

    fn crash(pid: u32) -> Envelope {
        Envelope {
            src: Pid(pid),
            dst: Pid(pid),
            msg: Payload::Crash { window: 0 },
            exempt: true,
            reply_to: 0,
            span: SpanCtx::NONE,
        }
    }

    fn query(client: u32, dst: u32, sn: u32) -> Envelope {
        Envelope::abd(
            Pid(client),
            Pid(dst),
            AbdMsg::Query { obj: ObjId(0), sn },
            false,
        )
    }

    fn replica(me: u32, group: &[u32], sink: &Arc<RecoverySink>) -> HostedReplica {
        HostedReplica {
            me: Pid(me),
            group: group.iter().copied().map(Pid).collect(),
            mode: RecoveryMode::amnesia(),
            sink: Arc::clone(sink),
        }
    }

    /// Both replicas of a two-replica shard on one host crash back to back.
    /// Each one's catch-up needs the other's answer, so both recover only
    /// if a recovering replica answers its peer's state query inline.
    #[test]
    fn back_to_back_crashes_on_one_host_recover_and_replay_in_order() {
        let recorder = Arc::new(FlightRecorder::new(256));
        // Pids 0 and 1 (the shard) share mailbox 0; client pid 2 has 1.
        let (bus, mut rxs) = Bus::with_mailboxes(
            0,
            FaultConfig::none(),
            2,
            &[0, 0, 1],
            false,
            Arc::clone(&recorder),
        )
        .unwrap();
        let bus = Arc::new(bus);
        let client_rx = rxs.pop().unwrap();
        let host_rx = rxs.pop().unwrap();
        let sink = Arc::new(RecoverySink::default());
        // Everything is queued before the host starts, so both crashes
        // land before either catch-up can finish.
        bus.send(crash(0));
        bus.send(crash(1));
        for sn in 1..=3 {
            bus.send(query(2, 0, sn));
        }
        let write = AbdMsg::Update {
            obj: ObjId(0),
            sn: 4,
            val: Val::Int(9),
            ts: Ts::new(1, Pid(2)),
        };
        bus.send(Envelope::abd(Pid(2), Pid(1), write, false));
        bus.send(query(2, 0, 5));
        let stop = Arc::new(AtomicBool::new(false));
        let host = {
            let (bus, stop, recorder) =
                (Arc::clone(&bus), Arc::clone(&stop), Arc::clone(&recorder));
            let replicas = vec![replica(0, &[0, 1], &sink), replica(1, &[0, 1], &sink)];
            thread::spawn(move || host_loop(replicas, host_rx, bus.as_ref(), &stop, &recorder))
        };
        let mut from_0 = Vec::new();
        let mut acked = false;
        while from_0.len() < 4 || !acked {
            let env = client_rx
                .recv_timeout(BOUND)
                .expect("both replicas recover and serve within the bound");
            match env.msg {
                Payload::Abd(AbdMsg::Reply { sn, .. }) if env.src == Pid(0) => from_0.push(sn),
                Payload::Abd(AbdMsg::Ack { sn: 4, .. }) if env.src == Pid(1) => acked = true,
                other => panic!("unexpected {other:?} from {:?}", env.src),
            }
        }
        assert_eq!(from_0, vec![1, 2, 3, 5], "buffered traffic replays FIFO");
        stop.store(true, Ordering::Relaxed);
        host.join().unwrap();
        let r = sink.snapshot();
        assert_eq!((r.crashes, r.recoveries), (2, 2));
        assert_eq!(r.catchup_aborted, 0, "both catch-ups completed");
        assert_eq!(r.state_queries, 2);
    }

    /// Under amnesia an update's ack waits for the WAL record covering it;
    /// a lone update never fills a group-commit batch, so the ack goes out
    /// when the host's mailbox runs dry.
    #[test]
    fn a_dry_mailbox_flushes_the_wal_and_releases_withheld_acks() {
        let recorder = Arc::new(FlightRecorder::new(256));
        let (bus, mut rxs) = Bus::with_mailboxes(
            0,
            FaultConfig::none(),
            1,
            &[0, 1],
            false,
            Arc::clone(&recorder),
        )
        .unwrap();
        let bus = Arc::new(bus);
        let client_rx = rxs.pop().unwrap();
        let host_rx = rxs.pop().unwrap();
        let sink = Arc::new(RecoverySink::default());
        let stop = Arc::new(AtomicBool::new(false));
        let host = {
            let (bus, stop, recorder) =
                (Arc::clone(&bus), Arc::clone(&stop), Arc::clone(&recorder));
            let replicas = vec![replica(0, &[0], &sink)];
            thread::spawn(move || host_loop(replicas, host_rx, bus.as_ref(), &stop, &recorder))
        };
        let write = AbdMsg::Update {
            obj: ObjId(0),
            sn: 1,
            val: Val::Int(3),
            ts: Ts::new(1, Pid(1)),
        };
        bus.send(Envelope::abd(Pid(1), Pid(0), write, false));
        let ack = client_rx.recv_timeout(BOUND).expect("the ack is released");
        assert!(matches!(ack.msg, Payload::Abd(AbdMsg::Ack { sn: 1, .. })));
        stop.store(true, Ordering::Relaxed);
        host.join().unwrap();
    }

    /// A catch-up whose only peer never answers stays open until shutdown;
    /// the host's idle poll then cuts it short, runs the crash signal that
    /// queued behind it (cut short in turn), and replays the buffered query.
    #[test]
    fn shutdown_aborts_open_catchups_and_keeps_crashes_equal_to_recoveries() {
        let recorder = Arc::new(FlightRecorder::new(256));
        // Pid 0 is hosted; its peer pid 1 is a silent mailbox; client pid 2.
        let (bus, mut rxs) = Bus::with_mailboxes(
            0,
            FaultConfig::none(),
            2,
            &[0, 1, 2],
            false,
            Arc::clone(&recorder),
        )
        .unwrap();
        let bus = Arc::new(bus);
        let client_rx = rxs.pop().unwrap();
        let peer_rx = rxs.pop().unwrap();
        let host_rx = rxs.pop().unwrap();
        let sink = Arc::new(RecoverySink::default());
        bus.send(crash(0));
        bus.send(query(2, 0, 1));
        bus.send(crash(0));
        let stop = Arc::new(AtomicBool::new(false));
        let host = {
            let (bus, stop, recorder) =
                (Arc::clone(&bus), Arc::clone(&stop), Arc::clone(&recorder));
            let replicas = vec![replica(0, &[0, 1], &sink)];
            thread::spawn(move || host_loop(replicas, host_rx, bus.as_ref(), &stop, &recorder))
        };
        let first = peer_rx.recv_timeout(BOUND).expect("catch-up asks its peer");
        assert!(matches!(first.msg, Payload::StateQuery { .. }));
        assert!(
            client_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a recovering replica serves nothing"
        );
        stop.store(true, Ordering::Relaxed);
        host.join().unwrap();
        let r = sink.snapshot();
        assert_eq!((r.crashes, r.recoveries), (2, 2));
        assert_eq!(r.catchup_aborted, 2);
        let reply = client_rx.try_recv().expect("the buffered query is served");
        assert!(matches!(
            reply.msg,
            Payload::Abd(AbdMsg::Reply { sn: 1, .. })
        ));
    }

    /// What the host handed its transport: one entry per call, each the
    /// `(message kind, sn)` of the envelopes it carried.
    type Batches = Vec<Vec<(&'static str, u64)>>;

    /// A bus that records every batch the host hands it.
    struct Probe {
        bus: Bus,
        batches: Mutex<Batches>,
    }

    fn shape(env: &Envelope) -> (&'static str, u64) {
        match &env.msg {
            Payload::Abd(AbdMsg::Reply { sn, .. }) => ("reply", u64::from(*sn)),
            Payload::Abd(AbdMsg::Ack { sn, .. }) => ("ack", u64::from(*sn)),
            Payload::Abd(_) => ("request", 0),
            Payload::Crash { window } => ("crash", *window),
            Payload::StateQuery { sn } => ("state_query", *sn),
            Payload::StateReply { sn, .. } => ("state_reply", *sn),
        }
    }

    impl Transport for Probe {
        fn send(&self, env: Envelope) {
            self.batches.lock().unwrap().push(vec![shape(&env)]);
            self.bus.send(env);
        }

        fn send_batch(&self, envs: Vec<Envelope>) {
            self.batches
                .lock()
                .unwrap()
                .push(envs.iter().map(shape).collect());
            self.bus.send_batch(envs);
        }

        fn flush(&self) {
            self.bus.flush();
        }

        fn stats(&self) -> TransportStats {
            self.bus.stats()
        }

        fn coverage(&self) -> Coverage {
            self.bus.coverage()
        }
    }

    /// Runs one amnesia replica (pid 0, alone in its group) on a host over
    /// everything `queue` enqueues, with the stop flag already raised: the
    /// host works through its mailbox, flushes at the dry point, and
    /// returns after one idle poll. Returns the batches it sent and replica
    /// 0's flight events.
    fn run_queued(queue: impl FnOnce(&Bus)) -> (Batches, Vec<FlightKind>) {
        let recorder = Arc::new(FlightRecorder::new(256));
        let (bus, mut rxs) = Bus::with_mailboxes(
            0,
            FaultConfig::none(),
            1,
            &[0, 1],
            false,
            Arc::clone(&recorder),
        )
        .unwrap();
        let host_rx = rxs.remove(0);
        queue(&bus);
        let probe = Probe {
            bus,
            batches: Mutex::new(Vec::new()),
        };
        let sink = Arc::new(RecoverySink::default());
        let stop = AtomicBool::new(true);
        host_loop(
            vec![replica(0, &[0], &sink)],
            host_rx,
            &probe,
            &stop,
            &recorder,
        );
        let events = recorder
            .dump()
            .events
            .into_iter()
            .filter(|e| e.ring == "server-0")
            .map(|e| e.kind)
            .collect();
        (probe.batches.into_inner().unwrap(), events)
    }

    fn update(client: u32, sn: u32) -> Envelope {
        let write = AbdMsg::Update {
            obj: ObjId(0),
            sn,
            val: Val::Int(7),
            ts: Ts::new(1, Pid(client)),
        };
        Envelope::abd(Pid(client), Pid(0), write, false)
    }

    /// The ack a dry-point fsync releases leaves in that same flush, with
    /// the reply buffered before it — one batch, after the WAL flush.
    #[test]
    fn a_dry_point_ack_leaves_in_the_flush_after_its_fsync() {
        let (batches, events) = run_queued(|bus| {
            bus.send(query(1, 0, 1));
            bus.send(update(1, 2));
        });
        assert_eq!(batches, vec![vec![("reply", 1), ("ack", 2)]]);
        let flushed = events.iter().position(|k| *k == FlightKind::WalFlush);
        let acked = events.iter().position(|k| *k == FlightKind::ServerAck);
        let sent = events.iter().rposition(|k| *k == FlightKind::BusSend);
        assert!(
            flushed < acked && acked < sent && flushed.is_some(),
            "fsync, then the ack's release, then its send: {events:?}"
        );
    }

    /// What a replica buffered before its crash leaves before the crash is
    /// handled, not with the replies it serves after recovering.
    #[test]
    fn a_replicas_buffer_is_flushed_before_its_crash_is_handled() {
        let (batches, events) = run_queued(|bus| {
            bus.send(query(1, 0, 1));
            bus.send(crash(0));
            bus.send(query(1, 0, 2));
        });
        assert_eq!(batches, vec![vec![("reply", 1)], vec![("reply", 2)]]);
        let first_send = events.iter().position(|k| *k == FlightKind::BusSend);
        let crash = events.iter().position(|k| *k == FlightKind::ServerCrash);
        assert!(
            first_send < crash && first_send.is_some(),
            "the pre-crash reply is sent before the crash: {events:?}"
        );
    }

    /// Two replicas on one host answer in the same idle period; each
    /// replica's batch is realized with its own ring bound, so its
    /// `BusSend` and fault events land in its `server-<pid>` ring.
    #[test]
    fn each_replicas_flush_records_into_its_own_ring() {
        let recorder = Arc::new(FlightRecorder::new(1024));
        let faults = FaultConfig {
            drop_per_mille: 300,
            ..FaultConfig::none()
        };
        // Pids 0 and 1 share mailbox 0; client pid 2 has mailbox 1.
        let (bus, mut rxs) =
            Bus::with_mailboxes(5, faults, 2, &[0, 0, 1], false, Arc::clone(&recorder)).unwrap();
        let host_rx = rxs.remove(0);
        for sn in 0..24 {
            bus.send(query(2, sn % 2, sn));
        }
        let sink = Arc::new(RecoverySink::default());
        let replicas = vec![replica(0, &[0, 1], &sink), replica(1, &[0, 1], &sink)];
        host_loop(replicas, host_rx, &bus, &AtomicBool::new(true), &recorder);
        let mut sends = [0, 0];
        let mut faults_seen = 0;
        for e in recorder.dump().events {
            let send = e.kind == FlightKind::BusSend;
            // pid is the sender: 0 and 1 are the replicas, 2 the client.
            if e.pid >= 2 || !(send || e.kind == FlightKind::FaultDrop) {
                continue;
            }
            assert_eq!(e.ring, format!("server-{}", e.pid), "{e:?}");
            if send {
                sends[e.pid as usize] += 1;
            } else {
                faults_seen += 1;
            }
        }
        assert!(sends[0] > 0 && sends[1] > 0, "both replicas replied");
        assert!(faults_seen > 0, "some replies drew a drop");
    }
}
