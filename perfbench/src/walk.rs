//! The traced layer walk: a single-threaded replay of a workload's op
//! stream through every layer's public functions, in the order an op
//! crosses them, with a span around each call.
//!
//! The walk replays client 0's op stream (the same key and read/write
//! draws the store's client 0 makes for the seed) on one client lane. It
//! keeps up to `pipeline_depth` ops open at once and starts them by the
//! client's own rule (first pending op whose key is not in flight), so the
//! monitor and the ABD client machines see the live run's overlap. Messages
//! move in global send order:
//!
//! - in-process workloads: through a real [`Bus`] (fault-free, so every
//!   send is one enqueue; the fault decision is timed on its own, see
//!   [`micro`]);
//! - `uds_hot`: through the frame codec and the tagged-RPC pieces — the
//!   client's batches are packed per destination into `EnvBatch` frames,
//!   servers answer with `Env` frames — with no sockets.
//!
//! Servers are [`StoreState`]s pre-loaded with every key of their shard;
//! on `inproc_amnesia` they also log updates to a [`MultiWal`] and hold
//! each ack until a group commit covers it (batch full, or idle), as the
//! runtime's server loop does. The walk injects no faults and no crashes.
//!
//! Each step of the replay (an op start, a delivery, a batch flush, an
//! idle group commit) is a root span; the layer calls inside it are its
//! children. Spans of one op share the op's id; work several ops share is
//! attributed to the op whose step caused it, or to [`SHARED_OP`].

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blunt_abd::client::{AckEffect, ActiveOp, OpKind, ReplyEffect};
use blunt_abd::msg::AbdMsg;
use blunt_abd::server::StoreState;
use blunt_abd::ts::Ts;
use blunt_core::history::Action;
use blunt_core::ids::{InvId, MethodId, ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::injector::Injector;
use blunt_net::rpc::{DedupWindow, ReplyRouter, TagGen};
use blunt_net::{
    Coverage, Envelope, FaultConfig, Frame, Payload, SpanCtx, TaggedEnv, Transport, TransportStats,
};
use blunt_obs::flight::encode_val;
use blunt_obs::{FlightKind, FlightRecorder, FlightRing, Histogram};
use blunt_runtime::{Bus, MultiWal, OnlineMonitor};
use blunt_sim::rng::{RandomSource, SplitMix64};
use blunt_store::{BatchingTransport, HashRing, StoreConfig};

use crate::trace::{Trace, SHARED_OP};
use crate::workload::Workload;

/// The value every key holds before the walk starts; the monitors take it
/// as the registers' initial value.
const PRELOADED: Val = Val::Int(-1);

/// One message in flight: where it goes, the op it carries (or
/// [`SHARED_OP`]), and its encoded frame on the socket-tier path.
struct Msg {
    dst: u32,
    op: u64,
    frame: Vec<u8>,
}

/// The op an envelope works for: the walk stamps each op's invocation id
/// (1-based) into its span context.
fn op_of(env: &Envelope) -> u64 {
    if env.span.is_none() {
        SHARED_OP
    } else {
        env.span.op
    }
}

/// The message layer under the walk: a [`Transport`] for the sending side
/// plus an in-order delivery queue for the receiving side.
trait WalkNet: Transport {
    /// The next message in global send order.
    fn next(&self) -> Option<Msg>;
    /// Receives `msg` at its destination, returning its envelopes with
    /// `reply_to` set as the real receiver sets it.
    fn recv(&self, msg: Msg) -> Vec<Envelope>;
    /// Marks the start of a burst on the client lane.
    fn begin_burst(&self) {}
}

/// In-process: a real [`Bus`], read back from its own mailboxes.
struct BusNet<T> {
    bus: Bus,
    rxs: Vec<Mutex<Receiver<Envelope>>>,
    queue: Mutex<VecDeque<Msg>>,
    t: T,
}

impl<T: Trace> Transport for BusNet<T> {
    fn send(&self, env: Envelope) {
        let msg = Msg {
            dst: env.dst.0,
            op: op_of(&env),
            frame: Vec::new(),
        };
        self.t.span("bus.send", || self.bus.send(env));
        self.queue.lock().expect("walk queue").push_back(msg);
    }

    fn flush(&self) {}

    fn stats(&self) -> TransportStats {
        self.bus.stats()
    }

    fn coverage(&self) -> Coverage {
        self.bus.coverage()
    }
}

impl<T: Trace> WalkNet for BusNet<T> {
    fn next(&self) -> Option<Msg> {
        self.queue.lock().expect("walk queue").pop_front()
    }

    fn recv(&self, msg: Msg) -> Vec<Envelope> {
        let rx = self.rxs[msg.dst as usize].lock().expect("walk mailbox");
        let env = self.t.span("bus.recv", || rx.try_recv());
        // A fault-free bus enqueues exactly once per send, in send order.
        vec![env.expect("a queued message is in its mailbox")]
    }
}

/// Socket tier without sockets: fault decisions, tags, reply routing,
/// duplicate suppression and the frame codec, as the socket endpoints
/// run them.
struct FrameNet<T> {
    servers: u32,
    injector: Mutex<Injector>,
    tags: TagGen,
    router: ReplyRouter,
    dedup: Vec<Mutex<DedupWindow>>,
    queue: Mutex<VecDeque<Msg>>,
    t: T,
}

impl<T: Trace> FrameNet<T> {
    fn push(&self, dst: u32, op: u64, frame: &Frame) {
        let bytes = self
            .t
            .span("net.frame_encode", || frame.encode())
            .expect("walk frames fit the frame limit");
        self.queue.lock().expect("walk queue").push_back(Msg {
            dst,
            op,
            frame: bytes,
        });
    }

    fn decide(&self, env: &Envelope) {
        if !env.exempt {
            // Fault-free: every fate is Deliver.
            self.t.span("net.injector_decide", || {
                self.injector
                    .lock()
                    .expect("injector")
                    .decide(env.src, env.dst)
            });
        }
    }
}

impl<T: Trace> Transport for FrameNet<T> {
    /// A server's reply: one `Env` frame.
    fn send(&self, env: Envelope) {
        self.decide(&env);
        let tag = self.tags.next();
        let (dst, op, re) = (env.dst.0, op_of(&env), env.reply_to);
        let frame = Frame::Env {
            tag,
            re,
            env: Envelope { reply_to: 0, ..env },
        };
        self.push(dst, op, &frame);
    }

    /// A client flush: entries grouped per destination into `EnvBatch`
    /// frames, in first-appearance order.
    fn send_batch(&self, envs: Vec<Envelope>) {
        let mut per_dst: Vec<(u32, u64, Vec<TaggedEnv>)> = Vec::new();
        for env in envs {
            self.decide(&env);
            let tag = self.tags.next();
            self.t.span("net.rpc", || self.router.register(0, tag));
            let (dst, op) = (env.dst.0, op_of(&env));
            let entry = TaggedEnv {
                tag,
                re: 0,
                env: Envelope { reply_to: 0, ..env },
            };
            match per_dst.iter_mut().find(|(d, _, _)| *d == dst) {
                Some((_, o, b)) => {
                    if *o != op {
                        *o = SHARED_OP;
                    }
                    b.push(entry);
                }
                None => per_dst.push((dst, op, vec![entry])),
            }
        }
        for (dst, op, entries) in per_dst {
            self.push(dst, op, &Frame::EnvBatch { entries });
        }
    }

    fn flush(&self) {}

    fn stats(&self) -> TransportStats {
        self.injector.lock().expect("injector").stats()
    }

    fn coverage(&self) -> Coverage {
        self.injector.lock().expect("injector").coverage()
    }
}

impl<T: Trace> WalkNet for FrameNet<T> {
    fn next(&self) -> Option<Msg> {
        self.queue.lock().expect("walk queue").pop_front()
    }

    fn recv(&self, msg: Msg) -> Vec<Envelope> {
        let frame = self
            .t
            .span("net.frame_decode", || Frame::decode(&msg.frame[4..]))
            .expect("the walk decodes what it encoded");
        let entries = match frame {
            Frame::Env { tag, re, env } => vec![TaggedEnv { tag, re, env }],
            Frame::EnvBatch { entries } => entries,
            other => panic!("walk never sends {other:?}"),
        };
        let mut out = Vec::with_capacity(entries.len());
        for e in entries {
            if msg.dst < self.servers {
                let mut d = self.dedup[msg.dst as usize].lock().expect("dedup");
                if !self.t.span("net.rpc", || d.admit(e.tag)) {
                    continue;
                }
            } else if self.t.span("net.rpc", || self.router.route(e.re)).is_none() {
                continue;
            }
            out.push(e.env.in_reply_to(e.tag));
        }
        out
    }

    fn begin_burst(&self) {
        self.router.begin_op(0);
    }
}

/// An ack held until a group commit covers its timestamp.
struct HeldAck {
    ts: Ts,
    dst: Pid,
    obj: ObjId,
    sn: u32,
    re: u64,
    span: SpanCtx,
}

/// One replica as the walk drives it.
struct Replica {
    state: StoreState,
    wal: MultiWal,
    held: Vec<HeldAck>,
}

/// One op in flight on the walk's client lane.
struct Open {
    inv: InvId,
    key: ObjId,
    is_read: bool,
    shard: u32,
    span: SpanCtx,
    machine: ActiveOp,
    t0: Instant,
}

/// What one pass of the walk did.
pub struct Pass {
    /// Wall time of the whole pass (set-up excluded), ns.
    pub wall_ns: u64,
    /// Ops completed.
    pub ops: u64,
    /// Whether every shard monitor accepted the walk's history.
    pub clean: bool,
}

/// Everything a pass needs besides the message layer.
struct Walker<'a, T, N> {
    t: T,
    net: &'a N,
    cfg: &'a StoreConfig,
    amnesia: bool,
    me: Pid,
    ring: HashRing,
    replicas: Vec<Replica>,
    monitors: Vec<OnlineMonitor>,
    flight: Arc<FlightRing>,
    latency: Histogram,
}

impl<T: Trace, N: WalkNet> Walker<'_, T, N> {
    fn shard_servers(&self, shard: u32) -> Vec<Pid> {
        let spr = self.cfg.servers_per_shard;
        (shard * spr..(shard + 1) * spr).map(Pid).collect()
    }

    /// A server's handling of one envelope.
    fn server(&mut self, s: u32, env: Envelope) {
        let t = self.t;
        let Payload::Abd(msg) = env.msg else {
            return;
        };
        let me = Pid(s);
        let (src, re, span) = (env.src, env.reply_to, env.span);
        let rep = &mut self.replicas[s as usize];
        match msg {
            AbdMsg::Query { obj, sn } => {
                let reply = t.span("abd.state_reply", || rep.state.reply(obj, sn));
                self.net.send(
                    Envelope::abd(me, src, reply, false)
                        .in_reply_to(re)
                        .with_span(span.reply()),
                );
            }
            AbdMsg::Update { obj, sn, val, ts } => {
                t.span("abd.state_absorb", || {
                    rep.state.absorb(obj, val.clone(), ts)
                });
                if !self.amnesia || rep.wal.durable_ts(obj) >= ts {
                    self.net.send(
                        Envelope::abd(me, src, AbdMsg::Ack { obj, sn }, self.amnesia)
                            .in_reply_to(re)
                            .with_span(span.reply()),
                    );
                    return;
                }
                t.span("storage.append", || rep.wal.append(obj, val, ts));
                rep.held.push(HeldAck {
                    ts,
                    dst: src,
                    obj,
                    sn,
                    re,
                    span,
                });
                if rep.wal.batch_full() {
                    self.commit(s);
                }
            }
            AbdMsg::Reply { .. } | AbdMsg::Ack { .. } => {}
        }
    }

    /// Group commit on replica `s`: one fsync, then every ack it covers.
    fn commit(&mut self, s: u32) {
        let rep = &mut self.replicas[s as usize];
        self.t.span("storage.fsync", || rep.wal.fsync());
        let mut i = 0;
        while i < rep.held.len() {
            if rep.held[i].ts <= rep.wal.durable_ts(rep.held[i].obj) {
                let a = rep.held.swap_remove(i);
                self.net.send(
                    Envelope::abd(
                        Pid(s),
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

    /// Records the op's completion: monitor return, latency, flight event.
    fn complete(&mut self, fl: &Open, ret: Val) {
        let t = self.t;
        let lat_us = fl.t0.elapsed().as_micros() as u64;
        let flight_val = encode_val(match &ret {
            Val::Int(v) => Some(*v),
            _ => None,
        });
        let mon = &mut self.monitors[fl.shard as usize];
        t.span("monitor.observe", || {
            mon.observe(Action::Return {
                inv: fl.inv,
                val: ret,
            })
        });
        t.span("obs.histogram_record", || self.latency.record(lat_us));
        t.span("obs.flight_record", || {
            self.flight.record_span_key(
                if fl.is_read {
                    FlightKind::OpCompleteRead
                } else {
                    FlightKind::OpCompleteWrite
                },
                self.me.0,
                fl.inv.0,
                flight_val,
                fl.span.flight_word(),
                u64::from(fl.key.0),
            );
        });
    }
}

/// Runs one pass over `ops` ops of `wl`'s op stream for `seed`.
fn pass<T, N>(t: T, wl: Workload, seed: u64, ops: u64, net: &N, bt: &BatchingTransport<'_>) -> Pass
where
    T: Trace,
    N: WalkNet,
{
    let cfg = wl.store_config(seed, ops);
    let servers = cfg.servers_total();
    let ring = HashRing::new(cfg.seed, cfg.shards);
    let replicas = (0..servers)
        .map(|s| {
            let shard = s / cfg.servers_per_shard;
            let mut state = StoreState::new(Val::Nil);
            // Steady state: every key of the shard already written once.
            for k in 0..cfg.keys {
                if ring.shard_for(ObjId(k)) == shard {
                    state.absorb(ObjId(k), PRELOADED, Ts::new(1, Pid(servers)));
                }
            }
            let fsync_interval = match cfg.recovery {
                blunt_runtime::RecoveryMode::Amnesia { fsync_interval, .. } => fsync_interval,
                blunt_runtime::RecoveryMode::Stable => 1,
            };
            Replica {
                state,
                wal: MultiWal::new(fsync_interval),
                held: Vec::new(),
            }
        })
        .collect();
    let lanes = (servers + 1) as usize;
    let recorder = FlightRecorder::new(4096);
    let mut w = Walker {
        t,
        net,
        cfg: &cfg,
        amnesia: cfg.recovery.is_amnesia(),
        me: Pid(servers),
        ring,
        replicas,
        monitors: (0..cfg.shards)
            .map(|_| OnlineMonitor::new(PRELOADED.clone(), lanes))
            .collect(),
        flight: recorder.register_current("walk-client"),
        latency: Histogram::unregistered(),
    };
    // Client 0's op stream, drawn exactly as the store's client 0 draws it.
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5704_E000_0000_0000);
    let quorum = cfg.servers_per_shard / 2 + 1;
    let mut sn_counter: u32 = 0;
    let mut next_idx: u64 = 0;
    let started = Instant::now();

    while next_idx < ops {
        let burst_n = cfg.burst.min(ops - next_idx);
        t.set_op(SHARED_OP);
        t.span("step.burst", || {
            bt.flush_pending();
            net.begin_burst();
        });
        let mut pending: VecDeque<(u64, ObjId, bool)> = (0..burst_n)
            .map(|_| {
                next_idx += 1;
                let key = ObjId(rng.draw(cfg.keys as usize) as u32);
                let is_read = rng.draw(1000) < usize::from(cfg.read_per_mille);
                (next_idx, key, is_read)
            })
            .collect();
        let mut open: BTreeMap<u32, Open> = BTreeMap::new();
        let mut open_keys: HashSet<u32> = HashSet::new();
        loop {
            while open.len() < cfg.pipeline_depth as usize {
                let Some(pos) = pending
                    .iter()
                    .position(|(_, k, _)| !open_keys.contains(&k.0))
                else {
                    break;
                };
                let (op, key, is_read) = pending.remove(pos).expect("position in deque");
                sn_counter += 1;
                let sn = sn_counter;
                t.set_op(op);
                let fl = t.span("step.client_start", || {
                    let shard = t.span("ring.shard_for", || w.ring.shard_for(key));
                    let inv = InvId(op);
                    let (method, arg, kind) = if is_read {
                        (MethodId::READ, Val::Nil, OpKind::Read)
                    } else {
                        let v = Val::Int(op as i64);
                        (MethodId::WRITE, v.clone(), OpKind::Write(v))
                    };
                    let flight_val = encode_val(match &arg {
                        Val::Int(v) => Some(*v),
                        _ => None,
                    });
                    let mon = &mut w.monitors[shard as usize];
                    t.span("monitor.observe", || {
                        mon.observe(Action::Call {
                            inv,
                            pid: w.me,
                            obj: key,
                            method,
                            arg,
                        })
                    });
                    let span = SpanCtx::request(w.me.0, op);
                    t.span("obs.flight_record", || {
                        w.flight.record_span_key(
                            if is_read {
                                FlightKind::OpStartRead
                            } else {
                                FlightKind::OpStartWrite
                            },
                            w.me.0,
                            inv.0,
                            flight_val,
                            span.flight_word(),
                            u64::from(key.0),
                        );
                    });
                    let machine = t.span("abd.client", || ActiveOp::start(inv, key, kind, 1, sn));
                    let dsts = w.shard_servers(shard);
                    t.span("batch.send", || {
                        bt.broadcast_span(
                            w.me,
                            &dsts,
                            &AbdMsg::Query { obj: key, sn },
                            false,
                            span,
                        );
                    });
                    Open {
                        inv,
                        key,
                        is_read,
                        shard,
                        span,
                        machine,
                        t0: Instant::now(),
                    }
                });
                open_keys.insert(key.0);
                open.insert(sn, fl);
            }
            if open.is_empty() {
                break;
            }
            t.set_op(SHARED_OP);
            t.span("step.client_flush", || bt.flush_pending());

            // Move messages in send order until one reaches the client.
            let client_envs = loop {
                let Some(msg) = net.next() else {
                    // Nothing in flight: the servers' idle group commit.
                    let held: Vec<u32> = (0..servers)
                        .filter(|&s| !w.replicas[s as usize].held.is_empty())
                        .collect();
                    assert!(!held.is_empty(), "walk stalled with ops open");
                    t.set_op(SHARED_OP);
                    t.span("step.idle_commit", || {
                        for s in held {
                            w.commit(s);
                        }
                    });
                    continue;
                };
                let dst = msg.dst;
                t.set_op(msg.op);
                let envs = t.span("step.recv", || net.recv(msg));
                if dst >= servers {
                    break envs;
                }
                for env in envs {
                    t.set_op(op_of(&env));
                    t.span("step.server", || w.server(dst, env));
                }
            };
            for env in client_envs {
                t.set_op(op_of(&env));
                let Payload::Abd(msg) = env.msg else {
                    continue;
                };
                t.span("step.client", || match msg {
                    AbdMsg::Reply { sn, val, ts, .. } => {
                        let Some(mut fl) = open.remove(&sn) else {
                            return;
                        };
                        let effect = t.span("abd.client", || {
                            fl.machine.on_reply(
                                env.src,
                                sn,
                                &val,
                                ts,
                                quorum,
                                w.me,
                                &mut sn_counter,
                            )
                        });
                        match effect {
                            ReplyEffect::StartUpdate {
                                sn: new_sn,
                                val,
                                ts,
                                ..
                            } => {
                                let dsts = w.shard_servers(fl.shard);
                                let update = AbdMsg::Update {
                                    obj: fl.key,
                                    sn: new_sn,
                                    val,
                                    ts,
                                };
                                t.span("batch.send", || {
                                    bt.broadcast_span(w.me, &dsts, &update, false, fl.span);
                                });
                                open.insert(new_sn, fl);
                            }
                            ReplyEffect::Ignored | ReplyEffect::Counted => {
                                open.insert(sn, fl);
                            }
                            other => unreachable!("ABD with k = 1 never yields {other:?}"),
                        }
                    }
                    AbdMsg::Ack { sn, .. } => {
                        let Some(mut fl) = open.remove(&sn) else {
                            return;
                        };
                        match t.span("abd.client", || fl.machine.on_ack(env.src, sn, quorum)) {
                            AckEffect::Complete { ret } => {
                                w.complete(&fl, ret);
                                open_keys.remove(&fl.key.0);
                            }
                            AckEffect::Ignored | AckEffect::Counted => {
                                open.insert(sn, fl);
                            }
                        }
                    }
                    AbdMsg::Query { .. } | AbdMsg::Update { .. } => {}
                });
            }
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let ops_done = w.latency.count();
    let clean = w
        .monitors
        .into_iter()
        .map(OnlineMonitor::finish)
        .all(|r| r.clean());
    Pass {
        wall_ns,
        ops: ops_done,
        clean,
    }
}

/// Runs one full pass of `wl`'s walk over `ops` ops, building the message
/// layer fresh (its set-up is outside the timed part).
#[must_use]
pub fn run_pass<T: Trace>(t: T, wl: Workload, seed: u64, ops: u64) -> Pass {
    let cfg = wl.store_config(seed, ops);
    let servers = cfg.servers_total();
    let nodes = servers + 1;
    if wl.is_socket() {
        let net = FrameNet {
            servers,
            injector: Mutex::new(
                Injector::new(cfg.seed, FaultConfig::none(), servers, nodes, false)
                    .expect("fault-free config is valid"),
            ),
            tags: TagGen::new(),
            router: ReplyRouter::new(1),
            dedup: (0..servers)
                .map(|_| Mutex::new(DedupWindow::new(1024)))
                .collect(),
            queue: Mutex::new(VecDeque::new()),
            t,
        };
        let bt = BatchingTransport::new(&net, cfg.batch_max);
        pass(t, wl, seed, ops, &net, &bt)
    } else {
        let (bus, rxs) = Bus::new(
            cfg.seed,
            FaultConfig::none(),
            servers,
            nodes,
            false,
            Arc::new(FlightRecorder::new(4096)),
        )
        .expect("fault-free config is valid");
        let net = BusNet {
            bus,
            rxs: rxs.into_iter().map(Mutex::new).collect(),
            queue: Mutex::new(VecDeque::new()),
            t,
        };
        let bt = BatchingTransport::new(&net, cfg.batch_max);
        let out = pass(t, wl, seed, ops, &net, &bt);
        net.bus.flush();
        out
    }
}
