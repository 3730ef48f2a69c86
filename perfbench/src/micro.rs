//! Layer calls too short for a span to time, or whose cost depends on a
//! setting the walk does not vary, timed as loops of many calls. Each
//! returns ns per call, the median of several timed loops.

use std::hint::black_box;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use blunt_abd::msg::AbdMsg;
use blunt_abd::ts::Ts;
use blunt_core::ids::{ObjId, Pid};
use blunt_core::value::Val;
use blunt_net::injector::Injector;
use blunt_net::{
    Coverage, Envelope, FaultConfig, Frame, SpanCtx, TaggedEnv, Transport, TransportStats,
};
use blunt_obs::{FlightKind, FlightRecorder};
use blunt_runtime::Bus;
use blunt_store::{BatchingTransport, StoreConfig};

use crate::stats::summarize;

/// Timed loops per measurement; the median is reported.
const ROUNDS: usize = 5;

/// Median over [`ROUNDS`] loops of `iters` calls of `f`, in ns per call.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    summarize(&samples).median
}

/// A representative client update envelope.
fn update_env(src: u32, dst: u32, i: u64) -> Envelope {
    Envelope::abd(
        Pid(src),
        Pid(dst),
        AbdMsg::Update {
            obj: ObjId((i % 1024) as u32),
            sn: i as u32,
            val: Val::Int(i as i64),
            ts: Ts::new(i as i64, Pid(src)),
        },
        false,
    )
    .with_span(SpanCtx::request(src, i))
}

/// `Injector::decide` under `faults` on `cfg`'s topology, cycling over
/// every client → server link.
#[must_use]
pub fn injector_decide_ns(cfg: &StoreConfig, faults: FaultConfig, iters: u64) -> f64 {
    let servers = cfg.servers_total();
    let nodes = servers + cfg.clients;
    let mut inj = Injector::new(cfg.seed, faults, servers, nodes, faults.crash_len > 0)
        .expect("workload fault configs are valid");
    ns_per_call(iters, |i| {
        let src = Pid(servers + (i % u64::from(cfg.clients)) as u32);
        let dst = Pid((i % u64::from(servers)) as u32);
        black_box(inj.decide(src, dst));
    })
}

/// `Bus::send` with two threads sending at once through one bus (each to
/// its own mailbox, drained outside the timed part), so both contend for
/// the bus's one lock. ns per send, per thread.
#[must_use]
pub fn bus_send_2thr_ns(iters: u64) -> f64 {
    const CHUNK: u64 = 64;
    let (bus, rxs) = Bus::new(
        1,
        FaultConfig::none(),
        1,
        3,
        false,
        Arc::new(FlightRecorder::new(4096)),
    )
    .expect("fault-free config is valid");
    let bus = Arc::new(bus);
    let mut rxs: Vec<Option<Receiver<Envelope>>> = rxs.into_iter().map(Some).collect();
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let per_thread: Vec<(f64, Receiver<Envelope>)> = thread::scope(|s| {
                let handles: Vec<_> = [1u32, 2]
                    .iter()
                    .map(|&me| {
                        let bus = Arc::clone(&bus);
                        let barrier = Arc::clone(&barrier);
                        let rx = rxs[me as usize].take().expect("mailbox returned");
                        s.spawn(move || {
                            barrier.wait();
                            let mut ns = 0u128;
                            let mut i = 0;
                            while i < iters {
                                let t0 = Instant::now();
                                for j in i..i + CHUNK {
                                    bus.send(update_env(me, me, j));
                                }
                                ns += t0.elapsed().as_nanos();
                                while rx.try_recv().is_ok() {}
                                i += CHUNK;
                            }
                            (ns as f64 / i as f64, rx)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("bus sender thread"))
                    .collect()
            });
            let mut mean = 0.0;
            for (me, (ns, rx)) in per_thread.into_iter().enumerate() {
                mean += ns / 2.0;
                rxs[me + 1] = Some(rx);
            }
            mean
        })
        .collect();
    bus.flush();
    summarize(&samples).median
}

/// Encode and decode of a 16-entry `EnvBatch` frame: `(encode ns,
/// decode ns)`.
#[must_use]
pub fn batch16_codec_ns(iters: u64) -> (f64, f64) {
    let frame = Frame::EnvBatch {
        entries: (0..16)
            .map(|i| TaggedEnv {
                tag: 1000 + i,
                re: 0,
                env: update_env(6, (i % 3) as u32, i),
            })
            .collect(),
    };
    let bytes = frame.encode().expect("16 entries fit a frame");
    let enc = ns_per_call(iters, |_| {
        black_box(black_box(&frame).encode().expect("fits"));
    });
    let dec = ns_per_call(iters, |_| {
        black_box(Frame::decode(black_box(&bytes[4..])).expect("valid frame"));
    });
    (enc, dec)
}

/// A transport that drops everything, so a batch flush is timed alone.
struct NullTransport;

impl Transport for NullTransport {
    fn send(&self, env: Envelope) {
        black_box(env);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        black_box(envs);
    }

    fn flush(&self) {}

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn coverage(&self) -> Coverage {
        Coverage::default()
    }
}

/// One `BatchingTransport` flush of `batch_max` buffered envelopes over a
/// no-op transport — the buffering sends plus the flush, including the
/// flush's named `histogram()` lookup. ns per flush.
#[must_use]
pub fn batch_flush_ns(batch_max: usize, iters: u64) -> f64 {
    let null = NullTransport;
    let bt = BatchingTransport::new(&null, batch_max);
    let envs: Vec<Envelope> = (0..batch_max as u64).map(|i| update_env(6, 0, i)).collect();
    ns_per_call(iters, |_| {
        for env in &envs {
            bt.send(env.clone());
        }
        bt.flush_pending();
    })
}

/// The observability layer's hot-path calls: `(flight record, counter
/// increment, histogram record through a named lookup, histogram record
/// through a cached handle)`, ns per call.
#[must_use]
pub fn obs_ns(iters: u64) -> (f64, f64, f64, f64) {
    let recorder = FlightRecorder::new(4096);
    let ring = recorder.register_current("perfbench-micro");
    let flight = ns_per_call(iters, |i| {
        ring.record_span_key(FlightKind::OpStartWrite, 7, i, i, i, i % 1024);
    });
    let counter = blunt_obs::counter("perfbench.micro.counter");
    let inc = ns_per_call(iters, |_| counter.inc());
    let named = ns_per_call(iters, |i| {
        blunt_obs::histogram("perfbench.micro.named").record(i);
    });
    let cached_h = blunt_obs::histogram("perfbench.micro.cached");
    let cached = ns_per_call(iters, |i| cached_h.record(i));
    (flight, inc, named, cached)
}
