//! Flush-scoped envelope batching over any [`Transport`].
//!
//! A [`BatchingTransport`] sits between one sender and the shared
//! transport. Sends accumulate in a buffer — in send order — and are handed
//! to the inner transport as one [`Transport::send_batch`] call when the
//! buffer reaches `batch_max`, when the sender is about to block (nothing
//! more is coming until replies arrive), or at an explicit flush. Both
//! ends of a quorum round use it: each pipelined client of the store
//! ([`BatchingTransport::new`]) and each replica on a replica host
//! ([`BatchingTransport::hosted`]). Over the socket tier the inner
//! `send_batch` packs each destination's surviving envelopes into a single
//! `EnvBatch` frame, amortizing framing and syscalls across a quorum
//! round's fan-out (client side) or across the replies of one idle period
//! (server side); over the in-process bus it degenerates to the plain send
//! loop.
//!
//! **Batching is transport amortization only.** `send_batch`'s contract
//! (see [`Transport`]) draws fault fates per logical envelope in buffer
//! order — exactly the fates the unbatched sends would have drawn — so the
//! seed-determined schedule, stats, and coverage are identical at any
//! `batch_max`, and `batch_max = 1` is *operationally* identical to no
//! wrapper at all (each send flushes immediately as a batch of one).
//!
//! Flushes are counted per end: a client's under `store.batch.*` (with the
//! `store.batch.envelopes_per_flush` histogram), a hosted replica's under
//! `runtime.host.batch.*`.

use std::sync::Mutex;

use blunt_core::ids::Pid;

use crate::{Coverage, Envelope, Transport, TransportStats};

/// Which end of a quorum round a [`BatchingTransport`] buffers for — it
/// picks the counters a flush feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Site {
    Client,
    Host,
}

/// A per-sender batching layer over a shared [`Transport`].
pub struct BatchingTransport<'a> {
    inner: &'a dyn Transport,
    batch_max: usize,
    site: Site,
    buf: Mutex<Vec<Envelope>>,
}

impl<'a> BatchingTransport<'a> {
    /// Wraps `inner` for one store client, flushing whenever `batch_max`
    /// envelopes accumulate (`batch_max = 1` ⇒ pass-through).
    ///
    /// # Panics
    ///
    /// Panics if `batch_max == 0`.
    #[must_use]
    pub fn new(inner: &'a dyn Transport, batch_max: usize) -> BatchingTransport<'a> {
        BatchingTransport::at(inner, batch_max, Site::Client)
    }

    /// Wraps `inner` for one replica on a replica host; like
    /// [`BatchingTransport::new`], but its flushes count as
    /// `runtime.host.batch.*`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_max == 0`.
    #[must_use]
    pub fn hosted(inner: &'a dyn Transport, batch_max: usize) -> BatchingTransport<'a> {
        BatchingTransport::at(inner, batch_max, Site::Host)
    }

    fn at(inner: &'a dyn Transport, batch_max: usize, site: Site) -> BatchingTransport<'a> {
        assert!(batch_max >= 1, "a batch holds at least one envelope");
        BatchingTransport {
            inner,
            batch_max,
            site,
            buf: Mutex::new(Vec::with_capacity(batch_max)),
        }
    }

    /// Whether nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.lock().expect("batch buffer lock").is_empty()
    }

    /// Hands any buffered envelopes to the inner transport as one batch.
    /// Call before blocking: the replies being waited on cannot arrive
    /// until the requests actually leave.
    pub fn flush_pending(&self) {
        let batch = {
            let mut buf = self.buf.lock().expect("batch buffer lock");
            if buf.is_empty() {
                return;
            }
            std::mem::take(&mut *buf)
        };
        let n = batch.len() as u64;
        match self.site {
            Site::Client => {
                blunt_obs::static_counter!("store.batch.flushes").inc();
                blunt_obs::static_counter!("store.batch.envelopes").add(n);
                blunt_obs::static_histogram!("store.batch.envelopes_per_flush").record(n);
            }
            Site::Host => {
                blunt_obs::static_counter!("runtime.host.batch.flushes").inc();
                blunt_obs::static_counter!("runtime.host.batch.envelopes").add(n);
            }
        }
        self.inner.send_batch(batch);
    }

    fn push(&self, env: Envelope) {
        let full = {
            let mut buf = self.buf.lock().expect("batch buffer lock");
            buf.push(env);
            buf.len() >= self.batch_max
        };
        if full {
            self.flush_pending();
        }
    }
}

impl Transport for BatchingTransport<'_> {
    fn send(&self, env: Envelope) {
        self.push(env);
    }

    fn send_batch(&self, envs: Vec<Envelope>) {
        for env in envs {
            self.push(env);
        }
    }

    fn on_op_start(&self, client: Pid) {
        // The inner transport may retire outstanding reply routes here —
        // anything still buffered must be on the wire (and its routes
        // registered) before that happens.
        self.flush_pending();
        self.inner.on_op_start(client);
    }

    fn on_crash(&self) {
        // What was sent before the crash leaves before it.
        self.flush_pending();
        self.inner.on_crash();
    }

    fn flush(&self) {
        self.flush_pending();
        self.inner.flush();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn coverage(&self) -> Coverage {
        self.inner.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A transport that records the shape of every call it receives.
    #[derive(Default)]
    struct Probe {
        batches: Mutex<Vec<usize>>,
        op_starts: AtomicUsize,
        crashes: AtomicUsize,
        flushes: AtomicUsize,
    }

    impl Transport for Probe {
        fn send(&self, _env: Envelope) {
            // The default send_batch would forward here; recording batch
            // sizes in send_batch is what the tests assert on.
            self.batches.lock().unwrap().push(1);
        }

        fn send_batch(&self, envs: Vec<Envelope>) {
            self.batches.lock().unwrap().push(envs.len());
        }

        fn on_op_start(&self, _client: Pid) {
            self.op_starts.fetch_add(1, Ordering::Relaxed);
        }

        fn on_crash(&self) {
            self.crashes.fetch_add(1, Ordering::Relaxed);
        }

        fn flush(&self) {
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }

        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }

        fn coverage(&self) -> Coverage {
            Coverage::default()
        }
    }

    fn env(n: u32) -> Envelope {
        use blunt_abd::msg::AbdMsg;
        use blunt_core::ids::ObjId;
        Envelope::abd(
            Pid(9),
            Pid(0),
            AbdMsg::Query {
                obj: ObjId(0),
                sn: n,
            },
            false,
        )
    }

    #[test]
    fn sends_accumulate_until_batch_max_then_flush_in_order() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 3);
        for i in 0..7 {
            bt.send(env(i));
        }
        assert_eq!(
            *probe.batches.lock().unwrap(),
            vec![3, 3],
            "two full batches"
        );
        assert!(!bt.is_empty());
        bt.flush_pending();
        assert!(bt.is_empty());
        assert_eq!(
            *probe.batches.lock().unwrap(),
            vec![3, 3, 1],
            "the remainder leaves on the explicit flush"
        );
        bt.flush_pending();
        assert_eq!(
            *probe.batches.lock().unwrap(),
            vec![3, 3, 1],
            "an empty flush is a no-op"
        );
    }

    #[test]
    fn batch_max_one_forwards_every_send_immediately() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 1);
        for i in 0..4 {
            bt.send(env(i));
        }
        assert_eq!(*probe.batches.lock().unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn op_start_crash_and_flush_drain_the_buffer_first() {
        let probe = Probe::default();
        let bt = BatchingTransport::new(&probe, 100);
        bt.send(env(0));
        bt.send(env(1));
        bt.on_op_start(Pid(9));
        assert_eq!(*probe.batches.lock().unwrap(), vec![2]);
        assert_eq!(probe.op_starts.load(Ordering::Relaxed), 1);
        bt.send(env(2));
        bt.on_crash();
        assert_eq!(*probe.batches.lock().unwrap(), vec![2, 1]);
        assert_eq!(probe.crashes.load(Ordering::Relaxed), 1);
        bt.send(env(3));
        bt.flush();
        assert_eq!(*probe.batches.lock().unwrap(), vec![2, 1, 1]);
        assert_eq!(probe.flushes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn client_and_host_flushes_feed_their_own_counters() {
        let probe = Probe::default();
        let flushes = |name| blunt_obs::snapshot().counter(name).unwrap_or(0);
        let (client0, host0) = (
            flushes("store.batch.flushes"),
            flushes("runtime.host.batch.flushes"),
        );
        let host = BatchingTransport::hosted(&probe, 100);
        host.send(env(0));
        host.send(env(1));
        host.flush_pending();
        // Other tests in this binary flush client batches concurrently, so
        // only the host counter's delta is exact.
        assert_eq!(flushes("runtime.host.batch.flushes") - host0, 1);
        assert!(flushes("runtime.host.batch.envelopes") >= 2);
        let client = BatchingTransport::new(&probe, 100);
        client.send(env(2));
        client.flush_pending();
        assert!(flushes("store.batch.flushes") > client0);
    }

    #[test]
    #[should_panic(expected = "at least one envelope")]
    fn zero_batch_max_is_a_programmer_error() {
        let probe = Probe::default();
        let _ = BatchingTransport::new(&probe, 0);
    }
}
