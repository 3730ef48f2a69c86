//! blunting reproduction: the transport tier.
//!
//! The chaos runtime exercises ABD-style quorum protocols under a
//! seed-deterministic fault injector. This crate is the seam that makes
//! the *transport* swappable without touching the protocol or the fault
//! schedule:
//!
//! - [`Transport`] — the object-safe surface the runtime's server and
//!   client loops drive: send an [`Envelope`], broadcast to a quorum,
//!   flush stragglers, read the deterministic [`TransportStats`] and
//!   [`Coverage`]. The in-process bus (in `blunt-runtime`) and the socket
//!   backends here both implement it.
//! - [`fault`] / [`injector`] — the seed-determined per-link fate streams,
//!   the shared decision core ([`Injector::decide`]), and the one fate
//!   realizer ([`Realizer`]) the bus and both socket endpoints use bit for
//!   bit, so fault counters are a pure function of
//!   `(seed, config, topology)` regardless of transport.
//! - [`frame`] — the length-prefixed, versioned wire format (hand-rolled,
//!   zero dependencies).
//! - [`conn`] / [`pool`] — TCP / Unix-domain streams and per-peer
//!   connection pools with single-redial self-healing.
//! - [`rpc`] — monotonic frame tags, reply-to-lane routing, and
//!   per-connection duplicate suppression (retransmission-aware dedup).
//! - [`client`] / [`server`] — the two socket endpoints: [`NetClient`]
//!   (the driver process: client threads + monitor, owning the
//!   client→server fault links) and [`NetServer`] (one `chaos serve`
//!   process per server, owning its server→client links). Both pack a
//!   batched send into one `EnvBatch` frame per destination with the same
//!   packer ([`Realizer::realize_batch`]).
//! - [`batch`] — [`BatchingTransport`], the flush-scoped send buffer both
//!   ends of a quorum round send through: each store client and each
//!   hosted replica.
//!
//! ## Counters
//!
//! The socket tier feeds the `net.*` counter family: `net.frames_sent`,
//! `net.frames_received`, `net.bytes_sent`, `net.bytes_received`,
//! `net.reconnects`, `net.rpc.tag_mismatch_drops`, `net.rpc.dedup_drops`;
//! batched sends add `net.batch.{frames,envelopes}` (the driver's
//! `EnvBatch` frames) and `net.server.batch.{frames,envelopes}` (a
//! server's).
//!
//! ## Fault semantics across backends
//!
//! The *decision* (which fate, which counters) and its *realization*
//! (drop, duplicate, reorder hold-back, delay, crash signal) are shared:
//! every endpoint runs the same [`Realizer`] and differs only in its sink.
//! The effect differs where the medium does: the in-process bus enqueues a
//! `Duplicate` twice, while a socket endpoint writes the same tagged frame
//! twice and the receiver's dedup window absorbs the copy — exercising the
//! retransmission-tolerance machinery a real stack needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod client;
pub mod conn;
pub mod coverage;
pub mod fault;
pub mod frame;
pub mod injector;
pub mod pool;
pub mod rpc;
pub mod server;
pub mod wire;

pub use batch::BatchingTransport;
pub use client::{NetClient, NetClientCfg, RemoteServer, ServerGoodbye, ServerTelemetry};
pub use conn::{Addr, Listener, Stream};
pub use coverage::{Coverage, LinkCoverage};
pub use fault::{Fate, FaultConfig, FaultConfigError, FaultPlan};
pub use frame::{Frame, FrameError, TaggedEnv, DRIVER_NODE, FRAME_VERSION, MAX_FRAME_LEN};
pub use injector::{Carried, Injector, Realizer, TransportStats};
pub use server::{NetServer, NetServerCfg};
pub use wire::{Envelope, Payload, SpanCtx};

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::Pid;

/// What the chaos runtime's server and client loops drive: any medium that
/// can carry [`Envelope`]s under the seed-determined fault schedule.
///
/// Implementations: the in-process bus (`blunt_runtime::Bus`), the driver
/// endpoint [`NetClient`], and the server endpoint [`NetServer`]. The
/// protocol state machines in `blunt-abd` never see this trait — they are
/// pure step functions — so a transport swap cannot change protocol
/// decisions, only message timing and loss.
pub trait Transport: Send + Sync {
    /// Sends `env`, applying the fault schedule to non-exempt envelopes.
    fn send(&self, env: Envelope);

    /// Sends several envelopes as one logical flush. **Semantically a
    /// batch IS its envelope sequence**: the default forwards to
    /// [`Transport::send`] in order, and every override must preserve
    /// that contract — fault fates are drawn per logical envelope, in
    /// order, exactly as the loop would, so batching can never perturb
    /// the seed-determined schedule, stats, or coverage. Socket backends
    /// override this to pack the surviving envelopes of each destination
    /// into a single `EnvBatch` frame, amortizing syscall and framing
    /// overhead across a quorum round.
    fn send_batch(&self, envs: Vec<Envelope>) {
        for env in envs {
            self.send(env);
        }
    }

    /// Broadcasts the ABD message `msg` from `src` to every pid in `dsts`
    /// (a quorum round's fan-out).
    fn broadcast(&self, src: Pid, dsts: &[Pid], msg: &AbdMsg, exempt: bool) {
        self.broadcast_span(src, dsts, msg, exempt, SpanCtx::NONE);
    }

    /// [`Transport::broadcast`] with every envelope stamped with trace
    /// context `span`. The span is pure data (no transport branches on
    /// it), so span-stamped broadcasts consume exactly the same
    /// fault-schedule indices as unstamped ones.
    fn broadcast_span(&self, src: Pid, dsts: &[Pid], msg: &AbdMsg, exempt: bool, span: SpanCtx) {
        for &dst in dsts {
            self.send(Envelope::abd(src, dst, msg.clone(), exempt).with_span(span));
        }
    }

    /// Marks the start of a new operation by `client`. Socket transports
    /// retire the client's outstanding reply routes here; the in-process
    /// bus needs no such bookkeeping.
    fn on_op_start(&self, client: Pid) {
        let _ = client;
    }

    /// Announces that the calling server process just suffered an amnesia
    /// crash: any *volatile* transport-side state (notably per-connection
    /// dedup windows) must be forgotten, exactly like the server's own
    /// register state. The in-process bus keeps no such state — the
    /// default is a no-op — but [`NetServer`] resets its connections'
    /// dedup windows so the first retransmitted pre-crash tag is not
    /// silently swallowed after recovery.
    fn on_crash(&self) {}

    /// Releases reorder hold-backs and drains delayers — end of run,
    /// nothing will overtake them anymore.
    fn flush(&self);

    /// The deterministic fault counters so far.
    fn stats(&self) -> TransportStats;

    /// The fault-schedule coverage so far.
    fn coverage(&self) -> Coverage;
}
