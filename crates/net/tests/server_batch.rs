//! The server endpoint's batched send: the replies one replica buffered
//! over an idle period leave as one `EnvBatch` frame per destination, with
//! every fault fate still drawn per logical entry.
//!
//! Two `NetServer`s on the same seed and fault mix send the same replies —
//! one as a single `send_batch`, the other one `send` at a time — to a
//! test-driven "driver" connection over loopback Unix sockets. Both must
//! realize identical stats and coverage, and, destination by destination,
//! deliver the same tagged entries in the same order (drops missing,
//! duplicates twice under one tag, reorders swapped); only the framing
//! differs.

use std::io::BufReader;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::{ObjId, Pid};
use blunt_net::frame::{read_frame, write_frame, Frame, TaggedEnv, DRIVER_NODE};
use blunt_net::{Addr, Envelope, FaultConfig, NetServer, NetServerCfg, Transport};
use blunt_obs::FlightRecorder;

/// Replies sent per server: enough for every fate to show up.
const REPLIES: u32 = 60;
/// The unbatched sentinel that ends each server's stream.
const LAST_SN: u32 = 9999;

/// Drops, duplicates and reorders — no delays, so everything the fates
/// deliver is written before the sentinel.
fn faults() -> FaultConfig {
    FaultConfig {
        drop_per_mille: 150,
        duplicate_per_mille: 150,
        reorder_per_mille: 150,
        ..FaultConfig::none()
    }
}

/// Replies from server 0 to client pids 1 and 2, interleaved, each
/// answering a distinct request tag.
fn replies() -> Vec<Envelope> {
    (0..REPLIES)
        .map(|sn| {
            let dst = Pid(1 + sn % 2);
            let msg = AbdMsg::Ack { obj: ObjId(0), sn };
            Envelope::abd(Pid(0), dst, msg, false).in_reply_to(1000 + u64::from(sn))
        })
        .collect()
}

/// A bound server plus the frames it writes to our driver connection,
/// read on a background thread.
fn serve(dir: &std::path::Path, name: &str) -> (Arc<NetServer>, mpsc::Receiver<Frame>) {
    let listen = Addr::parse(dir.join(name).to_str().expect("utf-8 path"));
    let cfg = NetServerCfg {
        listen: listen.clone(),
        me: Pid(0),
        servers: 1,
        clients: 2,
        peers: vec![listen.clone()],
        seed: 77,
        faults: faults(),
    };
    let (server, _mailbox) =
        NetServer::bind(&cfg, Arc::new(FlightRecorder::new(1024))).expect("bind UDS listener");
    let mut stream = listen.connect_retry(Duration::from_secs(5)).expect("dial");
    write_frame(
        &mut stream,
        &Frame::Hello {
            node: DRIVER_NODE,
            t_us: 0,
        },
    )
    .expect("hello");
    let mut reader = BufReader::new(stream);
    // The server installs its driver writer before it acks the hello.
    match read_frame(&mut reader).expect("hello ack") {
        Some(Frame::HelloAck { .. }) => {}
        other => panic!("expected a HelloAck, got {other:?}"),
    }
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            if tx.send(frame).is_err() {
                return;
            }
        }
    });
    (server, rx)
}

/// Every frame up to (not including) the sentinel.
fn frames_until_sentinel(rx: &mpsc::Receiver<Frame>) -> Vec<Frame> {
    let mut frames = Vec::new();
    loop {
        let frame = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the server writes every frame and the sentinel");
        if let Frame::Env { env, .. } = &frame {
            if matches!(
                env.msg,
                blunt_net::Payload::Abd(AbdMsg::Ack { sn: LAST_SN, .. })
            ) {
                return frames;
            }
        }
        frames.push(frame);
    }
}

fn sentinel() -> Envelope {
    let msg = AbdMsg::Ack {
        obj: ObjId(0),
        sn: LAST_SN,
    };
    Envelope::abd(Pid(0), Pid(1), msg, true)
}

/// `(tag, re, sn)` of each entry, per destination pid, in arrival order.
fn per_destination(entries: impl IntoIterator<Item = TaggedEnv>) -> Vec<Vec<(u64, u64, u32)>> {
    let mut out = vec![Vec::new(); 3];
    for e in entries {
        let blunt_net::Payload::Abd(AbdMsg::Ack { sn, .. }) = e.env.msg else {
            panic!("only acks were sent");
        };
        out[e.env.dst.index()].push((e.tag, e.re, sn));
    }
    out
}

#[test]
fn server_batches_pack_one_frame_per_destination_and_keep_per_entry_fates() {
    let dir = std::env::temp_dir().join(format!("blunt-server-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let frames_before = blunt_obs::snapshot()
        .counter("net.server.batch.frames")
        .unwrap_or(0);

    let (batched, batched_rx) = serve(&dir, "batched.sock");
    batched.send_batch(replies());
    // Items a reorder still holds leave at the flush, as single frames.
    batched.flush();
    batched.send(sentinel());

    let (single, single_rx) = serve(&dir, "single.sock");
    for env in replies() {
        single.send(env);
    }
    single.flush();
    single.send(sentinel());

    let stats = batched.stats();
    assert_eq!(stats, single.stats(), "per-entry fates: same stats");
    assert_eq!(batched.coverage(), single.coverage(), "and same coverage");
    assert_eq!(stats.offered, u64::from(REPLIES));
    assert!(
        stats.dropped > 0 && stats.duplicated > 0 && stats.reordered > 0,
        "the seed exercises every fate: {stats:?}"
    );

    // The batched server: one EnvBatch per destination, then the flush's
    // released reorders as single frames.
    let mut entries = Vec::new();
    let mut batch_dsts = Vec::new();
    let mut batches_done = false;
    for frame in frames_until_sentinel(&batched_rx) {
        match frame {
            Frame::EnvBatch { entries: batch } => {
                assert!(!batches_done, "every batch frame precedes the flush");
                let dst = batch[0].env.dst;
                assert!(
                    batch.iter().all(|e| e.env.dst == dst),
                    "one destination per batch frame"
                );
                batch_dsts.push(dst);
                entries.extend(batch);
            }
            Frame::Env { tag, re, env } => {
                batches_done = true;
                entries.push(TaggedEnv { tag, re, env });
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    batch_dsts.sort_unstable();
    assert_eq!(
        batch_dsts,
        vec![Pid(1), Pid(2)],
        "one batch per destination"
    );
    let frames_after = blunt_obs::snapshot()
        .counter("net.server.batch.frames")
        .unwrap_or(0);
    assert_eq!(frames_after - frames_before, 2, "net.server.batch.frames");

    // The unbatched server: every entry its own Env frame.
    let single_entries: Vec<TaggedEnv> = frames_until_sentinel(&single_rx)
        .into_iter()
        .map(|frame| match frame {
            Frame::Env { tag, re, env } => TaggedEnv { tag, re, env },
            other => panic!("unbatched sends write Env frames only, got {other:?}"),
        })
        .collect();

    let batched_links = per_destination(entries);
    assert_eq!(
        batched_links,
        per_destination(single_entries),
        "per destination: the same tagged entries in the same order"
    );
    for link in &batched_links[1..] {
        for &(tag, re, sn) in link {
            assert_eq!(re, 1000 + u64::from(sn), "entry {tag} answers its request");
        }
    }
    let delivered: usize = batched_links.iter().map(Vec::len).sum();
    assert_eq!(
        delivered as u64,
        stats.offered - stats.dropped + stats.duplicated,
        "every delivery of the fates is on the wire"
    );
}
