//! The socket-transport acceptance run for the single-register shape, in
//! one process: three servers each running [`blunt_runtime::run_net_server`]
//! on its own thread behind a loopback Unix-domain socket, plus the
//! [`blunt_store::run_store_net`] driver — the same topology the
//! `net-smoke` CI job runs as separate `chaos serve` processes, minus the
//! process boundary.
//!
//! The run must complete ≥ 10k operations under the full fault mix with
//! amnesia crashes, report zero linearizability violations, and show at
//! least one server crash *and recovery* mid-run — i.e. the WAL + peer
//! catch-up machinery works when peers are sockets, not mailboxes. The
//! same configuration run in process must face the same client→server
//! fault schedule: both tiers realize fates through one realizer.

use std::thread;

use blunt_runtime::{run_net_server, Addr, NetServeConfig, NetServeReport, RecoveryMode};
use blunt_store::{run_store, run_store_net, StoreConfig};

fn uds_addrs(tag: &str, n: u32) -> Vec<Addr> {
    let dir = std::env::temp_dir().join(format!("blunt-net-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    (0..n)
        .map(|i| Addr::parse(dir.join(format!("s{i}.sock")).to_str().expect("utf-8 path")))
        .collect()
}

/// One unsharded `chaos serve` thread per address.
fn serve(cfg: &StoreConfig, addrs: &[Addr]) -> Vec<thread::JoinHandle<NetServeReport>> {
    let servers = cfg.servers_total();
    (0..servers)
        .map(|i| {
            let scfg = NetServeConfig {
                listen: addrs[i as usize].clone(),
                server_id: i,
                servers,
                clients: cfg.clients,
                peers: addrs.to_vec(),
                seed: cfg.seed,
                faults: cfg.faults,
                recovery: cfg.recovery,
                shard_size: None,
                dump_dir: None,
            };
            thread::spawn(move || run_net_server(&scfg).expect("server run"))
        })
        .collect()
}

#[test]
fn three_uds_servers_10k_ops_zero_violations_with_recovery() {
    let mut cfg = StoreConfig::register_smoke(0x4E75_0001);
    cfg.recovery = RecoveryMode::amnesia();
    cfg.ops_per_client = 2_500; // 4 clients × 2 500 = 10 000 ops
    let addrs = uds_addrs("amnesia", cfg.servers_total());
    let servers = serve(&cfg, &addrs);
    let report = run_store_net(&cfg, &addrs).expect("valid fault config");

    let mut server_crashes = 0;
    let mut server_recoveries = 0;
    for s in servers {
        let r = s.join().expect("server thread");
        server_crashes += r.recovery.crashes;
        server_recoveries += r.recovery.recoveries;
    }

    assert_eq!(report.ops, 10_000);
    assert!(
        report.monitor.clean(),
        "violations over sockets: {:?}",
        report
            .monitor
            .violations
            .iter()
            .map(|v| &v.rendered)
            .collect::<Vec<_>>()
    );
    assert!(!report.stalled, "run stalled");
    // The fault mix really fired at the socket layer (client→server half).
    assert!(report.stats.dropped > 0, "{:?}", report.stats);
    assert!(report.stats.crash_events > 0, "{:?}", report.stats);
    // At least one server crashed with amnesia and recovered mid-run, and
    // every crash ran a recovery.
    assert!(server_crashes >= 1, "no server crashed");
    assert_eq!(
        server_recoveries, server_crashes,
        "every amnesia crash must run a recovery"
    );
    // The goodbye aggregation carried the same counters back to the driver.
    assert_eq!(report.recovery.crashes, server_crashes);
    assert_eq!(report.recovery.recoveries, server_recoveries);
    // Socket frames actually moved.
    let frames = blunt_obs::counter("net.frames_sent").get();
    assert!(frames > 0, "no frames crossed the socket layer");
    // The tracing plane worked end to end: every server process shipped
    // telemetry and a goodbye dump, and the merged cross-process dump
    // carries span-attributed events from all three remote processes.
    let merged = report.merged_flight.as_ref().expect("net runs merge dumps");
    assert_eq!(report.remote_servers.len(), 3);
    for (sid, r) in report.remote_servers.iter().enumerate() {
        let t = r
            .telemetry
            .unwrap_or_else(|| panic!("server {sid} sent no telemetry"));
        assert!(t.events > 0, "server {sid} telemetry counted no events");
        assert!(
            t.span_events > 0,
            "server {sid} telemetry counted no span-attributed events"
        );
        let proc = format!("s{sid}");
        assert!(
            merged
                .events
                .iter()
                .any(|e| e.proc == proc && e.span != blunt_obs::flight::SPAN_NONE),
            "merged dump has no span-attributed events from process {proc}"
        );
    }

    // Cross-tier: the in-process run of the same configuration draws the
    // same client→server fates and signals the same crash events. Only
    // client→server links compare — server→client links differ by design
    // (in process a duplicated request is served twice; on a socket the
    // dedup window drops the copy, so fewer replies are offered).
    let inproc = run_store(&cfg).expect("valid fault config");
    let servers = cfg.servers_total();
    let client_to_server: Vec<_> = inproc
        .coverage
        .links
        .iter()
        .filter(|l| l.src >= servers && l.dst < servers)
        .cloned()
        .collect();
    assert!(!client_to_server.is_empty());
    assert_eq!(
        report.coverage.links, client_to_server,
        "socket and in-process client→server coverage differ"
    );
    assert_eq!(report.stats.crash_events, inproc.stats.crash_events);
}

#[test]
fn net_run_is_clean_under_stable_recovery_too() {
    let mut cfg = StoreConfig::register_smoke(0x4E75_0002);
    cfg.ops_per_client = 500;
    let addrs = uds_addrs("stable", cfg.servers_total());
    let servers = serve(&cfg, &addrs);
    let report = run_store_net(&cfg, &addrs).expect("valid fault config");
    for s in servers {
        s.join().expect("server thread");
    }
    assert_eq!(report.ops, 2_000);
    assert!(report.monitor.clean(), "stable-mode violations");
    // Stable mode: crashes are blackouts, never recovery events.
    assert_eq!(report.recovery.crashes, 0);
}
