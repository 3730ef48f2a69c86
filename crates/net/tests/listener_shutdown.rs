//! Dropping a `NetServer` closes its listener: the accept thread must not
//! outlive the server, blocked in `accept` with the address still held.

use std::sync::Arc;
use std::time::Duration;

use blunt_core::ids::Pid;
use blunt_net::{Addr, FaultConfig, NetServer, NetServerCfg};
use blunt_obs::FlightRecorder;

fn cfg(listen: &Addr) -> NetServerCfg {
    NetServerCfg {
        listen: listen.clone(),
        me: Pid(0),
        servers: 1,
        clients: 1,
        peers: vec![listen.clone()],
        seed: 1,
        faults: FaultConfig::none(),
    }
}

#[test]
fn tcp_listen_address_is_free_again_after_the_server_drops() {
    // Bind an ephemeral port once to learn a free one, then serve on it.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral port")
        .port();
    let listen = Addr::Tcp(format!("127.0.0.1:{port}"));
    let (server, _mailbox) =
        NetServer::bind(&cfg(&listen), Arc::new(FlightRecorder::new(64))).expect("bind");
    assert!(
        std::net::TcpListener::bind(("127.0.0.1", port)).is_err(),
        "the live server holds its port"
    );
    drop(server);
    std::net::TcpListener::bind(("127.0.0.1", port)).expect("port is free after drop");
}

#[test]
fn uds_listener_refuses_connections_after_the_server_drops() {
    let dir = std::env::temp_dir().join(format!("blunt-listener-close-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let listen = Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"));
    let (server, _mailbox) =
        NetServer::bind(&cfg(&listen), Arc::new(FlightRecorder::new(64))).expect("bind");
    listen
        .connect_retry(Duration::from_secs(5))
        .expect("the live server accepts");
    drop(server);
    let err = listen.connect().expect_err("no listener after drop");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    let _ = std::fs::remove_dir_all(&dir);
}
