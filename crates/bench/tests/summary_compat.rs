//! Schema compatibility for the `chaos_summary` document: the v3 reader
//! must keep reading committed v1 summaries (no `transport` label), v2
//! summaries (no per-server telemetry sections), and real v3 summaries,
//! and must refuse schemas it does not know.

use blunt_bench::parse_chaos_summary;

/// A real v1 summary written by the pre-transport `chaos --smoke --seed
/// 48879` binary, committed verbatim.
const V1_FIXTURE: &str = include_str!("fixtures/chaos_summary_v1.json");

/// A real v2 summary written by the pre-tracing `chaos --smoke --seed
/// 48879` binary (transport labels, no `servers` sections), committed
/// verbatim.
const V2_FIXTURE: &str = include_str!("fixtures/chaos_summary_v2.json");

/// A real v3 summary: `chaos --smoke --seed 7 --ops-per-client 120`,
/// committed verbatim (the `chaos_cli` golden run).
const V3_FIXTURE: &str = include_str!("fixtures/chaos_summary_v3.json");

#[test]
fn v1_fixture_reads_with_in_process_transport_default() {
    let s = parse_chaos_summary(V1_FIXTURE).expect("v1 summary parses");
    assert_eq!(s.schema_version, 1);
    assert_eq!(s.seed, 48879);
    assert_eq!(s.mode, "smoke");
    assert!(!s.configs.is_empty());
    for c in &s.configs {
        assert_eq!(
            c.transport, "in-process",
            "v1 entries predate the transport label and were all in-process: {}",
            c.name
        );
        assert_eq!(c.violations, 0, "{} had violations in the fixture", c.name);
        assert!(c.ops > 0, "{} has no ops", c.name);
        assert!(
            c.servers.is_empty(),
            "v1 entries predate per-server telemetry: {}",
            c.name
        );
    }
    assert!(s.configs.iter().any(|c| c.name == "smoke.abd_k1_chaos"));
}

#[test]
fn v2_fixture_reads_with_empty_server_sections() {
    let s = parse_chaos_summary(V2_FIXTURE).expect("v2 summary parses");
    assert_eq!(s.schema_version, 2);
    assert_eq!(s.seed, 48879);
    assert_eq!(s.mode, "smoke");
    assert!(!s.configs.is_empty());
    for c in &s.configs {
        assert_eq!(
            c.transport, "in-process",
            "the fixture run was all in-process: {}",
            c.name
        );
        assert_eq!(c.violations, 0, "{} had violations in the fixture", c.name);
        assert!(
            c.servers.is_empty(),
            "v2 entries predate per-server telemetry: {}",
            c.name
        );
    }
    assert!(s.configs.iter().any(|c| c.name == "smoke.abd_k1_chaos"));
}

#[test]
fn v3_fixture_reads_every_in_process_config() {
    let s = parse_chaos_summary(V3_FIXTURE).expect("v3 summary parses");
    assert_eq!(s.schema_version, 3);
    assert_eq!(s.seed, 7);
    assert_eq!(s.mode, "smoke");
    assert!(!s.configs.is_empty());
    for c in &s.configs {
        assert_eq!(c.transport, "in-process", "{}", c.name);
        assert_eq!(c.violations, 0, "{} had violations in the fixture", c.name);
        assert!(c.ops > 0, "{} has no ops", c.name);
        assert!(
            c.servers.is_empty(),
            "in-process entries carry no server sections: {}",
            c.name
        );
    }
    assert!(s.configs.iter().any(|c| c.name == "smoke.abd_k1_chaos"));
}

#[test]
fn v2_transport_labels_are_honored() {
    let v2 = r#"{"type":"chaos_summary","schema_version":2,"seed":7,"mode":"smoke",
        "configs":[
            {"name":"net.abd_k1_light","transport":"uds","ops":10400,"violations":0,"recoveries":3},
            {"name":"smoke.abd_k1_chaos","transport":"in-process","ops":2000,"violations":0,"recoveries":0}
        ]}"#;
    let s = parse_chaos_summary(v2).expect("v2 summary parses");
    assert_eq!(s.schema_version, 2);
    assert_eq!(s.configs[0].transport, "uds");
    assert_eq!(s.configs[0].recoveries, 3);
    assert_eq!(s.configs[1].transport, "in-process");
}

#[test]
fn v3_per_server_telemetry_sections_are_parsed() {
    let v3 = r#"{"type":"chaos_summary","schema_version":3,"seed":7,"mode":"smoke",
        "configs":[
            {"name":"net.abd_k1_light","transport":"uds","ops":10400,"violations":0,"recoveries":3,
             "servers":[
                {"proc":"s0","recoveries":2,"crashes":2,"fsync_count":40,"fsync_p99_us":180,
                 "span_events":900,"events":1000,"clock_offset_us":-42},
                {"proc":"s1","recoveries":1,"crashes":1,"fsync_count":38,"fsync_p99_us":210,
                 "span_events":870,"events":950,"clock_offset_us":17}
             ]},
            {"name":"smoke.abd_k1_chaos","transport":"in-process","ops":2000,"violations":0,"recoveries":0}
        ]}"#;
    let s = parse_chaos_summary(v3).expect("v3 summary parses");
    assert_eq!(s.schema_version, 3);
    let net = &s.configs[0];
    assert_eq!(net.servers.len(), 2);
    assert_eq!(net.servers[0].proc, "s0");
    assert_eq!(net.servers[0].recoveries, 2);
    assert_eq!(net.servers[0].fsync_p99_us, 180);
    assert_eq!(net.servers[0].span_events, 900);
    assert_eq!(net.servers[0].clock_offset_us, -42);
    assert_eq!(net.servers[1].proc, "s1");
    assert_eq!(net.servers[1].clock_offset_us, 17);
    assert!(
        s.configs[1].servers.is_empty(),
        "in-process entries carry none"
    );
}

#[test]
fn unknown_future_schema_is_rejected_not_misread() {
    let v4 = r#"{"type":"chaos_summary","schema_version":4,"seed":7,"mode":"smoke","configs":[]}"#;
    let err = parse_chaos_summary(v4).expect_err("v4 must be rejected");
    assert!(err.contains("v4"), "error names the version: {err}");
}

#[test]
fn non_summary_documents_are_rejected() {
    assert!(parse_chaos_summary(r#"{"type":"coverage"}"#).is_err());
    assert!(parse_chaos_summary("not json").is_err());
}
