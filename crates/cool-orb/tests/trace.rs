//! Cross-process distributed tracing over real loopback TCP.
//!
//! These tests give the client and the server **separate** registries —
//! the server's stage timings reach the client's invocation records only
//! over the wire, piggybacked in GIOP service contexts. That is exactly
//! what a two-process deployment looks like, minus the clock skew.

use bytes::Bytes;
use cool_orb::exchange::LocalExchange;
use cool_orb::{IntrospectPolicy, Orb, OrbConfig, OrbServer, Stub};
use cool_telemetry::{names, Registry, Stage};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Client and server ORB over loopback TCP with *disjoint* registries:
/// trace data crosses only via the wire.
fn split_registry_pair() -> (Arc<Registry>, Arc<Registry>, OrbServer, Stub) {
    let client_reg = Arc::new(Registry::new());
    let server_reg = Arc::new(Registry::new());
    let server_orb = Orb::with_exchange_and_config(
        "server",
        LocalExchange::new(),
        OrbConfig {
            telemetry: Some(Arc::clone(&server_reg)),
            ..Default::default()
        },
    );
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("echo");
    let client_orb = Orb::with_exchange_and_config(
        "client",
        LocalExchange::new(),
        OrbConfig {
            telemetry: Some(Arc::clone(&client_reg)),
            ..Default::default()
        },
    );
    let stub = client_orb.bind(&reference).unwrap();
    (client_reg, server_reg, server, stub)
}

#[test]
fn each_invocation_yields_one_merged_trace_with_server_stages_and_wire_gaps() {
    let (client_reg, server_reg, _server, stub) = split_registry_pair();
    const CALLS: usize = 32;
    for i in 0..CALLS {
        let body = stub
            .invoke("echo", Bytes::from(format!("payload-{i}")))
            .unwrap();
        assert_eq!(&body[..], format!("payload-{i}").as_bytes());
    }

    let traces = client_reg.recent();
    assert_eq!(traces.len(), CALLS, "one record per invocation");

    let mut ids = std::collections::HashSet::new();
    for t in &traces {
        let trace_id = t.trace_id.expect("traced invocation");
        assert!(ids.insert(trace_id), "trace ids must be unique: {t:?}");

        // Client stages were measured locally on the caller thread.
        assert_eq!(&*t.operation, "echo");
        assert!(
            t.stage(Stage::Marshal).is_some(),
            "client marshal stage missing: {t:?}"
        );
        assert!(
            t.stage(Stage::ReplyDecode).is_some(),
            "client reply-decode stage missing: {t:?}"
        );

        // Server stages only exist because the reply service context
        // carried them — the registries are disjoint. They lie between
        // the server's receive and send, in dispatcher order.
        assert!(t.is_complete(), "record must carry the server half: {t:?}");
        let at = |s: Stage| t.stage(s).unwrap().offset_us;
        assert!(at(Stage::QueueWait) <= at(Stage::QosNegotiate), "{t:?}");
        assert!(
            at(Stage::QosNegotiate) <= at(Stage::ServantExecute),
            "{t:?}"
        );

        // Wire gaps are the wall-clock deltas around the server's work;
        // on one host they are small but must be present and sane
        // (saturating at zero when clocks jitter backwards).
        let out = t.wire_out_us.expect("outbound gap");
        let back = t.wire_back_us.expect("return gap");
        assert!(out < 5_000_000, "implausible outbound gap {out}µs");
        assert!(back < 5_000_000, "implausible return gap {back}µs");
    }

    // The server joined every inbound trace and accounted for the
    // context bytes in both directions.
    let server_snap = server_reg.snapshot();
    assert_eq!(
        server_snap.counter(names::TRACE_JOINS_TOTAL),
        Some(CALLS as u64),
        "server must join each traced request: {}",
        server_reg.render_text()
    );
    let server_ctx_bytes = server_snap.counter(names::SERVICE_CONTEXT_BYTES).unwrap();
    assert_eq!(
        server_ctx_bytes,
        (CALLS * (21 + 37)) as u64,
        "request (21B) + reply (37B) context per call"
    );
    let client_ctx_bytes = client_reg
        .snapshot()
        .counter(names::SERVICE_CONTEXT_BYTES)
        .unwrap();
    assert_eq!(client_ctx_bytes, (CALLS * 21) as u64);

    // The server must NOT have produced records of its own — its half of
    // the story travels on the reply only.
    assert_eq!(server_reg.recent().len(), 0);
}

#[test]
fn untraced_server_leaves_client_traces_unmerged() {
    // Server without telemetry: no trace join, no reply context. The
    // client still records its own half and completes the record, just
    // without server stages or wire gaps.
    let server_orb = Orb::with_exchange_and_config(
        "server",
        LocalExchange::new(),
        OrbConfig::default(),
    );
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_reg = Arc::new(Registry::new());
    let client_orb = Orb::with_exchange_and_config(
        "client",
        LocalExchange::new(),
        OrbConfig {
            telemetry: Some(Arc::clone(&client_reg)),
            ..Default::default()
        },
    );
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    stub.invoke("echo", Bytes::from_static(b"x")).unwrap();

    let traces = client_reg.recent();
    assert_eq!(traces.len(), 1);
    assert!(traces[0].trace_id.is_some());
    assert!(traces[0].stage(Stage::QueueWait).is_none());
    assert_eq!(traces[0].wire_out_us, None);
    assert_eq!(traces[0].wire_back_us, None);
}

/// Minimal HTTP/1.0 GET against the introspection endpoint.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn introspection_endpoint_serves_all_four_resources() {
    // Traced server with its own registry, so the client's record shows
    // the wire gaps.
    let server_orb = Orb::with_exchange_and_config(
        "server",
        LocalExchange::new(),
        OrbConfig {
            telemetry: Some(Arc::new(Registry::new())),
            ..Default::default()
        },
    );
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();

    let client_orb = Orb::with_exchange_and_config(
        "client",
        LocalExchange::new(),
        OrbConfig {
            introspect: Some(IntrospectPolicy {
                sample_period: Duration::from_millis(10),
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let addr = client_orb
        .introspect_addr()
        .expect("introspect endpoint must be live");
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    stub.invoke("echo", Bytes::from_static(b"hello")).unwrap();

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("orb_invocations_total"),
        "metrics body: {metrics}"
    );

    let (status, spans) = http_get(addr, "/spans");
    assert_eq!(status, 200);
    assert!(spans.contains("\"spans\""), "spans body: {spans}");
    assert!(
        spans.contains("\"operation\":\"echo\""),
        "spans must show the call: {spans}"
    );
    assert!(
        spans.matches("\"wire_out_us\":").count() > spans.matches("\"wire_out_us\":null").count(),
        "a record must carry the wire gaps: {spans}"
    );

    let (status, flight) = http_get(addr, "/flight");
    assert_eq!(status, 200);
    assert!(flight.contains("\"events\""), "flight body: {flight}");

    // Let the sampler tick at least once, then ask for a window.
    std::thread::sleep(Duration::from_millis(50));
    let (status, gauges) = http_get(addr, "/gauges?window=60000");
    assert_eq!(status, 200);
    assert!(
        gauges.contains("\"window_ms\":60000"),
        "gauges body: {gauges}"
    );

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    client_orb.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "endpoint must close on shutdown"
    );
}

#[test]
fn introspection_absent_by_default() {
    let orb = Orb::with_exchange("lonely", LocalExchange::new());
    assert!(
        orb.introspect_addr().is_none(),
        "no introspect policy, no endpoint"
    );
}
