//! End-to-end observability: a client and server ORB sharing one
//! `cool_telemetry::Registry` produce complete invocation records (all six
//! stages), consistent QoS negotiation counters, and populated latency
//! histograms — over real loopback TCP.

use bytes::Bytes;
use cool_orb::exchange::LocalExchange;
use cool_orb::{Orb, OrbConfig, OrbServer, Stub};
use cool_telemetry::{InvocationRecord, Registry, SpanOutcome, Stage};
use multe_qos::QoSSpec;
use std::sync::Arc;

/// Client + server ORB pair over loopback TCP, both reporting into the
/// same registry. The client's records carry the server-side stages from
/// the reply's trace context.
fn tcp_pair(registry: &Arc<Registry>) -> (OrbServer, Stub) {
    let config = OrbConfig {
        telemetry: Some(Arc::clone(registry)),
        ..Default::default()
    };
    let server_orb = Orb::with_exchange_and_config("server", LocalExchange::new(), config.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("echo");
    let client_orb = Orb::with_exchange_and_config("client", LocalExchange::new(), config);
    let stub = client_orb.bind(&reference).unwrap();
    (server, stub)
}

/// Orderings that hold regardless of thread scheduling: the client-side
/// marks are sequenced on the calling thread, the server-side stages are
/// laid out from the reply's trace context in dispatcher order, and the
/// reply decode happens after the servant ran. (Client `frame_send` vs.
/// server `queue_wait` is a genuine race between two threads and is
/// deliberately not asserted.)
fn assert_stage_invariants(span: &InvocationRecord) {
    assert!(span.is_complete(), "incomplete span: {span:?}");
    let offset = |stage: Stage| span.stage(stage).unwrap().offset_us;
    assert!(offset(Stage::Marshal) <= offset(Stage::FrameSend), "{span:?}");
    assert!(
        offset(Stage::QueueWait) <= offset(Stage::QosNegotiate),
        "{span:?}"
    );
    assert!(
        offset(Stage::QosNegotiate) <= offset(Stage::ServantExecute),
        "{span:?}"
    );
    assert!(
        offset(Stage::ServantExecute) <= offset(Stage::ReplyDecode),
        "{span:?}"
    );
    assert!(offset(Stage::ReplyDecode) <= span.total_us, "{span:?}");
}

#[test]
fn loopback_call_produces_a_complete_six_stage_span() {
    let registry = Arc::new(Registry::new());
    let (_server, stub) = tcp_pair(&registry);
    stub.set_qos_parameter(QoSSpec::builder().ordered(true).build())
        .unwrap();
    let reply = stub.invoke("echo", Bytes::from_static(b"ping")).unwrap();
    assert_eq!(&reply[..], b"ping");

    let snap = registry.snapshot();
    assert!(
        snap.counter("qos_negotiations_accepted").unwrap_or(0) >= 1,
        "negotiation should have been recorded: {}",
        registry.render_text()
    );
    let spans = registry.recent();
    let span = spans
        .iter()
        .find(|s| &*s.operation == "echo")
        .expect("span for the echo call");
    assert_eq!(span.transport, "tcp");
    assert!(matches!(span.outcome, SpanOutcome::Ok));
    assert_stage_invariants(span);
}

#[test]
fn two_bindings_sharing_a_registry_keep_their_records_apart() {
    // Two client ORBs (so two bindings) and the server all report into
    // one registry. Each binding numbers its requests from 1, so the two
    // interleaved deferred calls below carry the same request id.
    let registry = Arc::new(Registry::new());
    let config = OrbConfig {
        telemetry: Some(Arc::clone(&registry)),
        ..Default::default()
    };
    let server_orb = Orb::with_exchange_and_config("server", LocalExchange::new(), config.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("echo");
    let orb_a = Orb::with_exchange_and_config("client-a", LocalExchange::new(), config.clone());
    let orb_b = Orb::with_exchange_and_config("client-b", LocalExchange::new(), config);
    let stub_a = orb_a.bind(&reference).unwrap();
    let stub_b = orb_b.bind(&reference).unwrap();

    let ping = stub_a
        .invoke_deferred("ping", Bytes::from_static(b"a"))
        .unwrap();
    let pong = stub_b
        .invoke_deferred("pong", Bytes::from_static(b"b"))
        .unwrap();
    assert_eq!(ping.request_id(), 1);
    assert_eq!(pong.request_id(), 1);
    let timeout = std::time::Duration::from_secs(5);
    assert_eq!(&ping.wait(timeout).unwrap().0[..], b"a");
    assert_eq!(&pong.wait(timeout).unwrap().0[..], b"b");

    let spans = registry.recent();
    assert!(
        spans
            .iter()
            .all(|s| !matches!(s.outcome, SpanOutcome::Cancelled)),
        "no call was cancelled: {spans:?}"
    );
    for operation in ["ping", "pong"] {
        let mine: Vec<&InvocationRecord> = spans
            .iter()
            .filter(|s| &*s.operation == operation)
            .collect();
        assert_eq!(mine.len(), 1, "one record for {operation}: {spans:?}");
        assert!(matches!(mine[0].outcome, SpanOutcome::Ok), "{:?}", mine[0]);
        assert_stage_invariants(mine[0]);
    }
}

#[test]
fn thousand_calls_fill_counters_histograms_and_span_ring() {
    let registry = Arc::new(Registry::new());
    let (_server, stub) = tcp_pair(&registry);
    stub.set_qos_parameter(QoSSpec::builder().ordered(true).build())
        .unwrap();
    const CALLS: u64 = 1000;
    for i in 0..CALLS {
        let body = stub
            .invoke("echo", Bytes::from(i.to_be_bytes().to_vec()))
            .unwrap();
        assert_eq!(&body[..], &i.to_be_bytes());
    }

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("orb_invocations_total{transport=\"tcp\"}"),
        Some(CALLS)
    );
    assert_eq!(snap.counter("qos_negotiations_accepted"), Some(CALLS));
    assert_eq!(snap.counter("qos_negotiations_nacked"), None);
    // Interned by the binding at construction, but never incremented.
    assert_eq!(snap.counter("orb_timeouts_total"), Some(0));

    let latency = snap
        .histogram("orb_invocation_latency_us{transport=\"tcp\"}")
        .expect("latency histogram");
    assert_eq!(latency.count, CALLS);
    assert!(latency.p99 > 0, "p99 must be non-zero: {latency:?}");
    assert!(latency.p50 <= latency.p99);

    // Server-side histograms saw every request too.
    assert_eq!(snap.histogram("orb_servant_execute_us").unwrap().count, CALLS);
    assert_eq!(
        snap.histogram("orb_dispatch_queue_wait_us").unwrap().count,
        CALLS
    );

    // The bounded ring retains per-stage timings for at least the last 64
    // invocations, every one a complete Ok span.
    let recent: Vec<InvocationRecord> = registry
        .recent()
        .into_iter()
        .filter(|s| matches!(s.outcome, SpanOutcome::Ok))
        .collect();
    assert!(recent.len() >= 64, "only {} recent spans", recent.len());
    for span in &recent {
        assert_stage_invariants(span);
    }

    // Transport counters agree with the invocation count: one request
    // frame out, one reply frame in, per call.
    assert!(
        snap.counter("transport_frames_sent_total{kind=\"tcp\"}")
            .unwrap_or(0)
            >= CALLS
    );
    assert!(
        snap.counter("transport_frames_recv_total{kind=\"tcp\"}")
            .unwrap_or(0)
            >= CALLS
    );

    // And the whole lot renders.
    let text = registry.render_text();
    assert!(text.contains("orb_invocations_total"));
    let prom = registry.render_prometheus();
    assert!(prom.contains("orb_invocation_latency_us"));
}

#[test]
fn timeouts_are_attributed_and_counted() {
    let registry = Arc::new(Registry::new());
    let config = OrbConfig {
        telemetry: Some(Arc::clone(&registry)),
        ..Default::default()
    };
    let server_orb = Orb::with_exchange_and_config("server", LocalExchange::new(), config.clone());
    server_orb
        .adapter()
        .register_fn("slow", |_op, _args, _ctx| {
            std::thread::sleep(std::time::Duration::from_millis(200));
            Ok(Vec::new())
        })
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange_and_config("client", LocalExchange::new(), config);
    let stub = client_orb.bind(&server.object_ref("slow")).unwrap();
    stub.set_timeout(std::time::Duration::from_millis(20));

    let err = stub.invoke("s", Bytes::new()).unwrap_err();
    match err {
        cool_orb::OrbError::Timeout {
            request_id,
            elapsed,
        } => {
            assert!(request_id.is_some(), "timeout must name the request");
            assert!(elapsed >= std::time::Duration::from_millis(20));
        }
        other => panic!("expected timeout, got {other:?}"),
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("orb_timeouts_total"), Some(1));
    let spans = registry.recent();
    assert!(
        spans
            .iter()
            .any(|s| matches!(s.outcome, SpanOutcome::Timeout)),
        "ring should hold the timed-out span: {spans:?}"
    );
}
