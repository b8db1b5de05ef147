//! Smoke test for the live introspection endpoint, driven like an
//! operator would drive it: raw HTTP GETs against a running ORB.
//!
//! A client ORB with `OrbConfig::introspect` enabled invokes a traced
//! echo server (separate registry, so wire gaps on the `/spans` records
//! prove the wire path), then each of the four routes is fetched over
//! plain TCP and sanity-checked. Exits non-zero if any route is missing,
//! malformed, or no record carries wire gaps.
//!
//! ```text
//! cargo run --release -p bench --bin introspect_smoke
//! ```

#![forbid(unsafe_code)]

use bytes::Bytes;
use cool_orb::prelude::*;
use cool_orb::IntrospectPolicy;
use cool_telemetry::Registry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| format!("connect to introspect endpoint: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").map_err(|e| format!("write request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read response: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn check(label: &str, ok: bool, detail: &str) -> bool {
    println!("  [{}] {label}: {detail}", if ok { "ok" } else { "MISS" });
    ok
}

fn main() -> Result<(), String> {
    let quick = std::env::args().any(|a| a == "--quick");
    let calls = if quick { 50 } else { 200 };

    // Traced echo server with its own registry, like a second process.
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange_and_config(
        "introspect-server",
        exchange.clone(),
        OrbConfig {
            telemetry: Some(Arc::new(Registry::new())),
            ..Default::default()
        },
    );
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .map_err(|e| format!("register echo: {e}"))?;
    let server = server_orb
        .listen_tcp("127.0.0.1:0")
        .map_err(|e| format!("listen: {e}"))?;

    // Client ORB with the endpoint on; its private registry is created
    // implicitly by the introspect policy.
    let client_orb = Orb::with_exchange_and_config(
        "introspect-client",
        exchange,
        OrbConfig {
            introspect: Some(IntrospectPolicy {
                sample_period: Duration::from_millis(5),
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let addr = client_orb
        .introspect_addr()
        .ok_or("introspect endpoint must be live")?;
    let stub = client_orb
        .bind(&server.object_ref("echo"))
        .map_err(|e| format!("bind: {e}"))?;
    for i in 0..calls {
        let body = stub
            .invoke("echo", Bytes::from(vec![0x42; 64]))
            .map_err(|e| format!("echo call {i}: {e}"))?;
        assert_eq!(body.len(), 64, "call {i} echoed a wrong-sized body");
    }
    // Let the gauge sampler take a few passes over the post-run state.
    // lint: allow(L001, smoke harness waits out real sampler periods; nothing to signal on)
    std::thread::sleep(Duration::from_millis(25));

    println!("Introspection smoke — {calls} traced calls, endpoint at http://{addr}\n");
    let mut all_ok = true;

    let (status, metrics) = http_get(addr, "/metrics")?;
    all_ok &= check(
        "/metrics",
        status == 200 && metrics.contains("orb_invocations_total"),
        &format!("{status}, {} bytes of exposition", metrics.len()),
    );

    let (status, spans) = http_get(addr, "/spans")?;
    let merged = spans.matches("\"wire_out_us\":").count()
        - spans.matches("\"wire_out_us\":null").count();
    all_ok &= check(
        "/spans",
        status == 200 && spans.contains("\"spans\":[") && merged > 0,
        &format!("{status}, {merged} record(s) with wire gaps on display"),
    );

    let (status, flight) = http_get(addr, "/flight")?;
    all_ok &= check(
        "/flight",
        status == 200 && flight.contains("\"events\""),
        &format!("{status}, {} bytes of event log", flight.len()),
    );

    let (status, gauges) = http_get(addr, "/gauges?window=60000")?;
    all_ok &= check(
        "/gauges",
        status == 200 && gauges.contains("\"window_ms\":60000"),
        &format!("{status}, {} bytes of series", gauges.len()),
    );

    let (status, _) = http_get(addr, "/no-such-route")?;
    all_ok &= check("unknown route", status == 404, &format!("{status}"));

    server.close();
    client_orb.shutdown();
    let closed = TcpStream::connect(addr).is_err();
    all_ok &= check("shutdown", closed, "endpoint closed with the ORB");

    if !all_ok {
        std::process::exit(1);
    }
    println!("\nintrospection smoke ok");
    Ok(())
}
