//! End-to-end Da CaPo tests: full stacks over real and simulated
//! transports, including failure injection.

use bytes::Bytes;
use dacapo::config::ConfigContext;
use dacapo::prelude::*;
use multe_qos::TransportRequirements;
use std::time::Duration;

fn netsim_pair(spec: netsim::LinkSpec) -> (NetsimTransport, NetsimTransport) {
    let link = netsim::Link::real_time(spec);
    let (a, b) = link.endpoints();
    (NetsimTransport::new(a), NetsimTransport::new(b))
}

fn fast_link() -> netsim::LinkSpec {
    netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::from_micros(10))
        .build()
        .unwrap()
}

#[test]
fn full_stack_over_netsim_link() {
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["xor-crypt", "go-back-n", "crc32"]);
    let (ta, tb) = netsim_pair(fast_link());
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();

    for i in 0..50u8 {
        a.endpoint().send(Bytes::from(vec![i; 256])).unwrap();
    }
    for i in 0..50u8 {
        let got = b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.len(), 256);
        assert_eq!(got[0], i);
    }
    a.close();
    b.close();
}

#[test]
fn arq_recovers_all_packets_over_lossy_link() {
    // 10% frame loss; go-back-N + CRC32 must still deliver everything in
    // order. This is the failure-injection test for the reliability
    // machinery.
    let spec = netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::from_micros(10))
        .loss_rate(0.10)
        .seed(0xBAD5EED)
        .build()
        .unwrap();
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["go-back-n", "crc32"]);
    let (ta, tb) = netsim_pair(spec);
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();

    let n = 100u32;
    let sender = {
        let ep = a.endpoint();
        std::thread::spawn(move || {
            for i in 0..n {
                ep.send(Bytes::from(i.to_be_bytes().to_vec())).unwrap();
            }
        })
    };
    for i in 0..n {
        let got = b.endpoint().recv_timeout(Duration::from_secs(30)).unwrap();
        let value = u32::from_be_bytes([got[0], got[1], got[2], got[3]]);
        assert_eq!(value, i, "packet {i} lost or reordered despite ARQ");
    }
    sender.join().unwrap();
    a.close();
    b.close();
}

#[test]
fn best_effort_over_lossy_link_loses_but_never_corrupts() {
    // Without ARQ, losses surface as missing packets — but CRC ensures
    // nothing corrupted is ever delivered.
    let spec = netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::from_micros(10))
        .loss_rate(0.3)
        .seed(7)
        .build()
        .unwrap();
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["crc32"]);
    let (ta, tb) = netsim_pair(spec);
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();

    let n = 200;
    for i in 0..n {
        a.endpoint()
            .send(Bytes::from(vec![(i % 251) as u8; 64]))
            .unwrap();
    }
    let mut received = 0;
    while let Ok(got) = b.endpoint().recv_timeout(Duration::from_millis(300)) {
        assert_eq!(got.len(), 64);
        assert!(
            got.iter().all(|&x| x == got[0]),
            "corrupted packet delivered"
        );
        received += 1;
    }
    assert!(received < n, "loss rate 0.3 should drop something");
    assert!(received > n / 4, "should deliver a good fraction");
    a.close();
    b.close();
}

#[test]
fn fragmentation_carries_oversized_packets_across_small_mtu() {
    let spec = netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::from_micros(10))
        .mtu(1500)
        .build()
        .unwrap();
    let catalog = MechanismCatalog::standard();
    // Configure via the manager so the fragment size honours the MTU.
    let config_mgr = ConfigurationManager::new(catalog);
    let req = TransportRequirements::best_effort();
    let ctx = ConfigContext {
        transport_mtu: Some(1500),
        max_packet: 64 * 1024,
        ..Default::default()
    };
    let cfg = config_mgr.configure(&req, &ctx).unwrap();
    assert!(cfg
        .graph
        .mechanisms()
        .iter()
        .any(|m| m.as_str() == "fragment"));

    let (ta, tb) = netsim_pair(spec);
    let resource_mgr = ResourceManager::default();
    let a = Connection::establish_with_qos(&req, &ctx, ta, &config_mgr, &resource_mgr).unwrap();
    let b = Connection::establish_with_qos(&req, &ctx, tb, &config_mgr, &resource_mgr).unwrap();

    let payload: Vec<u8> = (0..20_000).map(|i| (i % 256) as u8).collect();
    a.endpoint().send(Bytes::from(payload.clone())).unwrap();
    let got = b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(&got[..], &payload[..]);
    a.close();
    b.close();
}

#[test]
fn forty_dummy_modules_still_deliver() {
    // The paper's extreme configuration: 40 dummy modules.
    let catalog = MechanismCatalog::standard();
    let graph: ModuleGraph = ModuleGraph::from_ids(vec!["dummy"; 40]);
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();
    for i in 0..10u8 {
        a.endpoint().send(Bytes::from(vec![i; 1024])).unwrap();
    }
    for i in 0..10u8 {
        assert_eq!(
            b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap()[0],
            i
        );
    }
    a.close();
    b.close();
}

#[test]
fn tcp_transport_full_stack() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::net::TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();

    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["xor-crypt", "crc16"]);
    let a =
        Connection::establish(graph.clone(), TcpTransport::new(client).unwrap(), &catalog).unwrap();
    let b = Connection::establish(graph, TcpTransport::new(server).unwrap(), &catalog).unwrap();

    a.endpoint()
        .send(Bytes::from_static(b"over real tcp"))
        .unwrap();
    assert_eq!(
        &b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap()[..],
        b"over real tcp"
    );
    b.endpoint().send(Bytes::from_static(b"reply")).unwrap();
    assert_eq!(
        &a.endpoint().recv_timeout(Duration::from_secs(10)).unwrap()[..],
        b"reply"
    );
    a.close();
    b.close();
}

#[test]
fn reconfiguration_under_traffic() {
    let catalog = MechanismCatalog::standard();
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
    let b = Connection::establish(ModuleGraph::empty(), tb, &catalog).unwrap();

    a.endpoint().send(Bytes::from_static(b"phase-1")).unwrap();
    assert_eq!(
        &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
        b"phase-1"
    );

    // Quiesce, then upgrade both sides to an encrypted reliable stack.
    let upgraded = ModuleGraph::from_ids(["xor-crypt", "go-back-n", "crc32"]);
    a.reconfigure(upgraded.clone()).unwrap();
    b.reconfigure(upgraded).unwrap();

    a.endpoint().send(Bytes::from_static(b"phase-2")).unwrap();
    assert_eq!(
        &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
        b"phase-2"
    );
    a.close();
    b.close();
}

#[test]
fn throughput_meters_reflect_pipeline() {
    let catalog = MechanismCatalog::standard();
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
    let b = Connection::establish(ModuleGraph::empty(), tb, &catalog).unwrap();
    let payload = Bytes::from(vec![0u8; 8192]);
    let count = 100;
    for _ in 0..count {
        a.endpoint().send(payload.clone()).unwrap();
    }
    for _ in 0..count {
        b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap();
    }
    assert_eq!(b.endpoint().rx_meter().packets(), count);
    assert_eq!(b.endpoint().rx_meter().bytes(), count * 8192);
    a.close();
    b.close();
}

#[test]
fn scaler_filter_downscales_a_flow_in_a_live_stack() {
    // The paper's intro scenario: a filter module scales a media flow for
    // a slower network. A (1 keep, 1 drop) scaler halves the packet rate
    // end to end; surviving packets arrive intact.
    use dacapo::catalog::{MechanismCatalog, ModuleParams};
    use dacapo::functions::MechanismId;
    use dacapo::runtime::{build_stack, RuntimeOptions, StackThreads};
    use std::sync::Arc;

    let catalog = MechanismCatalog::standard();
    let params = ModuleParams {
        scaling: (1, 1),
        ..Default::default()
    };
    let scaler = catalog
        .get(&MechanismId::new("scaler"))
        .unwrap()
        .instantiate(&params);
    let crc = catalog
        .get(&MechanismId::new("crc32"))
        .unwrap()
        .instantiate(&params);

    let (ta, tb) = loopback_pair();
    let opts = RuntimeOptions::default();
    let tx =
        build_stack(vec![scaler, crc], Arc::new(ta), &opts, StackThreads::default()).unwrap();
    // Receiver runs *without* the scaler (it only acts on the way down)
    // but with the matching CRC.
    let rx_crc = catalog
        .get(&MechanismId::new("crc32"))
        .unwrap()
        .instantiate(&params);
    let rx = build_stack(vec![rx_crc], Arc::new(tb), &opts, StackThreads::default()).unwrap();

    let n = 60u8;
    for i in 0..n {
        tx.endpoint().send(Bytes::from(vec![i; 32])).unwrap();
    }
    let mut received = Vec::new();
    while let Ok(pkt) = rx.endpoint().recv_timeout(Duration::from_millis(300)) {
        assert_eq!(pkt.len(), 32);
        received.push(pkt[0]);
    }
    assert_eq!(received.len(), n as usize / 2, "1:1 scaler halves the rate");
    // Survivors are the even-indexed packets, in order.
    for (idx, byte) in received.iter().enumerate() {
        assert_eq!(*byte, (idx * 2) as u8);
    }
    tx.shutdown();
    rx.shutdown();
}
