//! Property-based tests for Da CaPo invariants.

use bytes::Bytes;
use dacapo::catalog::{MechanismCatalog, ModuleParams};
use dacapo::config::{ConfigContext, ConfigGoal, ConfigurationManager};
use dacapo::connection::Connection;
use dacapo::tlayer::NetsimTransport;
use dacapo::functions::MechanismId;
use dacapo::graph::{ModuleGraph, ProtocolGraph};
use dacapo::module::Outputs;
use dacapo::modules::crc::{crc16, crc32};
use dacapo::modules::rle::{rle_decode, rle_encode};
use dacapo::packet::Packet;
use multe_qos::TransportRequirements;
use proptest::prelude::*;
use std::time::Duration;

#[path = "support/crc_reference.rs"]
mod crc_reference;
use crc_reference::{crc16_bitwise, crc32_bytewise};

fn arb_requirements() -> impl Strategy<Value = TransportRequirements> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        proptest::option::of(1u64..2_000_000_000),
        proptest::option::of(1u32..10_000_000),
    )
        .prop_map(|(ed, rt, sq, enc, bw, lat)| TransportRequirements {
            error_detection: ed,
            retransmission: rt,
            sequencing: sq,
            encryption: enc,
            bandwidth_bps: bw,
            latency_budget_us: lat,
            jitter_budget_us: None,
        })
}

fn arb_goal() -> impl Strategy<Value = ConfigGoal> {
    prop_oneof![
        Just(ConfigGoal::MaxThroughput),
        Just(ConfigGoal::MinLatency),
        Just(ConfigGoal::MinCpu)
    ]
}

proptest! {
    /// Whatever the configuration manager produces is a valid graph that
    /// satisfies the protocol requirements it was derived from.
    #[test]
    fn configurations_always_satisfy_requirements(
        req in arb_requirements(),
        goal in arb_goal(),
        mtu in proptest::option::of(256usize..128*1024),
    ) {
        let mgr = ConfigurationManager::standard();
        let ctx = ConfigContext { goal, transport_mtu: mtu, ..Default::default() };
        let cfg = mgr.configure(&req, &ctx).unwrap();
        cfg.graph.validate(mgr.catalog()).unwrap();
        let protocol = ProtocolGraph::from_requirements(&req);
        prop_assert!(cfg.graph.satisfies(&protocol, mgr.catalog()),
            "graph {} does not satisfy requirements {:?}", cfg.graph, req);
    }

    /// Configuration is deterministic: both peers derive the same graph
    /// from the same granted QoS.
    #[test]
    fn configuration_is_deterministic(req in arb_requirements(), goal in arb_goal()) {
        let mgr = ConfigurationManager::standard();
        let ctx = ConfigContext { goal, ..Default::default() };
        let a = mgr.configure(&req, &ctx).unwrap();
        let b = mgr.configure(&req, &ctx).unwrap();
        prop_assert_eq!(a.graph, b.graph);
    }

    /// CRC32 detects every single-bit flip (guaranteed by the polynomial).
    #[test]
    fn crc32_detects_single_bit_flips(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        bit in any::<usize>(),
    ) {
        let original = crc32(&data);
        let mut corrupted = data.clone();
        let bit = bit % (corrupted.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc32(&corrupted), original);
    }

    /// CRC16 detects every single-bit flip too.
    #[test]
    fn crc16_detects_single_bit_flips(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        bit in any::<usize>(),
    ) {
        let original = crc16(&data);
        let mut corrupted = data.clone();
        let bit = bit % (corrupted.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc16(&corrupted), original);
    }

    /// The word-at-a-time kernels compute exactly the bytewise/bitwise
    /// reference checksums.
    #[test]
    fn crc_kernels_match_reference(data in proptest::collection::vec(any::<u8>(), 0..=4096)) {
        prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        prop_assert_eq!(crc16(&data), crc16_bitwise(&data));
    }

    /// ... also on arbitrary sub-slices, which start at any alignment and
    /// leave any remainder after the last whole block.
    #[test]
    fn crc_kernels_match_reference_on_sub_slices(
        data in proptest::collection::vec(any::<u8>(), 0..=4096),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let (a, b) = (a % (data.len() + 1), b % (data.len() + 1));
        let s = &data[a.min(b)..a.max(b)];
        prop_assert_eq!(crc32(s), crc32_bytewise(s));
        prop_assert_eq!(crc16(s), crc16_bitwise(s));
    }

    /// RLE encode/decode is the identity for arbitrary data.
    #[test]
    fn rle_round_trip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(rle_decode(&rle_encode(&data)).unwrap(), data);
    }

    /// Every transforming module is lossless through a down/up round trip
    /// for arbitrary payloads.
    #[test]
    fn modules_are_lossless_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        mechanism in prop_oneof![
            Just("dummy"), Just("parity"), Just("crc16"), Just("crc32"),
            Just("xor-crypt"), Just("rle"), Just("seq"), Just("fragment"),
        ],
    ) {
        let catalog = MechanismCatalog::standard();
        let params = ModuleParams { mtu: 256, ..Default::default() };
        let entry = catalog.get(&MechanismId::new(mechanism)).unwrap();
        let mut tx = entry.instantiate(&params);
        let mut rx = entry.instantiate(&params);

        let mut out = Outputs::new();
        tx.process_down(Packet::data(&payload), &mut out);
        let wire = out.take_down();
        prop_assert!(!wire.is_empty());
        let mut delivered = Vec::new();
        for frame in wire {
            rx.process_up(frame, &mut out);
            delivered.extend(out.take_up());
            // acks etc. are discarded in this single-module harness
            let _ = out.take_down();
        }
        prop_assert_eq!(delivered.len(), 1, "{} packets delivered", delivered.len());
        prop_assert_eq!(delivered[0].payload(), &payload[..]);
    }

    /// Packet header/trailer operations compose and invert for arbitrary
    /// stacks of operations.
    #[test]
    fn packet_header_trailer_stack_inverts(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        headers in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 0..8),
    ) {
        let mut pkt = Packet::data(&payload);
        for h in &headers {
            pkt.push_header(h);
        }
        for h in headers.iter().rev() {
            let popped = pkt.pop_header(h.len()).unwrap();
            prop_assert_eq!(&popped, h);
        }
        prop_assert_eq!(pkt.payload(), &payload[..]);
    }

    /// The throughput factor of a graph never exceeds 1 and shrinks as
    /// modules are added.
    #[test]
    fn throughput_factor_monotone(count in 0usize..20) {
        let catalog = MechanismCatalog::standard();
        let mut last = f64::INFINITY;
        for n in 0..count {
            let graph: ModuleGraph = ModuleGraph::from_ids(vec!["dummy"; n]);
            let factor = graph.throughput_factor(&catalog);
            prop_assert!(factor <= 1.0 + 1e-12);
            prop_assert!(factor <= last + 1e-12);
            last = factor;
        }
    }
}

proptest! {
    /// Selective-repeat ARQ over a lossy, reordering simulated link
    /// delivers every frame, in order, for any loss/reorder mix the link
    /// can throw at it. This is the chaos-robustness property behind the
    /// ORB's reliable QoS profiles. Frame counts and rates are kept small:
    /// every case spins up a real-time netsim link plus two full module
    /// stacks, so the budget here is wall-clock, not case count.
    #[test]
    fn selective_repeat_survives_loss_and_reordering(
        loss in 0.0f64..0.15,
        reorder in 0.0f64..0.20,
        seed in any::<u64>(),
        n in 8u32..24,
    ) {
        let spec = netsim::LinkSpec::builder()
            .bandwidth_bps(1_000_000_000)
            .propagation(Duration::from_micros(10))
            .loss_rate(loss)
            .reorder_rate(reorder)
            .seed(seed)
            .build()
            .unwrap();
        let link = netsim::Link::real_time(spec);
        let (ea, eb) = link.endpoints();
        let catalog = MechanismCatalog::standard();
        let graph = ModuleGraph::from_ids(["selective-repeat", "crc32"]);
        let a = Connection::establish(graph.clone(), NetsimTransport::new(ea), &catalog).unwrap();
        let b = Connection::establish(graph, NetsimTransport::new(eb), &catalog).unwrap();
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
            prop_assert_eq!(value, i, "frame {} lost or out of order despite selective repeat", i);
        }
        sender.join().unwrap();
        a.close();
        b.close();
    }
}
