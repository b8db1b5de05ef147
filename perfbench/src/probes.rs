//! Layer probes for the traced run: the benchmark calls each layer's
//! public functions directly, on the workload's own shapes, and records a
//! span around every call (or batch of nanosecond-scale calls).

use crate::rng::PayloadPool;
use crate::trace::{Kind, Recorder};
use crate::workload::Workload;
use bytes::{Bytes, BytesMut};
use cool_giop::{ByteOrder, GiopVersion, Message, RequestHeader};
use dacapo::config::ConfigContext;
use dacapo::prelude::*;
use multe_qos::{QoSSpec, ServerPolicy, TransportRequirements};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches per nanosecond-scale probe, and calls per batch.
const BATCHES: usize = 200;
const CALLS_PER_BATCH: u32 = 32;
/// Connection pairs built for the establish and reconfigure probes.
const PAIRS: usize = 6;
/// Cap on `dacapo.stack_rtt` round trips and on the time they may take.
const RTT_TRIPS: usize = 400;
const RTT_BUDGET: Duration = Duration::from_millis(600);
const RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// The transport requirements the ORB derives from `spec` when the stub
/// pushes it down (permissive negotiation, as in `set_qos_parameter`).
fn requirements(spec: &QoSSpec) -> TransportRequirements {
    if spec.is_best_effort() {
        return TransportRequirements::best_effort();
    }
    let granted = ServerPolicy::permissive()
        .negotiate(spec)
        .expect("workload specs are feasible under the permissive policy");
    TransportRequirements::from_granted(&granted)
}

/// Runs every probe for `workload`. Errors are probe failures (a layer
/// refused the workload's own shape, or a packet came back altered).
pub fn run(workload: Workload, pool: &PayloadPool, rec: &Recorder) -> Result<(), String> {
    let specs = workload.specs();
    giop(pool, &specs, rec)?;
    negotiate(&specs, rec);
    let reqs: Vec<TransportRequirements> = specs.iter().map(requirements).collect();
    configure(&reqs, rec)?;
    establish(&reqs[0], rec)?;
    let renegotiate: Vec<TransportRequirements> = Workload::QosRenegotiate
        .specs()
        .iter()
        .map(requirements)
        .collect();
    reconfigure(&renegotiate, rec)?;
    stack_rtt(&reqs[0], pool, rec)
}

/// `Message::encode_into` and `Message::decode_frame` on the workload's
/// request shape: object key, operation, `qos_params`, payload sizes.
fn giop(pool: &PayloadPool, specs: &[QoSSpec], rec: &Recorder) -> Result<(), String> {
    let messages: Vec<(Message, GiopVersion)> = (0..pool.len() as u64)
        .map(|seq| {
            let params = specs[(seq % specs.len() as u64) as usize].to_params();
            let version = if params.is_empty() {
                GiopVersion::STANDARD
            } else {
                GiopVersion::QOS_EXTENDED
            };
            let header = RequestHeader::builder(seq as u32, b"echo".to_vec(), "echo")
                .qos_params(params)
                .build();
            let body = Bytes::from(pool.request(seq));
            (Message::Request { header, body }, version)
        })
        .collect();
    let frames: Vec<Bytes> = messages
        .iter()
        .map(|(msg, version)| {
            let mut buf = BytesMut::new();
            msg.encode_into(*version, ByteOrder::Big, &mut buf)
                .map_err(|e| format!("giop encode: {e}"))?;
            let frame = buf.freeze();
            match Message::decode_frame(&frame) {
                Ok((decoded, _, _)) if decoded == *msg => Ok(frame),
                other => Err(format!("giop frame does not round-trip: {other:?}")),
            }
        })
        .collect::<Result<_, String>>()?;

    let largest = frames.iter().map(Bytes::len).max().unwrap_or(0);
    let mut buf = BytesMut::with_capacity(largest);
    let mut i = 0;
    for _ in 0..BATCHES {
        rec.time_batch(Kind::GiopEncode, CALLS_PER_BATCH, || {
            let (msg, version) = &messages[i % messages.len()];
            buf.clear();
            let _ = black_box(msg.encode_into(*version, ByteOrder::Big, &mut buf));
            i += 1;
        });
    }
    for _ in 0..BATCHES {
        rec.time_batch(Kind::GiopDecode, CALLS_PER_BATCH, || {
            let _ = black_box(Message::decode_frame(black_box(&frames[i % frames.len()])));
            i += 1;
        });
    }
    Ok(())
}

/// `ServerPolicy::negotiate` under the servant's (permissive) policy.
fn negotiate(specs: &[QoSSpec], rec: &Recorder) {
    let policy = ServerPolicy::permissive();
    let mut i = 0;
    for _ in 0..BATCHES {
        rec.time_batch(Kind::QosNegotiate, CALLS_PER_BATCH, || {
            let _ = black_box(policy.negotiate(black_box(&specs[i % specs.len()])));
            i += 1;
        });
    }
}

/// `ConfigurationManager::configure` for the workload's requirements.
fn configure(reqs: &[TransportRequirements], rec: &Recorder) -> Result<(), String> {
    let mgr = ConfigurationManager::standard();
    let ctx = ConfigContext::default();
    for req in reqs {
        mgr.configure(req, &ctx)
            .map_err(|e| format!("configure: {e}"))?;
    }
    let mut i = 0;
    for _ in 0..BATCHES {
        rec.time_batch(Kind::DacapoConfigure, CALLS_PER_BATCH / 4, || {
            let _ = black_box(mgr.configure(black_box(&reqs[i % reqs.len()]), &ctx));
            i += 1;
        });
    }
    Ok(())
}

fn connect(
    req: &TransportRequirements,
    rec: Option<&Recorder>,
) -> Result<(Connection, Connection), String> {
    let config = ConfigurationManager::standard();
    let resources = ResourceManager::default();
    let ctx = ConfigContext::default();
    let (ta, tb) = loopback_pair();
    let end = |transport| {
        let start = Instant::now();
        let conn = Connection::establish_with_qos(req, &ctx, transport, &config, &resources)
            .map_err(|e| format!("establish: {e}"));
        if let Some(rec) = rec {
            rec.record(0, 0, Kind::DacapoEstablish, start, Instant::now());
        }
        conn
    };
    Ok((end(ta)?, end(tb)?))
}

/// `Connection::establish_with_qos` on both ends of a `loopback_pair`.
fn establish(req: &TransportRequirements, rec: &Recorder) -> Result<(), String> {
    for _ in 0..PAIRS {
        let (a, b) = connect(req, Some(rec))?;
        a.close();
        b.close();
    }
    Ok(())
}

/// `Connection::reconfigure`, both ends, back and forth between the two
/// graphs `qos-renegotiate` alternates.
fn reconfigure(reqs: &[TransportRequirements], rec: &Recorder) -> Result<(), String> {
    let config = ConfigurationManager::standard();
    let graphs: Vec<ModuleGraph> = reqs
        .iter()
        .map(|req| {
            config
                .configure(req, &ConfigContext::default())
                .map(|c| c.graph)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("configure: {e}"))?;
    let (a, b) = connect(&reqs[0], None)?;
    for i in 1..=2 * PAIRS {
        let graph = &graphs[i % graphs.len()];
        for conn in [&a, &b] {
            let start = Instant::now();
            conn.reconfigure(graph.clone())
                .map_err(|e| format!("reconfigure: {e}"))?;
            rec.record(0, 0, Kind::DacapoReconfigure, start, Instant::now());
        }
    }
    a.close();
    b.close();
    Ok(())
}

/// One packet out and back through a standalone connection pair running
/// the workload's graph, with the workload's payloads.
fn stack_rtt(
    req: &TransportRequirements,
    pool: &PayloadPool,
    rec: &Recorder,
) -> Result<(), String> {
    let (a, b) = connect(req, None)?;
    let (ea, eb) = (a.endpoint(), b.endpoint());
    let budget = Instant::now() + RTT_BUDGET;
    let mut result = Ok(());
    for seq in 0..RTT_TRIPS as u64 {
        let packet = Bytes::from(pool.request(seq));
        let start = Instant::now();
        let trip = ea
            .send(packet.clone())
            .and_then(|()| eb.recv_timeout(RECV_TIMEOUT))
            .and_then(|p| eb.send(p))
            .and_then(|()| ea.recv_timeout(RECV_TIMEOUT));
        let end = Instant::now();
        rec.record(0, seq, Kind::StackRtt, start, end);
        match trip {
            Ok(back) if back == packet => {}
            Ok(_) => result = Err("stack round trip altered the packet".to_string()),
            Err(e) => result = Err(format!("stack round trip: {e}")),
        }
        if result.is_err() || end >= budget {
            break;
        }
    }
    a.close();
    b.close();
    result
}
