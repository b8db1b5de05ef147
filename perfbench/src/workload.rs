//! The three workloads: how each sets up its ORBs and binding, what one
//! operation is, and how a timed window drives them.

use crate::host;
use crate::rng::{seq_of, PayloadPool};
use crate::trace::{Kind, Recorder};
use bytes::Bytes;
use cool_orb::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on any single call; a call that takes longer counts as a timeout.
const CALL_TIMEOUT: Duration = Duration::from_secs(5);
/// Requests `qos-stream` keeps in flight.
const STREAM_WINDOW: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EchoSmall,
    QosStream,
    QosRenegotiate,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::EchoSmall,
        Workload::QosStream,
        Workload::QosRenegotiate,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EchoSmall => "echo-small",
            Workload::QosStream => "qos-stream",
            Workload::QosRenegotiate => "qos-renegotiate",
        }
    }

    /// The seeded payloads the workload cycles through.
    pub fn pool(self, seed: u64) -> PayloadPool {
        match self {
            Workload::EchoSmall => PayloadPool::fixed(seed, 256, 64),
            Workload::QosStream => PayloadPool::stratified(seed, 64, 512, 32 * 1024),
            Workload::QosRenegotiate => PayloadPool::fixed(seed, 256, 256),
        }
    }

    /// The QoS specs the workload applies: the one set at bind time, or
    /// for `qos-renegotiate` the two it alternates between per method.
    pub fn specs(self) -> Vec<QoSSpec> {
        match self {
            Workload::EchoSmall => vec![QoSSpec::best_effort()],
            Workload::QosStream => vec![QoSSpec::builder()
                .throughput_bps(20_000_000, 1_000_000, i32::MAX)
                .reliability(Reliability::Reliable)
                .ordered(true)
                .latency(
                    Duration::from_millis(50),
                    Duration::ZERO,
                    Duration::from_secs(1),
                )
                .build()],
            Workload::QosRenegotiate => vec![
                QoSSpec::builder()
                    .reliability(Reliability::Reliable)
                    .ordered(true)
                    .build(),
                QoSSpec::builder().reliability(Reliability::Checked).build(),
            ],
        }
    }
}

/// Why an operation failed. Nothing panics mid-run: every failure is
/// counted and the run goes on.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub nacks: u64,
    pub timeouts: u64,
    pub errors: u64,
    pub mismatches: u64,
    pub unsatisfied: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.nacks + self.timeouts + self.errors + self.mismatches + self.unsatisfied
    }

    fn error(&mut self, err: &OrbError) {
        match err {
            OrbError::QosNotSupported(_) => self.nacks += 1,
            OrbError::Timeout { .. } => self.timeouts += 1,
            _ => self.errors += 1,
        }
    }

    /// Checks a reply against its request and, on QoS workloads, the
    /// grant against the spec. Returns the reply length of a verified
    /// operation.
    fn verify(
        &mut self,
        result: Result<(Bytes, Option<GrantedQoS>), OrbError>,
        request: &Bytes,
        spec: &QoSSpec,
    ) -> Option<usize> {
        match result {
            Err(err) => {
                self.error(&err);
                None
            }
            Ok((body, _)) if body != *request => {
                self.mismatches += 1;
                None
            }
            Ok((_, granted))
                if !spec.is_best_effort()
                    && !granted.as_ref().is_some_and(|g| g.satisfies(spec)) =>
            {
                self.unsatisfied += 1;
                None
            }
            Ok((body, _)) => Some(body.len()),
        }
    }
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every operation completed inside the window.
    pub latencies_ns: Vec<u64>,
    pub reply_bytes: u64,
    pub elapsed: Duration,
    pub cpu_us: f64,
    pub ctx_switches: u64,
    pub allocs: u64,
    /// `/proc/self/task` entries, sampled about once a second.
    pub threads: Vec<usize>,
}

impl Window {
    pub fn ops(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Ends the window: its length and the process counters' deltas.
    fn close(&mut self, start: Instant, now: Instant, base: &Counters) {
        let counters = Counters::read();
        self.elapsed = now - start;
        self.cpu_us = counters.cpu_us - base.cpu_us;
        self.ctx_switches = counters.ctx_switches.saturating_sub(base.ctx_switches);
        self.allocs = counters.allocs - base.allocs;
    }
}

/// Process-wide counters read at both ends of a window.
struct Counters {
    cpu_us: f64,
    ctx_switches: u64,
    allocs: u64,
}

impl Counters {
    fn read() -> Self {
        Counters {
            cpu_us: host::cpu_us(),
            ctx_switches: host::ctx_switches(),
            allocs: cool_telemetry::allocs::buffer_allocs(),
        }
    }
}

/// Client and server ORBs in one process, bound over loopback.
pub struct Bench {
    workload: Workload,
    specs: Vec<QoSSpec>,
    stub: Stub,
    server: OrbServer,
    client_orb: Arc<Orb>,
    server_orb: Arc<Orb>,
    rec: Option<Arc<Recorder>>,
}

impl Bench {
    /// Creates both ORBs, listens, binds, applies the workload's first
    /// QoS spec and completes one verified call. Returns the bench and the
    /// time from ORB creation to that first completed call. With `rec`,
    /// every step is recorded as a span and the servant records its own.
    pub fn setup(
        workload: Workload,
        pool: &PayloadPool,
        seq: &mut u64,
        rec: Option<Arc<Recorder>>,
        tally: &mut Tally,
    ) -> Result<(Bench, Duration), String> {
        let setup_id = rec.as_ref().map_or(0, |r| r.next_id());
        let start = Instant::now();
        let exchange = LocalExchange::new();
        let server_orb = Orb::with_exchange("perfbench-server", exchange.clone());
        let servant_rec = rec.clone();
        server_orb
            .adapter()
            .register_fn("echo", move |_op, args, _ctx| {
                let entry = Instant::now();
                let body = args.to_vec();
                if let Some(rec) = &servant_rec {
                    rec.record(
                        0,
                        seq_of(args).unwrap_or(0),
                        Kind::Servant,
                        entry,
                        Instant::now(),
                    );
                }
                Ok(body)
            })
            .map_err(|e| format!("register servant: {e}"))?;
        let server = match workload {
            Workload::EchoSmall => server_orb.listen_tcp("127.0.0.1:0"),
            Workload::QosStream | Workload::QosRenegotiate => server_orb.listen_dacapo("perfbench"),
        }
        .map_err(|e| format!("listen: {e}"))?;
        let client_orb = Orb::with_exchange("perfbench-client", exchange);

        let t = Instant::now();
        let stub = client_orb
            .bind(&server.object_ref("echo"))
            .map_err(|e| format!("bind: {e}"))?;
        let bound = Instant::now();
        stub.set_timeout(CALL_TIMEOUT);
        let specs = workload.specs();
        stub.set_qos_parameter(specs[0].clone())
            .map_err(|e| format!("set_qos_parameter: {e}"))?;
        let qos_set = Instant::now();
        if let Some(r) = &rec {
            r.record(setup_id, 0, Kind::Bind, t, bound);
            r.record(setup_id, 0, Kind::SetQos, bound, qos_set);
        }

        let bench = Bench {
            workload,
            specs,
            stub,
            server,
            client_orb,
            server_orb,
            rec,
        };
        // The first call carries the spec just set, whatever the workload
        // alternates to afterwards.
        let first = bench.call(pool, next(seq), setup_id, Some(0), tally);
        let elapsed = start.elapsed();
        if let Some(r) = &bench.rec {
            r.record_with_id(setup_id, 0, 0, Kind::Setup, start, start + elapsed, 1);
        }
        match first {
            Some(_) => Ok((bench, elapsed)),
            None => {
                bench.close();
                Err(format!("{}: first call failed: {tally:?}", workload.name()))
            }
        }
    }

    /// One closed-loop operation: for `qos-renegotiate` the per-method
    /// `set_qos_parameter`, then the echo. `spec_index` overrides the
    /// spec the sequence number would pick. Returns the latency of a
    /// verified operation and its reply length.
    fn call(
        &self,
        pool: &PayloadPool,
        seq: u64,
        parent: u64,
        spec_index: Option<usize>,
        tally: &mut Tally,
    ) -> Option<(Duration, usize)> {
        tally.attempted += 1;
        let request = Bytes::from(pool.request(seq));
        let spec = match spec_index {
            Some(i) => &self.specs[i],
            None => &self.specs[(seq % self.specs.len() as u64) as usize],
        };
        let op_id = self.rec.as_ref().map_or(0, |r| r.next_id());
        let start = Instant::now();
        let mut invoked = start;
        if self.workload == Workload::QosRenegotiate && spec_index.is_none() {
            let applied = self.stub.set_qos_parameter(spec.clone());
            invoked = Instant::now();
            if let Some(r) = &self.rec {
                r.record(op_id, seq, Kind::SetQos, start, invoked);
            }
            if let Err(err) = applied {
                tally.error(&err);
                return None;
            }
        }
        let result = self.stub.invoke("echo", request.clone());
        let end = Instant::now();
        if let Some(r) = &self.rec {
            r.record(op_id, seq, Kind::Invoke, invoked, end);
            r.record_with_id(op_id, parent, seq, Kind::Op, start, end, 1);
        }
        let result = result.map(|body| (body, self.stub.last_granted()));
        let len = tally.verify(result, &request, spec)?;
        Some((end - start, len))
    }

    /// Drives the workload for `length`, then lets in-flight requests
    /// finish (verified, but outside the window's counts). Spans of the
    /// window's operations name `parent`.
    pub fn run(
        &self,
        pool: &PayloadPool,
        seq: &mut u64,
        length: Duration,
        parent: u64,
        tally: &mut Tally,
    ) -> Window {
        let mut w = Window::default();
        let base = Counters::read();
        let start = Instant::now();
        let end = start + length;
        let mut next_sample = start;
        let mut sample = |now: Instant, w: &mut Window| {
            if now >= next_sample {
                w.threads.push(host::threads());
                next_sample = now + Duration::from_secs(1);
            }
        };
        match self.workload {
            Workload::EchoSmall | Workload::QosRenegotiate => loop {
                if let Some((lat, len)) = self.call(pool, next(seq), parent, None, tally) {
                    w.latencies_ns.push(lat.as_nanos() as u64);
                    w.reply_bytes += len as u64;
                }
                let now = Instant::now();
                sample(now, &mut w);
                if now >= end {
                    w.close(start, now, &base);
                    break;
                }
            },
            Workload::QosStream => {
                let mut in_flight = VecDeque::with_capacity(STREAM_WINDOW);
                for _ in 0..STREAM_WINDOW {
                    in_flight.extend(self.issue(pool, next(seq), tally));
                }
                while let Some(op) = in_flight.pop_front() {
                    let done = self.complete(op, parent, tally);
                    let now = Instant::now();
                    if w.elapsed.is_zero() {
                        if let Some((lat, len)) = done {
                            w.latencies_ns.push(lat.as_nanos() as u64);
                            w.reply_bytes += len as u64;
                        }
                        sample(now, &mut w);
                        if now < end {
                            in_flight.extend(self.issue(pool, next(seq), tally));
                        } else {
                            w.close(start, now, &base);
                        }
                    }
                }
            }
        }
        if w.elapsed.is_zero() {
            w.close(start, Instant::now(), &base);
        }
        w
    }

    fn issue(&self, pool: &PayloadPool, seq: u64, tally: &mut Tally) -> Option<InFlight> {
        tally.attempted += 1;
        let request = Bytes::from(pool.request(seq));
        let start = Instant::now();
        match self.stub.invoke_deferred("echo", request.clone()) {
            Ok(reply) => Some(InFlight {
                seq,
                start,
                request,
                reply,
            }),
            Err(err) => {
                tally.error(&err);
                None
            }
        }
    }

    fn complete(&self, op: InFlight, parent: u64, tally: &mut Tally) -> Option<(Duration, usize)> {
        let result = op.reply.wait(CALL_TIMEOUT);
        let end = Instant::now();
        if let Some(r) = &self.rec {
            let op_id = r.next_id();
            r.record(op_id, op.seq, Kind::Invoke, op.start, end);
            r.record_with_id(op_id, parent, op.seq, Kind::Op, op.start, end, 1);
        }
        let len = tally.verify(result, &op.request, &self.specs[0])?;
        Some((end - op.start, len))
    }

    pub fn close(self) {
        self.server.close();
        self.client_orb.shutdown();
        self.server_orb.shutdown();
    }
}

/// A deferred request of `qos-stream` waiting for its reply.
struct InFlight {
    seq: u64,
    start: Instant,
    request: Bytes,
    reply: DeferredReply,
}

/// Post-increments the run-wide sequence counter; sequence numbers are
/// unique across every setup and window of one run.
fn next(seq: &mut u64) -> u64 {
    *seq += 1;
    *seq
}
