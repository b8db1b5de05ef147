//! Invocation records: one record per client invocation, keyed by
//! (binding, request id).
//!
//! A record is opened when a client binding starts marshalling a request
//! and closed when the reply is decoded (or the call times out / errors /
//! is cancelled). Only the client writes records. Its own stages
//! (`Marshal`, `FrameSend`, `ReplyDecode`) are marked as they complete;
//! the server stages (`QueueWait`, `QosNegotiate`, `ServantExecute`) and
//! the two wire gaps are filled in from the server half the reply's trace
//! context carries (see [`crate::trace`]). A call that carried no trace
//! context therefore has client stages only.
//!
//! Every binding numbers its requests from 1, so the key pairs the request
//! id with the binding's process-unique id: bindings that share a registry
//! (replica sets, a directory client beside a data binding) never touch
//! each other's records.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::registry::json_escape;
use crate::trace::{duration_as_u64_ns, ClientTrace, ServerTraceTiming};

/// Locks `m`, recovering the data from a poisoned lock: telemetry must
/// keep reporting even after a panic elsewhere, and every guarded value
/// here stays internally consistent under any interleaving.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Pipeline stages of one invocation, in chronological order.
///
/// Note the order differs slightly from a naive reading of the GIOP flow:
/// in this ORB, QoS negotiation runs inside the server dispatcher *after*
/// the request has waited in the dispatch queue, so `QueueWait` precedes
/// `QosNegotiate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Client: CDR-encode the request body and GIOP header.
    Marshal,
    /// Client: hand the frame to the transport (`send_frame` returned).
    FrameSend,
    /// Server: time spent queued before a dispatcher picked the job up.
    QueueWait,
    /// Server: bilateral QoS negotiation against the servant policy.
    QosNegotiate,
    /// Server: servant method execution.
    ServantExecute,
    /// Client: reply frame matched and CDR-decoded.
    ReplyDecode,
}

/// All stages, in chronological order.
pub const STAGES: [Stage; 6] = [
    Stage::Marshal,
    Stage::FrameSend,
    Stage::QueueWait,
    Stage::QosNegotiate,
    Stage::ServantExecute,
    Stage::ReplyDecode,
];

impl Stage {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Marshal => "marshal",
            Stage::FrameSend => "frame_send",
            Stage::QueueWait => "queue_wait",
            Stage::QosNegotiate => "qos_negotiate",
            Stage::ServantExecute => "servant_execute",
            Stage::ReplyDecode => "reply_decode",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Timing of one completed stage within a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Microseconds from record start to the moment the stage *completed*.
    pub offset_us: u64,
    /// How long the stage itself took, in microseconds.
    pub duration_us: u64,
}

/// How an invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Reply decoded successfully.
    Ok,
    /// The call failed (transport error, NACK, servant exception…).
    Error,
    /// The client gave up waiting.
    Timeout,
    /// The request was cancelled before completing.
    Cancelled,
}

impl SpanOutcome {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Error => "error",
            SpanOutcome::Timeout => "timeout",
            SpanOutcome::Cancelled => "cancelled",
        }
    }
}

/// Identifies one invocation: the process-unique id of the binding that
/// sent it and the request id it carried on that binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InvocationKey {
    /// Process-unique binding id, stable across reconnects.
    pub binding: u64,
    /// GIOP/COOL request id, unique within the binding.
    pub request_id: u32,
}

/// Distributed-trace data that rides a stage mark.
#[derive(Debug, Clone, Copy)]
pub enum TraceMark {
    /// With `Marshal`: the trace context the request carries.
    Sent(ClientTrace),
    /// With `ReplyDecode`: the server half echoed on the reply, and the
    /// instant the reply reached the client's demultiplexer.
    Echoed(ServerTraceTiming, Instant),
}

/// One invocation, as the client saw it.
#[derive(Debug, Clone)]
pub struct InvocationRecord {
    /// Binding and request id the record is keyed by.
    pub key: InvocationKey,
    /// Operation name from the request header. Shared, so cloning a
    /// record (snapshots, `/spans`) never re-allocates it.
    pub operation: Arc<str>,
    /// Transport kind the call travelled over ("tcp", "chorus", "dacapo").
    pub transport: &'static str,
    /// Final outcome.
    pub outcome: SpanOutcome,
    /// Per-stage timings, indexed by [`Stage`] order; `None` while the
    /// stage has not completed (one-way and untraced calls never record
    /// the server stages, timed-out calls stop wherever they got to).
    pub stages: [Option<StageTiming>; 6],
    /// Microseconds from record start to finish.
    pub total_us: u64,
    /// Trace id carried in the request service context, when traced.
    pub trace_id: Option<u64>,
    /// Outbound wire gap: server receive minus client send, µs.
    pub wire_out_us: Option<u64>,
    /// Return wire gap: client receive minus server send, µs.
    pub wire_back_us: Option<u64>,
}

impl InvocationRecord {
    /// Timing for one stage, if it completed.
    pub fn stage(&self, s: Stage) -> Option<StageTiming> {
        self.stages[s.index()]
    }

    /// True when every one of the six stages has a timing.
    pub fn is_complete(&self) -> bool {
        self.stages.iter().all(Option::is_some)
    }

    /// Single-line JSON object for exporters and the `/spans` endpoint.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::with_capacity(320);
        out.push_str(&format!(
            "{{\"binding\":{},\"request_id\":{},\"trace_id\":{},\"operation\":\"{}\",\"transport\":\"{}\",\"outcome\":\"{}\",\"total_us\":{},\"stages\":{{",
            self.key.binding,
            self.key.request_id,
            opt(self.trace_id),
            json_escape(&self.operation),
            self.transport,
            self.outcome.name(),
            self.total_us
        ));
        let mut first = true;
        for stage in STAGES {
            if let Some(t) = self.stage(stage) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\"{}\":{{\"offset_us\":{},\"duration_us\":{}}}",
                    stage.name(),
                    t.offset_us,
                    t.duration_us
                ));
            }
        }
        out.push_str(&format!(
            "}},\"wire_out_us\":{},\"wire_back_us\":{}}}",
            opt(self.wire_out_us),
            opt(self.wire_back_us)
        ));
        out
    }
}

/// Renders a slice of invocation records as a JSON array.
pub fn render_json(records: &[InvocationRecord]) -> String {
    let mut out = String::with_capacity(64 + 320 * records.len());
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push(']');
    out
}

struct Active {
    started: Instant,
    record: InvocationRecord,
    /// The trace context sent with the request, kept until the reply's
    /// server half is joined against it.
    sent: Option<ClientTrace>,
}

impl Active {
    fn mark(&mut self, stage: Stage, duration: Duration, trace: Option<TraceMark>) {
        let offset_us = as_us(self.started.elapsed());
        self.record.stages[stage.index()] = Some(StageTiming {
            offset_us,
            duration_us: as_us(duration),
        });
        match trace {
            Some(TraceMark::Sent(client)) => {
                self.record.trace_id = Some(client.trace_id);
                self.sent = Some(client);
            }
            // A reply context with no trace sent out has nothing to join.
            Some(TraceMark::Echoed(server, arrived)) => {
                if let Some(client) = self.sent {
                    self.join(client, server, arrived, offset_us);
                }
            }
            None => {}
        }
    }

    /// Fills in the wire gaps and the three server stages from the server
    /// half echoed on the reply. The client receive stamp is derived from
    /// the send stamp plus the monotonic gap to `arrived`, so no second
    /// wall-clock read is involved. Each server stage completes at the
    /// send offset + `wire_out` + the running sum of the server durations,
    /// clamped to `reply_us` (the reply-decode offset) so the six stages
    /// stay in order even when the two wall clocks disagree.
    fn join(
        &mut self,
        client: ClientTrace,
        server: ServerTraceTiming,
        arrived: Instant,
        reply_us: u64,
    ) {
        let recv_ns = client.sent_at_ns.saturating_add(duration_as_u64_ns(
            arrived.saturating_duration_since(client.sent_mono),
        ));
        let wire_out_us = server.recv_at_ns.saturating_sub(client.sent_at_ns) / 1_000;
        self.record.wire_out_us = Some(wire_out_us);
        self.record.wire_back_us = Some(recv_ns.saturating_sub(server.sent_at_ns) / 1_000);
        let mut at = as_us(client.sent_mono.saturating_duration_since(self.started))
            .saturating_add(wire_out_us);
        for (stage, us) in [
            (Stage::QueueWait, server.queue_wait_us),
            (Stage::QosNegotiate, server.negotiate_us),
            (Stage::ServantExecute, server.execute_us),
        ] {
            at = at.saturating_add(u64::from(us));
            self.record.stages[stage.index()] = Some(StageTiming {
                offset_us: at.min(reply_us),
                duration_us: u64::from(us),
            });
        }
    }
}

/// Active records are bounded: an abandoned one (a `notify` with no
/// reply, a `DeferredReply` that is never waited on) must not leak. When
/// the map is full the oldest record is evicted, finished as `Cancelled`,
/// and pushed to the ring.
const MAX_ACTIVE: usize = 1024;

/// Size of the recent-record ring.
const RING_CAPACITY: usize = 128;

struct Inner {
    active: HashMap<InvocationKey, Active>,
    /// FIFO of active keys, for eviction. May contain stale keys of
    /// records that already finished; those are skipped at eviction time.
    order: VecDeque<InvocationKey>,
    recent: VecDeque<InvocationRecord>,
    capacity: usize,
    dropped: u64,
}

/// Bounded store of invocation records: an active map plus a ring of the
/// most recently finished records, behind one lock.
pub(crate) struct InvocationStore {
    inner: Mutex<Inner>,
}

impl Default for InvocationStore {
    fn default() -> Self {
        InvocationStore::with_capacity(RING_CAPACITY)
    }
}

impl InvocationStore {
    fn with_capacity(capacity: usize) -> Self {
        InvocationStore {
            inner: Mutex::new(Inner {
                active: HashMap::new(),
                order: VecDeque::new(),
                recent: VecDeque::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// Opens a record for `key`. If one with the same key is already
    /// active it is finished as `Cancelled` and pushed to the ring first.
    pub(crate) fn begin(&self, key: InvocationKey, operation: &str, transport: &'static str) {
        let started = Instant::now();
        let mut inner = locked(&self.inner);
        if let Some(prev) = inner.active.remove(&key) {
            push_finished(&mut inner, prev, SpanOutcome::Cancelled);
        }
        if inner.active.len() >= MAX_ACTIVE {
            // Evict the oldest still-active record.
            while let Some(old) = inner.order.pop_front() {
                if let Some(old) = inner.active.remove(&old) {
                    push_finished(&mut inner, old, SpanOutcome::Cancelled);
                    break;
                }
            }
        }
        inner.order.push_back(key);
        // `finish` leaves stale keys behind in `order`; compact it once it
        // holds more stale entries than live ones, so a long begin/finish
        // workload cannot grow it without bound.
        if inner.order.len() >= MAX_ACTIVE * 2 {
            let Inner { active, order, .. } = &mut *inner;
            order.retain(|k| active.contains_key(k));
        }
        inner.active.insert(
            key,
            Active {
                started,
                record: InvocationRecord {
                    key,
                    operation: Arc::from(operation),
                    transport,
                    outcome: SpanOutcome::Ok,
                    stages: [None; 6],
                    total_us: 0,
                    trace_id: None,
                    wire_out_us: None,
                    wire_back_us: None,
                },
                sent: None,
            },
        );
    }

    /// Marks `stage` as completed, with the stage's own duration; the
    /// completion offset is taken from the record clock now. `trace`
    /// attaches the sent trace context or joins the echoed server half.
    /// No-op if the record is unknown (evicted, or telemetry attached
    /// mid-call).
    pub(crate) fn mark(
        &self,
        key: InvocationKey,
        stage: Stage,
        duration: Duration,
        trace: Option<TraceMark>,
    ) {
        if let Some(active) = locked(&self.inner).active.get_mut(&key) {
            active.mark(stage, duration, trace);
        }
    }

    /// Closes the record and pushes it onto the recent ring. Returns the
    /// total time in microseconds when the record was known.
    pub(crate) fn finish(&self, key: InvocationKey, outcome: SpanOutcome) -> Option<u64> {
        let mut inner = locked(&self.inner);
        let active = inner.active.remove(&key)?;
        Some(push_finished(&mut inner, active, outcome))
    }

    /// The most recently finished records, oldest first.
    pub(crate) fn recent(&self) -> Vec<InvocationRecord> {
        locked(&self.inner).recent.iter().cloned().collect()
    }

    /// Records evicted from the ring because it was full.
    pub(crate) fn dropped(&self) -> u64 {
        locked(&self.inner).dropped
    }

    #[cfg(test)]
    fn active_len(&self) -> usize {
        locked(&self.inner).active.len()
    }

    #[cfg(test)]
    fn order_len(&self) -> usize {
        locked(&self.inner).order.len()
    }
}

impl std::fmt::Debug for InvocationStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = locked(&self.inner);
        f.debug_struct("InvocationStore")
            .field("active", &inner.active.len())
            .field("recent", &inner.recent.len())
            .field("capacity", &inner.capacity)
            .finish()
    }
}

/// Moves a finished record onto the ring; returns its total time, µs.
fn push_finished(inner: &mut Inner, active: Active, outcome: SpanOutcome) -> u64 {
    let mut record = active.record;
    record.total_us = as_us(active.started.elapsed());
    record.outcome = outcome;
    let total_us = record.total_us;
    if inner.recent.len() >= inner.capacity {
        inner.recent.pop_front();
        inner.dropped += 1;
    }
    inner.recent.push_back(record);
    total_us
}

fn as_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(binding: u64, request_id: u32) -> InvocationKey {
        InvocationKey {
            binding,
            request_id,
        }
    }

    #[test]
    fn full_span_records_all_stages_in_order() {
        let store = InvocationStore::default();
        store.begin(key(1, 7), "echo", "tcp");
        for stage in STAGES {
            store.mark(key(1, 7), stage, Duration::from_micros(3), None);
            std::thread::sleep(Duration::from_micros(200));
        }
        let total = store
            .finish(key(1, 7), SpanOutcome::Ok)
            .expect("record known");
        assert!(total >= 6 * 200 - 200);

        let recent = store.recent();
        assert_eq!(recent.len(), 1);
        let record = &recent[0];
        assert_eq!(record.key, key(1, 7));
        assert_eq!(&*record.operation, "echo");
        assert_eq!(record.transport, "tcp");
        assert_eq!(record.outcome, SpanOutcome::Ok);
        assert_eq!(record.total_us, total);
        assert_eq!(record.trace_id, None);
        assert!(record.is_complete());
        assert_eq!(record.stage(Stage::Marshal).unwrap().duration_us, 3);
        // Completion offsets must be monotonically non-decreasing in
        // chronological stage order, since we marked them in order.
        let offsets: Vec<u64> = STAGES
            .iter()
            .map(|&s| record.stage(s).unwrap().offset_us)
            .collect();
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets not monotonic: {offsets:?}"
        );
        assert!(record.total_us >= *offsets.last().unwrap());
    }

    #[test]
    fn unknown_span_marks_and_finishes_are_noops() {
        let store = InvocationStore::default();
        store.mark(key(1, 99), Stage::Marshal, Duration::ZERO, None);
        assert!(store.finish(key(1, 99), SpanOutcome::Ok).is_none());
        assert!(store.recent().is_empty());
    }

    #[test]
    fn same_request_id_on_two_bindings_stays_apart() {
        let store = InvocationStore::default();
        store.begin(key(1, 1), "ping", "tcp");
        store.begin(key(2, 1), "pong", "tcp");
        store.mark(key(1, 1), Stage::Marshal, Duration::from_micros(4), None);
        store.finish(key(2, 1), SpanOutcome::Ok);
        store.finish(key(1, 1), SpanOutcome::Ok);
        let recent = store.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(&*recent[0].operation, "pong");
        assert!(recent[0].stage(Stage::Marshal).is_none());
        assert_eq!(&*recent[1].operation, "ping");
        assert!(recent[1].stage(Stage::Marshal).is_some());
        assert!(recent.iter().all(|r| r.outcome == SpanOutcome::Ok));
    }

    fn server_half(recv_at_ns: u64) -> ServerTraceTiming {
        ServerTraceTiming {
            recv_at_ns,
            sent_at_ns: recv_at_ns + 120_000,
            queue_wait_us: 5,
            negotiate_us: 1,
            execute_us: 90,
        }
    }

    #[test]
    fn echoed_server_half_yields_server_stages_and_wire_gaps() {
        let store = InvocationStore::default();
        let k = key(3, 1);
        store.begin(k, "echo", "tcp");
        let sent_mono = Instant::now();
        let sent = ClientTrace {
            trace_id: 42,
            sent_at_ns: 1_000_000,
            sent_mono,
        };
        store.mark(
            k,
            Stage::Marshal,
            Duration::ZERO,
            Some(TraceMark::Sent(sent)),
        );
        // Reply decoded well after the derived server stages complete.
        std::thread::sleep(Duration::from_millis(2));
        let arrived = sent_mono + Duration::from_micros(275);
        store.mark(
            k,
            Stage::ReplyDecode,
            Duration::ZERO,
            Some(TraceMark::Echoed(server_half(1_080_000), arrived)),
        );
        store.finish(k, SpanOutcome::Ok);

        let rec = store.recent().pop().expect("record on the ring");
        assert_eq!(rec.trace_id, Some(42));
        assert_eq!(rec.wire_out_us, Some(80));
        assert_eq!(rec.wire_back_us, Some(75));
        let at = |s: Stage| rec.stage(s).expect("server stage").offset_us;
        assert!(at(Stage::QueueWait) >= 80 + 5);
        assert_eq!(at(Stage::QosNegotiate) - at(Stage::QueueWait), 1);
        assert_eq!(at(Stage::ServantExecute) - at(Stage::QosNegotiate), 90);
        assert_eq!(rec.stage(Stage::ServantExecute).unwrap().duration_us, 90);
        assert!(at(Stage::ServantExecute) <= at(Stage::ReplyDecode));
        let json = rec.to_json();
        assert!(json.contains("\"trace_id\":42"));
        assert!(json.contains("\"queue_wait\":{"));
        assert!(json.contains("\"wire_out_us\":80"));
    }

    #[test]
    fn skewed_server_clock_cannot_push_server_stages_past_reply_decode() {
        let store = InvocationStore::default();
        let k = key(4, 1);
        store.begin(k, "echo", "tcp");
        let sent_mono = Instant::now();
        let sent = ClientTrace {
            trace_id: 7,
            sent_at_ns: 1_000_000,
            sent_mono,
        };
        store.mark(
            k,
            Stage::Marshal,
            Duration::ZERO,
            Some(TraceMark::Sent(sent)),
        );
        store.mark(k, Stage::FrameSend, Duration::ZERO, None);
        // Server clock 10 s ahead of the client's.
        let echoed = TraceMark::Echoed(server_half(10_001_000_000), Instant::now());
        store.mark(k, Stage::ReplyDecode, Duration::ZERO, Some(echoed));
        store.finish(k, SpanOutcome::Ok);
        let rec = store.recent().pop().expect("record on the ring");
        assert!(rec.is_complete());
        let offsets: Vec<u64> = STAGES
            .iter()
            .map(|&s| rec.stage(s).unwrap().offset_us)
            .collect();
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{offsets:?}");
    }

    #[test]
    fn untraced_or_replyless_records_have_no_server_half() {
        let store = InvocationStore::default();
        // Untraced: an echoed half with no trace sent out is ignored.
        store.begin(key(5, 1), "echo", "tcp");
        let echoed = TraceMark::Echoed(server_half(1), Instant::now());
        store.mark(key(5, 1), Stage::ReplyDecode, Duration::ZERO, Some(echoed));
        store.finish(key(5, 1), SpanOutcome::Ok);
        // Traced, but no reply (one-way).
        store.begin(key(5, 2), "note", "tcp");
        let sent = ClientTrace {
            trace_id: 9,
            sent_at_ns: 500,
            sent_mono: Instant::now(),
        };
        store.mark(
            key(5, 2),
            Stage::Marshal,
            Duration::ZERO,
            Some(TraceMark::Sent(sent)),
        );
        store.finish(key(5, 2), SpanOutcome::Ok);
        for rec in store.recent() {
            assert!(rec.stage(Stage::QueueWait).is_none(), "{rec:?}");
            assert_eq!(rec.wire_out_us, None);
            assert_eq!(rec.wire_back_us, None);
            assert!(rec.to_json().contains("\"wire_out_us\":null"));
        }
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let store = InvocationStore::with_capacity(4);
        for id in 0..10u32 {
            store.begin(key(1, id), "op", "tcp");
            store.finish(key(1, id), SpanOutcome::Ok);
        }
        let recent = store.recent();
        assert_eq!(recent.len(), 4);
        let ids: Vec<u32> = recent.iter().map(|r| r.key.request_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(store.dropped(), 6);
    }

    #[test]
    fn active_map_is_bounded() {
        let store = InvocationStore::with_capacity(8);
        for id in 0..(MAX_ACTIVE as u32 + 50) {
            store.begin(key(1, id), "leaky", "tcp");
        }
        assert!(store.active_len() <= MAX_ACTIVE);
        // Evicted records surface in the ring as cancelled.
        assert!(store
            .recent()
            .iter()
            .all(|r| r.outcome == SpanOutcome::Cancelled));
    }

    #[test]
    fn order_queue_is_bounded_under_begin_finish_churn() {
        // Regression: `finish` leaves its key behind in the eviction FIFO,
        // which used to grow without bound under a normal begin/finish
        // workload that never fills the active map.
        let store = InvocationStore::with_capacity(4);
        for id in 0..(MAX_ACTIVE as u32 * 8) {
            store.begin(key(1, id), "churn", "tcp");
            store.finish(key(1, id), SpanOutcome::Ok);
        }
        assert!(
            store.order_len() <= MAX_ACTIVE * 2,
            "eviction FIFO grew to {}",
            store.order_len()
        );
    }

    #[test]
    fn dropped_is_exact_under_concurrent_begin_past_capacity() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2 * MAX_ACTIVE as u64;
        let store = Arc::new(InvocationStore::with_capacity(16));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // One binding per thread, all numbering from 0:
                        // distinct keys, so no same-key cancellation and
                        // every begin either stays active or is evicted
                        // into the ring exactly once.
                        store.begin(key(t, i as u32), "flood", "tcp");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("flood thread");
        }
        let total = THREADS * PER_THREAD;
        let active = store.active_len() as u64;
        let in_ring = store.recent().len() as u64;
        // Every record pushed to the ring beyond its capacity bumps
        // `dropped` exactly once, under any interleaving.
        assert_eq!(store.dropped(), total - active - in_ring);
        assert!(active <= MAX_ACTIVE as u64);
    }

    #[test]
    fn rebegin_same_id_cancels_previous() {
        let store = InvocationStore::default();
        store.begin(key(1, 1), "first", "tcp");
        store.begin(key(1, 1), "second", "tcp");
        store.finish(key(1, 1), SpanOutcome::Ok);
        let recent = store.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(&*recent[0].operation, "first");
        assert_eq!(recent[0].outcome, SpanOutcome::Cancelled);
        assert_eq!(&*recent[1].operation, "second");
        assert_eq!(recent[1].outcome, SpanOutcome::Ok);
    }
}
