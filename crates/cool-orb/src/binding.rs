//! Client-side bindings: a connection to a server endpoint plus the
//! request/reply machinery for every invocation mode.
//!
//! A binding owns one [`ComChannel`] and registers a reply demultiplexer
//! as the channel's [`FrameSink`]: the transport's delivery thread pushes
//! each inbound frame straight into the demux, which matches Replies to
//! outstanding requests by id and completes the waiter *on arrival*. There
//! is no demux thread and no poll interval — a synchronous caller blocks
//! on a rendezvous channel with a true deadline and wakes the moment its
//! reply lands (the seed design polled `recv_frame` every 50ms instead).
//! Timing policy (the default call deadline) comes from
//! [`crate::config::OrbConfig`], threaded in via [`Binding::with_config`].
//!
//! On top of this the five invocation styles of the paper's
//! `_DacapoComChannel` (Section 5.2) are provided:
//!
//! * [`Binding::call`] — two-way synchronous invocation;
//! * [`Binding::send`] — one-way, no reply expected;
//! * [`Binding::defer`] — deferred synchronous: returns a
//!   [`DeferredReply`] the caller polls or waits on later;
//! * [`Binding::notify`] — asynchronous: a callback runs on the
//!   transport's delivery thread when the reply arrives (it must not make
//!   a blocking invocation over the same binding — the delivery thread is
//!   the one that would complete it);
//! * [`DeferredReply::cancel`] / [`Binding::cancel`] — abandon a pending
//!   request (sends GIOP `CancelRequest`).

use crate::config::OrbConfig;
use crate::error::OrbError;
use crate::message_layer::cool::CoolMessage;
use crate::message_layer::{giop as giop_helpers, sniff, WireProtocol};
use crate::transport::{ComChannel, FrameSink};
use bytes::Bytes;
use cool_giop::prelude::*;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::{
    names, ClientTrace, Counter, Histogram, InvocationKey, Registry, ServerTraceTiming,
    SpanOutcome, Stage, TraceMark,
};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use multe_qos::{GrantedQoS, TransportRequirements};
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Result of a two-way invocation: reply body plus any granted QoS the
/// server attached.
pub type ReplyResult = Result<(Bytes, Option<GrantedQoS>), OrbError>;

/// Default reply timeout for synchronous calls (the
/// [`OrbConfig::default`] value of `call_timeout`).
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

enum Slot {
    Sync(Sender<ReplyResult>),
    Callback(Box<dyn FnOnce(ReplyResult) + Send>),
}

impl Slot {
    /// A slot for a caller that blocks on the reply, and the receiver it
    /// waits with.
    fn sync() -> (Slot, Receiver<ReplyResult>) {
        let (tx, rx) = bounded(1);
        (Slot::Sync(tx), rx)
    }

    fn complete(self, result: ReplyResult) {
        match self {
            Slot::Sync(tx) => {
                let _ = tx.send(result);
            }
            Slot::Callback(f) => f(result),
        }
    }
}

type PendingMap = Arc<OrderedMutex<HashMap<u32, Slot>>>;

/// Pre-resolved client-side metric handles (one lookup per binding, then
/// relaxed atomics on the hot path), plus the binding id that keys this
/// binding's invocation records.
#[derive(Clone)]
struct ClientMetrics {
    registry: Arc<Registry>,
    binding: u64,
    invocations: Arc<Counter>,
    latency: Arc<Histogram>,
    timeouts: Arc<Counter>,
    reconnects: Arc<Counter>,
    ctx_bytes: Arc<Counter>,
}

impl ClientMetrics {
    fn resolve(registry: Arc<Registry>, transport: &str, binding: u64) -> Self {
        let labels: &[(&str, &str)] = &[("transport", transport)];
        ClientMetrics {
            binding,
            invocations: registry.counter(&Registry::labeled("orb_invocations_total", labels)),
            latency: registry.histogram(&Registry::labeled("orb_invocation_latency_us", labels)),
            timeouts: registry.counter("orb_timeouts_total"),
            reconnects: registry.counter(names::RECONNECTS_TOTAL),
            ctx_bytes: registry.counter(names::SERVICE_CONTEXT_BYTES),
            registry,
        }
    }

    fn key(&self, request_id: u32) -> InvocationKey {
        InvocationKey {
            binding: self.binding,
            request_id,
        }
    }

    fn mark(&self, request_id: u32, stage: Stage, duration: Duration, trace: Option<TraceMark>) {
        self.registry
            .mark(self.key(request_id), stage, duration, trace);
    }

    /// Closes the record of a completed invocation and feeds the
    /// invocation counter + end-to-end latency histogram.
    fn finish_invocation(&self, request_id: u32, result: &ReplyResult) {
        let total_us = self
            .registry
            .finish(self.key(request_id), outcome_of(result));
        self.invocations.inc();
        if matches!(result, Err(OrbError::Timeout { .. })) {
            self.timeouts.inc();
        }
        if result.is_ok() {
            if let Some(total_us) = total_us {
                self.latency.record(total_us);
            }
        }
    }

    /// Closes the record of an invocation that never completed normally —
    /// encode or send failure, cancellation.
    fn abort_invocation(&self, request_id: u32, outcome: SpanOutcome) {
        self.registry.finish(self.key(request_id), outcome);
    }
}

fn outcome_of(result: &ReplyResult) -> SpanOutcome {
    match result {
        Ok(_) => SpanOutcome::Ok,
        Err(OrbError::Cancelled) => SpanOutcome::Cancelled,
        Err(OrbError::Timeout { .. }) => SpanOutcome::Timeout,
        Err(_) => SpanOutcome::Error,
    }
}

/// Hands out process-unique binding ids, so invocation records of
/// bindings that share a registry never collide on a request id.
fn next_binding_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// How a binding re-establishes its transport after the connection dies:
/// a dial closure installed by the ORB (it re-resolves the address and
/// re-wraps the channel exactly as the original dial did).
pub type Reconnector = Arc<dyn Fn() -> Result<Arc<dyn ComChannel>, OrbError> + Send + Sync>;

/// One incarnation of the binding's transport. The closed flag is *per
/// connection* so a stale `on_close` from a replaced channel can never
/// mark its successor dead.
#[derive(Clone)]
struct ConnHandle {
    channel: Arc<dyn ComChannel>,
    closed: Arc<AtomicBool>,
}

/// A client connection to one server endpoint.
pub struct Binding {
    /// Serialises reconnection; held across the whole re-establishment so
    /// concurrent callers observe either the old (closed) or the fully
    /// wired new connection, never a half-built one.
    reconnect_gate: OrderedMutex<()>,
    conn: OrderedMutex<ConnHandle>,
    /// Transport QoS the application last pushed down (via
    /// [`Binding::set_transport_qos`]); replayed onto the new channel after
    /// a reconnect so the renegotiated binding keeps its operating point.
    last_qos: OrderedMutex<Option<TransportRequirements>>,
    protocol: WireProtocol,
    order: ByteOrder,
    next_id: AtomicU32,
    pending: PendingMap,
    /// Permanent shutdown: once set, [`Binding::reconnect`] refuses to
    /// resurrect the binding.
    retired: AtomicBool,
    reconnector: OnceLock<Reconnector>,
    default_timeout: Duration,
    telemetry: Option<ClientMetrics>,
    /// Whether outgoing requests carry a trace service context
    /// ([`OrbConfig::tracing`]); meaningless without telemetry.
    tracing: bool,
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Binding")
            .field("transport", &self.conn.lock().channel.kind())
            .field("protocol", &self.protocol)
            .field("pending", &self.pending.lock().len())
            .finish()
    }
}

/// The reply demultiplexer, installed as the channel's [`FrameSink`].
///
/// Holds only the shared pending map and closed flag — never the channel
/// or the binding — so the `channel → inbox → sink` chain contains no
/// reference cycle.
struct DemuxSink {
    pending: PendingMap,
    closed: Arc<AtomicBool>,
    /// For the `ReplyDecode` mark; the record itself is owned by the
    /// caller that opened it in `call`/`defer`/`notify`.
    telemetry: Option<ClientMetrics>,
}

impl FrameSink for DemuxSink {
    fn on_frame(&self, frame: Bytes) {
        demux_frame(&frame, &self.pending, &self.closed, self.telemetry.as_ref());
    }

    fn on_close(&self) {
        self.closed.store(true, Ordering::Release);
        fail_all(&self.pending, || OrbError::Closed);
    }
}

impl Binding {
    /// Wraps a connected channel with the default configuration.
    pub fn new(channel: Arc<dyn ComChannel>, protocol: WireProtocol) -> Arc<Self> {
        Binding::with_config(channel, protocol, &OrbConfig::default())
    }

    /// Wraps a connected channel and registers the reply demultiplexer as
    /// its frame sink. Timing policy comes from `config`.
    pub fn with_config(
        channel: Arc<dyn ComChannel>,
        protocol: WireProtocol,
        config: &OrbConfig,
    ) -> Arc<Self> {
        let binding = next_binding_id();
        let telemetry = config
            .telemetry
            .as_ref()
            .map(|r| ClientMetrics::resolve(Arc::clone(r), channel.kind(), binding));
        let pending: PendingMap = Arc::new(OrderedMutex::new(
            lock_rank::BINDING_PENDING,
            "binding.pending",
            HashMap::new(),
        ));
        let closed = Arc::new(AtomicBool::new(false));
        install_sink(&channel, &pending, &closed, telemetry.as_ref());
        Arc::new(Binding {
            reconnect_gate: OrderedMutex::new(
                lock_rank::BINDING_RECONNECT,
                "binding.reconnect_gate",
                (),
            ),
            conn: OrderedMutex::new(
                lock_rank::BINDING_CONN,
                "binding.conn",
                ConnHandle { channel, closed },
            ),
            last_qos: OrderedMutex::new(lock_rank::BINDING_LAST_QOS, "binding.last_qos", None),
            protocol,
            order: ByteOrder::Big,
            next_id: AtomicU32::new(1),
            pending,
            retired: AtomicBool::new(false),
            reconnector: OnceLock::new(),
            default_timeout: config.call_timeout,
            telemetry,
            tracing: config.tracing,
        })
    }

    /// Installs the dial closure used by [`Binding::reconnect`]. Set once
    /// by the ORB right after construction; later calls are ignored.
    pub fn set_reconnector(&self, reconnector: Reconnector) {
        let _ = self.reconnector.set(reconnector);
    }

    /// The transport currently below this binding (a snapshot — a
    /// reconnect may swap it at any time).
    pub fn channel(&self) -> Arc<dyn ComChannel> {
        self.conn.lock().channel.clone()
    }

    fn current(&self) -> ConnHandle {
        self.conn.lock().clone()
    }

    /// The message protocol this binding speaks.
    pub fn protocol(&self) -> WireProtocol {
        self.protocol
    }

    /// The configured default deadline for synchronous invocations.
    pub fn default_timeout(&self) -> Duration {
        self.default_timeout
    }

    /// Whether the binding has been closed (permanently retired, or its
    /// current connection died and no reconnect has succeeded yet).
    pub fn is_closed(&self) -> bool {
        self.retired.load(Ordering::Acquire) || self.current().closed.load(Ordering::Acquire)
    }

    /// Pushes transport QoS requirements down the current channel and
    /// remembers them for replay after a reconnect.
    ///
    /// # Errors
    ///
    /// Whatever the transport's `set_qos` raises.
    pub fn set_transport_qos(&self, requirements: &TransportRequirements) -> Result<(), OrbError> {
        let conn = self.current();
        *self.last_qos.lock() = Some(*requirements);
        conn.channel.set_qos(requirements)
    }

    /// Re-establishes the transport after the connection died: fails all
    /// pending requests with an attributed [`OrbError::Closed`], dials a
    /// fresh channel via the installed [`Reconnector`], replays the last
    /// transport QoS, and swaps the connection in.
    ///
    /// Idempotent under concurrency — callers racing on a dead connection
    /// serialise on the reconnect gate, and whoever arrives after a
    /// successful reconnect returns immediately.
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] if the binding was retired or no reconnector
    /// is installed; otherwise the dial or QoS-replay failure.
    pub fn reconnect(&self) -> Result<(), OrbError> {
        if self.retired.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        let _gate = self.reconnect_gate.lock();
        if !self.current().closed.load(Ordering::Acquire) {
            return Ok(()); // someone else already reconnected
        }
        let reconnector = self.reconnector.get().ok_or(OrbError::Closed)?.clone();
        // Pending requests belonged to the dead connection; fail them now,
        // attributed, instead of letting them run out their deadlines.
        fail_all(&self.pending, || OrbError::Closed);
        let channel = reconnector()?;
        let closed = Arc::new(AtomicBool::new(false));
        install_sink(&channel, &self.pending, &closed, self.telemetry.as_ref());
        if let Some(requirements) = *self.last_qos.lock() {
            channel.set_qos(&requirements)?;
        }
        *self.conn.lock() = ConnHandle { channel, closed };
        if let Some(t) = &self.telemetry {
            t.reconnects.inc();
            t.registry.flight_event(
                flight_event::RECONNECT,
                None,
                format!("channel {} redialed", self.current().channel.kind()),
            );
        }
        Ok(())
    }

    fn next_request_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_request(
        &self,
        request_id: u32,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
        response_expected: bool,
        started: Instant,
    ) -> Result<(Bytes, Option<ClientTrace>), OrbError> {
        match self.protocol {
            WireProtocol::Giop => {
                // With telemetry enabled (and tracing not switched off in
                // the config) every GIOP request carries a trace service
                // context: a fresh trace id plus the client's send
                // timestamp, so the server can join its half of the span
                // (DESIGN.md §6). Otherwise nothing is attached and the
                // wire bytes are identical to the untraced build. The
                // client half is returned to the caller, which attaches it
                // to the record while marking `Marshal` — one lock for both.
                let trace = self.telemetry.as_ref().filter(|_| self.tracing).map(|t| {
                    let trace_id = cool_telemetry::next_trace_id();
                    let sent_mono = Instant::now();
                    let sent_at_ns = cool_telemetry::now_wall_ns();
                    let ctx = RequestTraceContext {
                        trace_id,
                        sent_at_ns,
                        marshal_us: cool_telemetry::duration_as_u32_us(
                            sent_mono.saturating_duration_since(started),
                        ),
                    };
                    t.ctx_bytes.add(RequestTraceContext::WIRE_LEN as u64);
                    (
                        ctx,
                        ClientTrace {
                            trace_id,
                            sent_at_ns,
                            sent_mono,
                        },
                    )
                });
                let (ctx, client) = match trace {
                    Some((ctx, client)) => (Some(ctx), Some(client)),
                    None => (None, None),
                };
                giop_helpers::make_request(
                    request_id,
                    object_key,
                    operation,
                    args,
                    qos_params.to_vec(),
                    response_expected,
                    ctx.as_ref(),
                    self.order,
                )
                .map(|frame| (frame, client))
            }
            WireProtocol::Cool => {
                if !qos_params.is_empty() {
                    return Err(OrbError::Protocol(
                        "the cool message protocol carries no qos parameters; use giop".into(),
                    ));
                }
                Ok((
                    CoolMessage::Request {
                        request_id,
                        object_key: object_key.to_vec(),
                        operation: operation.to_owned(),
                        one_way: !response_expected,
                        args,
                    }
                    .encode(),
                    None,
                ))
            }
        }
    }

    /// The send sequence every invocation style shares: open the record,
    /// encode, mark `Marshal`, register `slot` under the request id, send
    /// the frame, mark `FrameSend`. No slot means one-way. On failure the
    /// slot is withdrawn and the record closed as `Error`. Returns the
    /// request id and the channel the request went out on.
    fn send_request(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
        slot: Option<Slot>,
    ) -> Result<(u32, Arc<dyn ComChannel>), OrbError> {
        if self.is_closed() {
            return Err(OrbError::Closed);
        }
        let conn = self.current();
        let start = Instant::now();
        let request_id = self.next_request_id();
        let t = self.telemetry.as_ref();
        if let Some(t) = t {
            t.registry
                .begin(t.key(request_id), operation, conn.channel.kind());
        }
        let sent = self
            .encode_request(
                request_id,
                object_key,
                operation,
                args,
                qos_params,
                slot.is_some(),
                start,
            )
            .and_then(|(frame, trace)| {
                if let Some(t) = t {
                    t.mark(
                        request_id,
                        Stage::Marshal,
                        start.elapsed(),
                        trace.map(TraceMark::Sent),
                    );
                }
                if let Some(slot) = slot {
                    // With telemetry on, a callback is wrapped so the record
                    // closes (and the invocation counters tick) before the
                    // user code runs — still on the delivery thread.
                    let slot = match (slot, t) {
                        (Slot::Callback(callback), Some(t)) => {
                            let t = t.clone();
                            Slot::Callback(Box::new(move |result: ReplyResult| {
                                t.finish_invocation(request_id, &result);
                                callback(result);
                            }))
                        }
                        (slot, _) => slot,
                    };
                    self.pending.lock().insert(request_id, slot);
                }
                let send_start = Instant::now();
                conn.channel.send_frame(frame).inspect_err(|_| {
                    self.pending.lock().remove(&request_id);
                })?;
                if let Some(t) = t {
                    t.mark(request_id, Stage::FrameSend, send_start.elapsed(), None);
                }
                Ok(())
            });
        match sent {
            Ok(()) => Ok((request_id, conn.channel)),
            Err(e) => {
                if let Some(t) = t {
                    t.abort_invocation(request_id, SpanOutcome::Error);
                }
                Err(e)
            }
        }
    }

    /// Two-way synchronous invocation.
    ///
    /// # Errors
    ///
    /// [`OrbError::Timeout`] if no reply arrives in `timeout`; any
    /// exception the server raised; [`OrbError::Closed`] on teardown.
    pub fn call(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
        timeout: Duration,
    ) -> ReplyResult {
        let start = Instant::now();
        let (slot, rx) = Slot::sync();
        let (request_id, _) = self.send_request(object_key, operation, args, qos_params, Some(slot))?;
        // A true blocking wait: the delivery thread completes the slot the
        // moment the matching Reply frame arrives.
        let result = match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                self.pending.lock().remove(&request_id);
                Err(OrbError::request_timeout(request_id, start.elapsed()))
            }
            Err(RecvTimeoutError::Disconnected) => Err(OrbError::Closed),
        };
        if let Some(t) = &self.telemetry {
            t.finish_invocation(request_id, &result);
        }
        result
    }

    /// One-way invocation: returns as soon as the request is on the wire.
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] or transport failures; server-side errors are
    /// invisible by design.
    pub fn send(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
    ) -> Result<(), OrbError> {
        let (request_id, _) = self.send_request(object_key, operation, args, qos_params, None)?;
        if let Some(t) = &self.telemetry {
            // One-way: the record ends once the request is on the wire.
            t.registry.finish(t.key(request_id), SpanOutcome::Ok);
            t.invocations.inc();
        }
        Ok(())
    }

    /// Deferred synchronous invocation: the reply is collected later via
    /// the returned [`DeferredReply`].
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] or transport failures at send time.
    pub fn defer(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
    ) -> Result<DeferredReply, OrbError> {
        let (slot, rx) = Slot::sync();
        let (request_id, channel) =
            self.send_request(object_key, operation, args, qos_params, Some(slot))?;
        Ok(DeferredReply {
            request_id,
            rx,
            pending: self.pending.clone(),
            channel,
            order: self.order,
            done: false,
            ready: None,
            telemetry: self.telemetry.clone(),
        })
    }

    /// Asynchronous invocation: `callback` runs (on the transport's
    /// delivery thread) when the reply or an error arrives.
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] or transport failures at send time.
    pub fn notify(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
        callback: impl FnOnce(ReplyResult) + Send + 'static,
    ) -> Result<u32, OrbError> {
        let slot = Slot::Callback(Box::new(callback));
        self.send_request(object_key, operation, args, qos_params, Some(slot))
            .map(|(request_id, _)| request_id)
    }

    /// Cancels a pending request: notifies the server (GIOP
    /// `CancelRequest`) and completes the local waiter with
    /// [`OrbError::Cancelled`].
    ///
    /// Returns whether the request was still pending.
    pub fn cancel(&self, request_id: u32) -> bool {
        let slot = self.pending.lock().remove(&request_id);
        let was_pending = slot.is_some();
        if let Some(slot) = slot {
            slot.complete(Err(OrbError::Cancelled));
        }
        if was_pending && self.protocol == WireProtocol::Giop {
            let msg = Message::CancelRequest { request_id };
            if let Ok(frame) = encode_message(&msg, GiopVersion::STANDARD, self.order) {
                let _ = self.current().channel.send_frame(frame);
            }
        }
        was_pending
    }

    /// Closes the binding permanently; all pending requests complete with
    /// [`OrbError::Closed`] and [`Binding::reconnect`] refuses to revive
    /// it.
    pub fn close(&self) {
        self.retired.store(true, Ordering::Release);
        let conn = self.current();
        conn.closed.store(true, Ordering::Release);
        // Closing the channel fires the sink's `on_close`, which also
        // fails the pending map; doing it here too covers transports whose
        // teardown is asynchronous. `fail_all` drains, so slots complete
        // exactly once.
        conn.channel.close();
        fail_all(&self.pending, || OrbError::Closed);
    }
}

impl Drop for Binding {
    fn drop(&mut self) {
        self.close();
    }
}

/// Wires a (possibly fresh) channel to the binding's demultiplexer with
/// its own per-connection closed flag.
fn install_sink(
    channel: &Arc<dyn ComChannel>,
    pending: &PendingMap,
    closed: &Arc<AtomicBool>,
    telemetry: Option<&ClientMetrics>,
) {
    channel.set_sink(Arc::new(DemuxSink {
        pending: pending.clone(),
        closed: closed.clone(),
        telemetry: telemetry.cloned(),
    }));
}

fn fail_all(pending: &PendingMap, err: impl Fn() -> OrbError) {
    let slots: Vec<Slot> = pending.lock().drain().map(|(_, s)| s).collect();
    for slot in slots {
        slot.complete(Err(err()));
    }
}

/// Demultiplexes one inbound frame into the pending map. Runs on the
/// transport's delivery thread. With telemetry, replies that match a
/// pending request get a `ReplyDecode` mark covering the sniff + decode +
/// interpret work before the waiter is completed.
fn demux_frame(
    frame: &Bytes,
    pending: &PendingMap,
    closed: &AtomicBool,
    telemetry: Option<&ClientMetrics>,
) {
    let decode_start = Instant::now();
    let mark_decode = |request_id: u32, echoed: Option<TraceMark>| {
        if let Some(t) = telemetry {
            t.mark(
                request_id,
                Stage::ReplyDecode,
                decode_start.elapsed(),
                echoed,
            );
        }
    };
    let Ok(protocol) = sniff(frame) else {
        return; // unknown frame: ignore
    };
    match protocol {
        // GIOP frames self-delimit, so an inbound transport frame may be a
        // batch of several (a batching peer); split unconditionally — a
        // non-batched frame yields exactly itself, zero-copy.
        WireProtocol::Giop => {
            for sub in cool_giop::codec::split_frames(frame) {
                let Ok(sub) = sub else { break };
                match Message::decode_frame(&sub) {
                    Ok((Message::Reply { header, body }, _, order)) => {
                        let slot = pending.lock().remove(&header.request_id);
                        if let Some(slot) = slot {
                            let result = giop_helpers::interpret_reply(&header, &body, order);
                            // A traced server echoes its half in a reply
                            // service context; the record joins it into
                            // its server stages and wire gaps under the
                            // decode mark's lock. The reply's arrival
                            // instant stands in for the client receive
                            // stamp, derived against the send stamp.
                            let echoed = telemetry
                                .and_then(|_| ReplyTraceContext::from_list(&header.service_context))
                                .map(|ctx| {
                                    let server = ServerTraceTiming {
                                        recv_at_ns: ctx.recv_at_ns,
                                        sent_at_ns: ctx.sent_at_ns,
                                        queue_wait_us: ctx.queue_wait_us,
                                        negotiate_us: ctx.negotiate_us,
                                        execute_us: ctx.execute_us,
                                    };
                                    TraceMark::Echoed(server, decode_start)
                                });
                            mark_decode(header.request_id, echoed);
                            slot.complete(result);
                        }
                    }
                    Ok((Message::CloseConnection, _, _)) => {
                        closed.store(true, Ordering::Release);
                        fail_all(pending, || OrbError::Closed);
                    }
                    Ok(_) | Err(_) => {}
                }
            }
        }
        WireProtocol::Cool => match CoolMessage::decode(frame) {
            Ok(CoolMessage::Reply { request_id, body }) => {
                let slot = pending.lock().remove(&request_id);
                if let Some(slot) = slot {
                    mark_decode(request_id, None);
                    slot.complete(Ok((body, None)));
                }
            }
            Ok(CoolMessage::Exception {
                request_id,
                kind,
                detail,
            }) => {
                let slot = pending.lock().remove(&request_id);
                if let Some(slot) = slot {
                    mark_decode(request_id, None);
                    let err = match kind.as_str() {
                        "ObjectNotFound" => OrbError::ObjectNotFound(detail),
                        "OperationUnknown" => {
                            let (object, operation) =
                                detail.split_once('/').unwrap_or((detail.as_str(), ""));
                            OrbError::OperationUnknown {
                                object: object.to_owned(),
                                operation: operation.to_owned(),
                            }
                        }
                        _ => OrbError::Protocol(format!("cool exception {kind}: {detail}")),
                    };
                    slot.complete(Err(err));
                }
            }
            Ok(CoolMessage::Request { .. }) | Err(_) => {}
        },
    }
}

/// Handle to a deferred-synchronous invocation.
pub struct DeferredReply {
    request_id: u32,
    rx: Receiver<ReplyResult>,
    pending: PendingMap,
    channel: Arc<dyn ComChannel>,
    order: ByteOrder,
    done: bool,
    /// A reply observed by `poll` is stashed here so a later `wait` (or
    /// another `poll`) still returns it — with event-driven delivery a
    /// reply can land microseconds after the request is sent, making
    /// poll-then-wait a common interleaving rather than a rare race.
    ready: Option<ReplyResult>,
    telemetry: Option<ClientMetrics>,
}

impl std::fmt::Debug for DeferredReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredReply")
            .field("request_id", &self.request_id)
            .field("done", &self.done)
            .finish()
    }
}

impl DeferredReply {
    /// The id of the pending request.
    pub fn request_id(&self) -> u32 {
        self.request_id
    }

    /// Returns the reply if it has arrived (non-blocking). The reply is
    /// retained: a subsequent `poll` or [`DeferredReply::wait`] returns it
    /// again, so discarding one poll's result loses nothing.
    pub fn poll(&mut self) -> Option<ReplyResult> {
        if self.ready.is_none() {
            if let Ok(result) = self.rx.try_recv() {
                self.done = true;
                if let Some(t) = &self.telemetry {
                    t.finish_invocation(self.request_id, &result);
                }
                self.ready = Some(result);
            }
        }
        self.ready.clone()
    }

    /// Blocks for the reply.
    ///
    /// # Errors
    ///
    /// [`OrbError::Timeout`] on expiry; otherwise whatever the invocation
    /// produced.
    pub fn wait(mut self, timeout: Duration) -> ReplyResult {
        if let Some(result) = self.ready.take() {
            return result;
        }
        let wait_start = Instant::now();
        let result = match self.rx.recv_timeout(timeout) {
            Ok(result) => {
                self.done = true;
                result
            }
            Err(RecvTimeoutError::Timeout) => {
                self.pending.lock().remove(&self.request_id);
                self.done = true;
                Err(OrbError::request_timeout(
                    self.request_id,
                    wait_start.elapsed(),
                ))
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.done = true;
                Err(OrbError::Closed)
            }
        };
        if let Some(t) = &self.telemetry {
            t.finish_invocation(self.request_id, &result);
        }
        result
    }

    /// Cancels the pending request (sends GIOP `CancelRequest`).
    pub fn cancel(mut self) {
        self.done = true;
        if self.pending.lock().remove(&self.request_id).is_some() {
            if let Some(t) = &self.telemetry {
                t.abort_invocation(self.request_id, SpanOutcome::Cancelled);
            }
            let msg = Message::CancelRequest {
                request_id: self.request_id,
            };
            if let Ok(frame) = encode_message(&msg, GiopVersion::STANDARD, self.order) {
                let _ = self.channel.send_frame(frame);
            }
        }
    }
}

impl Drop for DeferredReply {
    fn drop(&mut self) {
        if !self.done {
            // Abandoned without waiting: drop the slot so the pending map
            // does not hold a dead sender forever.
            self.pending.lock().remove(&self.request_id);
            if let Some(t) = &self.telemetry {
                t.abort_invocation(self.request_id, SpanOutcome::Cancelled);
            }
        }
    }
}
