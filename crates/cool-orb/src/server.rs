//! The server side of the ORB: blocking acceptors, push-mode connection
//! sinks, and a shared dispatcher pool.
//!
//! ## Threading model
//!
//! The seed design gave every accepted channel a worker thread that
//! re-polled `recv_frame` on a 50ms interval and served requests inline —
//! one request at a time per connection (head-of-line blocking). This
//! implementation is event-driven end to end:
//!
//! * **Acceptors block.** The TCP acceptor sits in `listener.accept()`
//!   (woken at shutdown by a loopback self-connect); the exchange acceptor
//!   sits in a blocking queue `recv` (woken by the exchange dropping its
//!   sender on `unlisten`). No accept poll.
//! * **Each connection registers a [`ConnSink`]** as its channel's
//!   [`FrameSink`]: the transport's delivery thread decodes each frame the
//!   moment it arrives and either answers protocol chatter inline
//!   (`LocateRequest`, `CancelRequest`) or enqueues the decoded Request on
//!   the shared dispatcher queue.
//! * **A shared pool of dispatcher threads** (size
//!   [`OrbConfig::dispatcher_threads`]) executes requests and marshals
//!   replies. Requests pipelined on one connection run *concurrently*;
//!   replies are matched by request id, so out-of-order completion is
//!   fine. The queue is bounded ([`OrbConfig::dispatch_queue_depth`]):
//!   when servants fall behind, delivery threads block on enqueue and
//!   backpressure reaches the peer instead of buffering without bound.
//!
//! Per-connection `CancelRequest` bookkeeping is bounded too
//! ([`OrbConfig::cancel_history`]): cancels for requests that never arrive
//! evict oldest-first rather than growing a set forever.

use crate::adapter::{DispatchOutcome, ObjectAdapter};
use crate::config::OrbConfig;
use crate::error::OrbError;
use crate::exchange::{Inbound, LocalExchange};
use crate::message_layer::cool::CoolMessage;
use crate::message_layer::{giop as giop_helpers, sniff, WireProtocol};
use crate::object::{ObjectKey, ObjectRef, OrbAddr};
use crate::transport::{BatchingChannel, ComChannel, FrameSink, TcpComChannel};
use bytes::Bytes;
use cool_giop::prelude::*;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::trace::duration_as_u32_us;
use cool_telemetry::{names, Counter, Gauge, Histogram, Registry};
use crossbeam::channel::{bounded, Receiver, Sender};
use multe_qos::QoSSpec;
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running ORB endpoint serving objects from an adapter.
pub struct OrbServer {
    addr: OrbAddr,
    adapter: Arc<ObjectAdapter>,
    shutdown: Arc<AtomicBool>,
    acceptor: OrderedMutex<Option<JoinHandle<()>>>,
    dispatchers: OrderedMutex<Vec<JoinHandle<()>>>,
    /// Dropped at close so dispatchers see disconnection once every
    /// connection sink has released its clone.
    jobs_tx: OrderedMutex<Option<Sender<Job>>>,
    conns: Arc<OrderedMutex<Vec<Weak<ConnState>>>>,
    exchange_binding: Option<(LocalExchange, &'static str, String)>,
    /// Bound TCP address used for the shutdown self-connect that pops the
    /// acceptor out of its blocking `accept()`.
    wake_addr: Option<std::net::SocketAddr>,
    /// While set, connection sinks refuse *new* Requests (drained clients
    /// see a timeout and may retry elsewhere) but replies for accepted
    /// work still flow.
    draining: Arc<AtomicBool>,
    /// Counts accepted-but-unfinished requests, so a graceful shutdown can
    /// wait for the pipeline to empty.
    tracker: Arc<JobTracker>,
}

impl std::fmt::Debug for OrbServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrbServer")
            .field("addr", &self.addr.to_string())
            .finish()
    }
}

impl OrbServer {
    /// Starts a TCP endpoint. `addr` may use port 0; the actual bound
    /// address is reported by [`OrbServer::addr`].
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if binding fails or a server thread cannot
    /// be spawned.
    pub fn start_tcp(
        adapter: Arc<ObjectAdapter>,
        addr: &str,
        config: &OrbConfig,
    ) -> Result<Self, OrbError> {
        let listener = TcpComChannel::listen(addr)?;
        let local = listener
            .local_addr()
            .map_err(|e| OrbError::Transport(format!("local addr: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<OrderedMutex<Vec<Weak<ConnState>>>> = Arc::new(OrderedMutex::new(
            lock_rank::SERVER_CONNS,
            "server.conns",
            Vec::new(),
        ));
        let (jobs_tx, dispatchers) = start_dispatchers(adapter.clone(), config)?;
        let draining = Arc::new(AtomicBool::new(false));
        let tracker = JobTracker::new();

        let flag = shutdown.clone();
        let acceptor_adapter = adapter.clone();
        let acceptor_conns = conns.clone();
        let acceptor_jobs = jobs_tx.clone();
        let acceptor_draining = draining.clone();
        let acceptor_tracker = tracker.clone();
        let cancel_cap = config.cancel_history;
        let telemetry = config.telemetry.clone();
        let batching = config.batching;
        let acceptor = std::thread::Builder::new()
            .name("cool-tcp-acceptor".into())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if flag.load(Ordering::Acquire) {
                            return; // shutdown self-connect (or a late client)
                        }
                        if let Ok(channel) =
                            TcpComChannel::from_stream_with(stream, telemetry.as_deref())
                        {
                            // Reply-side coalescing, mirroring the client.
                            let channel: Arc<dyn ComChannel> = Arc::new(channel);
                            let channel = match batching {
                                Some(policy) => {
                                    BatchingChannel::wrap_with(channel, policy, telemetry.as_ref())
                                }
                                None => channel,
                            };
                            attach_connection(
                                channel,
                                acceptor_adapter.clone(),
                                acceptor_jobs.clone(),
                                &acceptor_conns,
                                cancel_cap,
                                acceptor_draining.clone(),
                                acceptor_tracker.clone(),
                            );
                        }
                    }
                    Err(_) => return,
                }
            })
            .map_err(|e| OrbError::Transport(format!("spawn acceptor: {e}")))?;

        Ok(OrbServer {
            addr: OrbAddr::Tcp(local.to_string()),
            adapter,
            shutdown,
            acceptor: OrderedMutex::new(lock_rank::SERVER_ACCEPTOR, "server.acceptor", Some(acceptor)),
            dispatchers: OrderedMutex::new(lock_rank::SERVER_DISPATCHERS, "server.dispatchers", dispatchers),
            jobs_tx: OrderedMutex::new(lock_rank::SERVER_JOBS_TX, "server.jobs_tx", Some(jobs_tx)),
            conns,
            exchange_binding: None,
            wake_addr: Some(local),
            draining,
            tracker,
        })
    }

    /// Starts an endpoint fed by a [`LocalExchange`] acceptor queue
    /// (Chorus or Da CaPo transports).
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if a server thread cannot be spawned.
    pub fn start_exchange(
        adapter: Arc<ObjectAdapter>,
        addr: OrbAddr,
        acceptor: Receiver<Inbound>,
        exchange: LocalExchange,
        config: &OrbConfig,
    ) -> Result<Self, OrbError> {
        let scheme = match &addr {
            OrbAddr::Chorus(_) => "chorus",
            OrbAddr::Dacapo(_) => "dacapo",
            OrbAddr::Tcp(_) => "tcp",
        };
        let name = addr.target().to_owned();
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<OrderedMutex<Vec<Weak<ConnState>>>> = Arc::new(OrderedMutex::new(
            lock_rank::SERVER_CONNS,
            "server.conns",
            Vec::new(),
        ));
        let (jobs_tx, dispatchers) = start_dispatchers(adapter.clone(), config)?;
        let draining = Arc::new(AtomicBool::new(false));
        let tracker = JobTracker::new();

        let flag = shutdown.clone();
        let acceptor_adapter = adapter.clone();
        let acceptor_conns = conns.clone();
        let acceptor_jobs = jobs_tx.clone();
        let acceptor_draining = draining.clone();
        let acceptor_tracker = tracker.clone();
        let cancel_cap = config.cancel_history;
        let batching = config.batching;
        let telemetry = config.telemetry.clone();
        let handle = std::thread::Builder::new()
            .name("cool-exchange-acceptor".into())
            // Blocking recv: `unlisten` drops the exchange's sender, which
            // disconnects this receiver and ends the thread — no poll.
            .spawn(move || {
                while let Ok(channel) = acceptor.recv() {
                    if flag.load(Ordering::Acquire) {
                        channel.close(); // connector raced the shutdown
                        continue;
                    }
                    // Reply-side coalescing, mirroring the client.
                    let channel = match batching {
                        Some(policy) => {
                            BatchingChannel::wrap_with(channel, policy, telemetry.as_ref())
                        }
                        None => channel,
                    };
                    attach_connection(
                        channel,
                        acceptor_adapter.clone(),
                        acceptor_jobs.clone(),
                        &acceptor_conns,
                        cancel_cap,
                        acceptor_draining.clone(),
                        acceptor_tracker.clone(),
                    );
                }
            })
            .map_err(|e| OrbError::Transport(format!("spawn exchange acceptor: {e}")))?;

        Ok(OrbServer {
            addr,
            adapter,
            shutdown,
            acceptor: OrderedMutex::new(lock_rank::SERVER_ACCEPTOR, "server.acceptor", Some(handle)),
            dispatchers: OrderedMutex::new(lock_rank::SERVER_DISPATCHERS, "server.dispatchers", dispatchers),
            jobs_tx: OrderedMutex::new(lock_rank::SERVER_JOBS_TX, "server.jobs_tx", Some(jobs_tx)),
            conns,
            exchange_binding: Some((exchange, scheme, name)),
            wake_addr: None,
            draining,
            tracker,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> &OrbAddr {
        &self.addr
    }

    /// The adapter serving this endpoint.
    pub fn adapter(&self) -> &Arc<ObjectAdapter> {
        &self.adapter
    }

    /// Builds an object reference for a key served here.
    pub fn object_ref(&self, key: impl Into<ObjectKey>) -> ObjectRef {
        ObjectRef::new(self.addr.clone(), key)
    }

    /// Graceful shutdown: stops taking *new* requests, waits up to
    /// `drain_timeout` for every accepted request to finish (replies
    /// included), then closes. Returns whether the pipeline drained fully
    /// in time; `false` means in-flight work was cut off by [`close`].
    ///
    /// [`close`]: OrbServer::close
    pub fn shutdown_graceful(&self, drain_timeout: Duration) -> bool {
        self.draining.store(true, Ordering::Release);
        let drained = self.tracker.wait_idle(drain_timeout);
        self.close();
        drained
    }

    /// Stops accepting and serving. Idempotent.
    pub fn close(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // 1. Stop the intake: unregister from the exchange (drops the
        //    acceptor queue's sender) or poke the blocking TCP accept.
        if let Some((exchange, scheme, name)) = &self.exchange_binding {
            exchange.unlisten(scheme, name);
        }
        if let Some(addr) = self.wake_addr {
            // Bounded poke: the accept loop is local, so a second is ample;
            // an unbounded connect here could wedge close() behind a
            // half-dead loopback stack.
            let _ = std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(1));
        }
        // Take the handle out first, then join with the lock released: a
        // join under `server.acceptor` would stall any thread touching the
        // handle slot for as long as the accept loop takes to notice.
        let acceptor = self.acceptor.lock().take();
        if let Some(h) = acceptor {
            let _ = h.join();
        }
        // 2. Orderly GIOP shutdown: tell each peer before going away so
        //    clients fail outstanding work immediately instead of timing
        //    out (Figure 2-i's CloseConnection message). Closing the
        //    channel also releases its sink (and that sink's queue handle).
        //    Drain the list under the lock, write to sockets without it —
        //    send_frame can block on a slow peer, and connection teardown
        //    paths take `server.conns` too.
        let conns: Vec<_> = self.conns.lock().drain(..).collect();
        for weak in conns {
            if let Some(conn) = weak.upgrade() {
                if let Ok(frame) = encode_message(
                    &Message::CloseConnection,
                    GiopVersion::STANDARD,
                    ByteOrder::Big,
                ) {
                    let _ = conn.channel.send_frame(frame);
                }
                conn.channel.close();
            }
        }
        // 3. With every sender gone, dispatchers drain the queue and exit.
        //    Same discipline: collect the handles, join unlocked, so a
        //    dispatcher still executing a servant never waits on a thread
        //    that holds `server.dispatchers`.
        self.jobs_tx.lock().take();
        let dispatchers: Vec<_> = self.dispatchers.lock().drain(..).collect();
        for t in dispatchers {
            let _ = t.join();
        }
    }
}

impl Drop for OrbServer {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// Connections and the dispatcher pool
// ---------------------------------------------------------------------------

/// Counts requests between acceptance (enqueue on the dispatcher queue)
/// and completion, with a condvar wait for the drain in
/// [`OrbServer::shutdown_graceful`]. Guard-based: a [`JobGuard`] rides in
/// the [`Job`] itself, so a job dropped unexecuted (dispatchers exiting)
/// still counts down.
struct JobTracker {
    active: parking_lot::Mutex<usize>,
    idle: parking_lot::Condvar,
}

impl JobTracker {
    fn new() -> Arc<Self> {
        Arc::new(JobTracker {
            active: parking_lot::Mutex::new(0),
            idle: parking_lot::Condvar::new(),
        })
    }

    fn track(self: &Arc<Self>) -> JobGuard {
        *self.active.lock() += 1;
        JobGuard(Arc::clone(self))
    }

    /// Blocks until no request is in flight, or `timeout` elapses.
    /// Returns whether the pipeline is idle.
    fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut active = self.active.lock();
        while *active > 0 {
            if self.idle.wait_until(&mut active, deadline).timed_out() {
                return *active == 0;
            }
        }
        true
    }
}

struct JobGuard(Arc<JobTracker>);

impl Drop for JobGuard {
    fn drop(&mut self) {
        let mut active = self.0.active.lock();
        *active = active.saturating_sub(1);
        if *active == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// Per-connection server state, shared between the connection's sink and
/// any in-flight dispatcher jobs.
struct ConnState {
    channel: Arc<dyn ComChannel>,
    cancelled: OrderedMutex<CancelSet>,
}

/// Bounded memory of `CancelRequest` ids (oldest evicted first), so a
/// client spraying cancels for requests that never arrive cannot grow
/// server state without limit.
struct CancelSet {
    ids: HashSet<u32>,
    order: VecDeque<u32>,
    cap: usize,
}

impl CancelSet {
    fn new(cap: usize) -> Self {
        CancelSet {
            ids: HashSet::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    fn insert(&mut self, id: u32) {
        if self.ids.insert(id) {
            self.order.push_back(id);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.ids.remove(&old);
                }
            }
        }
    }

    fn remove(&mut self, id: u32) -> bool {
        // A stale id may linger in `order` until evicted; both structures
        // stay bounded by `cap` regardless.
        self.ids.remove(&id)
    }
}

/// Pre-resolved dispatcher-pool metric handles, shared by all dispatcher
/// threads of one server.
#[derive(Clone)]
struct ServerMetrics {
    registry: Arc<Registry>,
    queue_depth: Arc<Gauge>,
    busy: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
    trace_joins: Arc<Counter>,
    ctx_bytes: Arc<Counter>,
    /// Deepest dispatcher queue seen so far; a new maximum lands in the
    /// flight recorder (the ring keeps high-water marks, not every sample).
    queue_high_water: Arc<AtomicUsize>,
    /// Whether this server joins inbound distributed traces
    /// ([`OrbConfig::tracing`]); off means requests are answered without
    /// a reply trace context even when the client sent one.
    tracing: bool,
}

impl ServerMetrics {
    fn resolve(registry: Arc<Registry>, tracing: bool) -> Self {
        ServerMetrics {
            queue_depth: registry.gauge("orb_dispatch_queue_depth"),
            busy: registry.gauge("orb_dispatchers_busy"),
            queue_wait: registry.histogram("orb_dispatch_queue_wait_us"),
            trace_joins: registry.counter(names::TRACE_JOINS_TOTAL),
            ctx_bytes: registry.counter(names::SERVICE_CONTEXT_BYTES),
            queue_high_water: Arc::new(AtomicUsize::new(0)),
            registry,
            tracing,
        }
    }

    /// Records the queue depth observed at dequeue; a fresh high-water
    /// mark becomes a flight-recorder event.
    fn note_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as f64);
        if depth > 0 && depth > self.queue_high_water.fetch_max(depth, Ordering::Relaxed) {
            self.registry.flight_event(
                flight_event::QUEUE_HIGH_WATER,
                None,
                format!("dispatch queue depth reached {depth}"),
            );
        }
    }
}

/// A decoded request handed to the dispatcher pool.
struct Job {
    conn: Arc<ConnState>,
    work: Work,
    /// When the delivery thread queued this request — the dispatcher
    /// measures queue wait from it.
    enqueued: Instant,
    /// Keeps the server's drain accounting exact: dropped on completion
    /// *or* when the job dies unexecuted in a closing queue.
    _guard: JobGuard,
}

enum Work {
    Giop {
        header: RequestHeader,
        body: Bytes,
        version: GiopVersion,
        order: ByteOrder,
        /// Wall clock captured at decode when the request carried a trace
        /// service context — the server half's `recv_at_ns`. `None` for
        /// untraced requests (no clock read on that path).
        recv_at_ns: Option<u64>,
    },
    Cool {
        request_id: u32,
        object_key: Vec<u8>,
        operation: String,
        one_way: bool,
        args: Bytes,
    },
}

/// The per-connection [`FrameSink`]: decodes frames on the transport's
/// delivery thread and feeds the shared dispatcher queue.
///
/// Holds the connection state behind an `Option` cleared on close, so the
/// `channel → inbox → sink → ConnState → channel` loop is broken the
/// moment the connection ends.
struct ConnSink {
    conn: OrderedMutex<Option<Arc<ConnState>>>,
    adapter: Arc<ObjectAdapter>,
    jobs: Sender<Job>,
    draining: Arc<AtomicBool>,
    tracker: Arc<JobTracker>,
}

impl FrameSink for ConnSink {
    fn on_frame(&self, frame: Bytes) {
        let Some(conn) = self.conn.lock().clone() else {
            return;
        };
        let keep = process_frame(
            &conn,
            &self.adapter,
            &self.jobs,
            &frame,
            &self.draining,
            &self.tracker,
        );
        if !keep {
            self.conn.lock().take();
            conn.channel.close();
        }
    }

    fn on_close(&self) {
        if let Some(conn) = self.conn.lock().take() {
            conn.channel.close();
        }
    }
}

fn start_dispatchers(
    adapter: Arc<ObjectAdapter>,
    config: &OrbConfig,
) -> Result<(Sender<Job>, Vec<JoinHandle<()>>), OrbError> {
    let (tx, rx) = bounded::<Job>(config.dispatch_queue_depth.max(1));
    let metrics = config
        .telemetry
        .as_ref()
        .map(|r| ServerMetrics::resolve(Arc::clone(r), config.tracing));
    let mut handles = Vec::new();
    for i in 0..config.dispatcher_threads.max(1) {
        let rx = rx.clone();
        let adapter = adapter.clone();
        let metrics = metrics.clone();
        let handle = std::thread::Builder::new()
            .name(format!("cool-dispatch-{i}"))
            // Blocking recv; ends when every sender (server handle,
            // acceptor, connection sinks) is gone.
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match &metrics {
                        Some(m) => {
                            // Sampled at dequeue: what is still waiting
                            // behind the job this thread just took.
                            m.note_queue_depth(rx.len());
                            let waited = job.enqueued.elapsed();
                            m.queue_wait.record_duration_us(waited);
                            m.busy.inc();
                            run_job(&adapter, job, Some(m));
                            m.busy.dec();
                        }
                        None => run_job(&adapter, job, None),
                    }
                }
            })
            .map_err(|e| OrbError::Transport(format!("spawn dispatcher: {e}")))?;
        handles.push(handle);
    }
    Ok((tx, handles))
}

fn attach_connection(
    channel: Arc<dyn ComChannel>,
    adapter: Arc<ObjectAdapter>,
    jobs: Sender<Job>,
    conns: &Arc<OrderedMutex<Vec<Weak<ConnState>>>>,
    cancel_cap: usize,
    draining: Arc<AtomicBool>,
    tracker: Arc<JobTracker>,
) {
    let conn = Arc::new(ConnState {
        channel: channel.clone(),
        cancelled: OrderedMutex::new(lock_rank::SERVER_CONN_CANCELLED, "server.conn.cancelled", CancelSet::new(cancel_cap)),
    });
    {
        let mut list = conns.lock();
        list.retain(|w| w.strong_count() > 0);
        list.push(Arc::downgrade(&conn));
    }
    channel.set_sink(Arc::new(ConnSink {
        conn: OrderedMutex::new(lock_rank::SERVER_SINK_CONN, "server.sink.conn", Some(conn)),
        adapter,
        jobs,
        draining,
        tracker,
    }));
}

/// Handles one inbound frame on the delivery thread; `false` ends the
/// connection. Cheap protocol chatter is answered inline; Requests go to
/// the dispatcher pool (blocking when the queue is full — backpressure).
fn process_frame(
    conn: &Arc<ConnState>,
    adapter: &Arc<ObjectAdapter>,
    jobs: &Sender<Job>,
    frame: &Bytes,
    draining: &AtomicBool,
    tracker: &Arc<JobTracker>,
) -> bool {
    let Ok(protocol) = sniff(frame) else {
        // Unknown magic: report a GIOP MessageError and drop the
        // connection, as a conforming ORB would.
        if let Ok(err_frame) = encode_message(
            &Message::MessageError,
            GiopVersion::STANDARD,
            ByteOrder::Big,
        ) {
            let _ = conn.channel.send_frame(err_frame);
        }
        return false;
    };
    match protocol {
        WireProtocol::Giop => process_giop_frame(conn, adapter, jobs, frame, draining, tracker),
        WireProtocol::Cool => process_cool_frame(conn, jobs, frame, draining, tracker),
    }
}

fn process_giop_frame(
    conn: &Arc<ConnState>,
    adapter: &Arc<ObjectAdapter>,
    jobs: &Sender<Job>,
    frame: &Bytes,
    draining: &AtomicBool,
    tracker: &Arc<JobTracker>,
) -> bool {
    // Peers may coalesce several GIOP frames into one transport frame
    // (see `crate::transport::batch`). Frames self-delimit, so split every
    // inbound buffer unconditionally — sub-frames are zero-copy views —
    // and handle the messages in arrival order.
    for sub in cool_giop::codec::split_frames(frame) {
        let (msg, version, order) = match sub.and_then(|s| Message::decode_frame(&s)) {
            Ok(parts) => parts,
            Err(_) => {
                if let Ok(err_frame) = encode_message(
                    &Message::MessageError,
                    GiopVersion::STANDARD,
                    ByteOrder::Big,
                ) {
                    let _ = conn.channel.send_frame(err_frame);
                }
                return false;
            }
        };
        let keep_open = match msg {
            Message::Request { header, body } => {
                if draining.load(Ordering::Acquire) {
                    // Draining: refuse new work but keep the connection open
                    // so replies for already-accepted requests still flow.
                    true
                } else if conn.cancelled.lock().remove(header.request_id) {
                    true // client abandoned it before we started
                } else {
                    let recv_at_ns = header
                        .service_context
                        .find(TRACE_REQUEST_CONTEXT_ID)
                        .map(|_| cool_telemetry::now_wall_ns());
                    jobs.send(Job {
                        conn: conn.clone(),
                        work: Work::Giop {
                            header,
                            body,
                            version,
                            order,
                            recv_at_ns,
                        },
                        enqueued: Instant::now(),
                        _guard: tracker.track(),
                    })
                    .is_ok() // dispatchers gone: the server is closing
                }
            }
            Message::CancelRequest { request_id } => {
                conn.cancelled.lock().insert(request_id);
                true
            }
            Message::LocateRequest(h) => {
                // Raw-bytes probe: no ObjectKey allocation on this path.
                let status = if adapter.contains(&h.object_key) {
                    LocateStatus::ObjectHere
                } else {
                    LocateStatus::UnknownObject
                };
                let reply = Message::LocateReply(LocateReplyHeader {
                    request_id: h.request_id,
                    locate_status: status,
                });
                match encode_message(&reply, version, order) {
                    Ok(frame) => conn.channel.send_frame(frame).is_ok(),
                    Err(_) => false,
                }
            }
            Message::CloseConnection => false,
            Message::MessageError => false,
            Message::Reply { .. } | Message::LocateReply(_) => {
                // Clients do not send replies; protocol violation.
                false
            }
        };
        if !keep_open {
            return false;
        }
    }
    true
}

fn process_cool_frame(
    conn: &Arc<ConnState>,
    jobs: &Sender<Job>,
    frame: &Bytes,
    draining: &AtomicBool,
    tracker: &Arc<JobTracker>,
) -> bool {
    match CoolMessage::decode(frame) {
        Ok(CoolMessage::Request {
            request_id,
            object_key,
            operation,
            one_way,
            args,
        }) => {
            if draining.load(Ordering::Acquire) {
                return true; // draining: refuse new work, keep the connection
            }
            jobs.send(Job {
                conn: conn.clone(),
                work: Work::Cool {
                    request_id,
                    object_key,
                    operation,
                    one_way,
                    args,
                },
                enqueued: Instant::now(),
                _guard: tracker.track(),
            })
            .is_ok()
        }
        // Clients do not send replies/exceptions to servers; and anything
        // undecodable ends the connection.
        Ok(CoolMessage::Reply { .. }) | Ok(CoolMessage::Exception { .. }) | Err(_) => false,
    }
}

/// Executes one request on a dispatcher thread: upcall, marshal, reply.
fn run_job(adapter: &Arc<ObjectAdapter>, job: Job, metrics: Option<&ServerMetrics>) {
    match job.work {
        Work::Giop {
            header,
            body,
            version,
            order,
            recv_at_ns,
        } => {
            // Re-check cancellation: the CancelRequest may have arrived
            // while this request sat in the dispatch queue.
            if job.conn.cancelled.lock().remove(header.request_id) {
                return;
            }
            // Join the client's distributed trace: a request-side trace
            // context names the trace id this server's stage timings
            // belong to; they ride back in the reply's trace context
            // (DESIGN.md §6).
            let trace_in = match (metrics, recv_at_ns) {
                (Some(m), Some(recv_at_ns)) if m.tracing => {
                    RequestTraceContext::from_list(&header.service_context).map(|ctx| {
                        m.trace_joins.inc();
                        m.ctx_bytes.add(RequestTraceContext::WIRE_LEN as u64);
                        (ctx.trace_id, recv_at_ns)
                    })
                }
                _ => None,
            };
            let queue_wait_us = duration_as_u32_us(job.enqueued.elapsed());
            let spec = QoSSpec::from_params(&header.qos_params);
            // Dispatch by the header's raw key bytes — the demux map
            // lookup borrows them, so no per-request ObjectKey clone.
            let (outcome, timings) = adapter.dispatch_traced_timed(
                &header.object_key,
                &header.operation,
                &body,
                &spec,
                !header.response_expected,
                Some(header.request_id),
            );
            if !header.response_expected {
                return;
            }
            let trace_out = trace_in.map(|(trace_id, recv_at_ns)| {
                if let Some(m) = metrics {
                    m.ctx_bytes.add(ReplyTraceContext::WIRE_LEN as u64);
                }
                ReplyTraceContext {
                    trace_id,
                    recv_at_ns,
                    // Derived from the receive stamp plus the monotonic
                    // time since enqueue (taken in the same breath as
                    // `recv_at_ns`): one wall read per request, and the
                    // recv/sent pair cannot be reordered by a clock step.
                    sent_at_ns: recv_at_ns.saturating_add(cool_telemetry::duration_as_u64_ns(
                        job.enqueued.elapsed(),
                    )),
                    queue_wait_us,
                    negotiate_us: timings.negotiate_us,
                    execute_us: timings.execute_us,
                }
            });
            let reply = match outcome {
                DispatchOutcome::Success { body, granted } => giop_helpers::make_reply(
                    header.request_id,
                    Bytes::from(body),
                    Some(&granted),
                    trace_out.as_ref(),
                    version,
                    order,
                ),
                DispatchOutcome::QosNack(reason) => {
                    giop_helpers::make_qos_nack(header.request_id, &reason, version, order)
                }
                DispatchOutcome::Error(err) => {
                    encode_error_reply(header.request_id, &err, version, order)
                }
            };
            match reply {
                Ok(frame) => {
                    let _ = job.conn.channel.send_frame(frame);
                }
                Err(_) => job.conn.channel.close(),
            }
        }
        Work::Cool {
            request_id,
            object_key,
            operation,
            one_way,
            args,
        } => {
            let outcome = adapter.dispatch_traced(
                &object_key,
                &operation,
                &args,
                &QoSSpec::best_effort(),
                one_way,
                Some(request_id),
            );
            if one_way {
                return;
            }
            let reply = match outcome {
                DispatchOutcome::Success { body, .. } => CoolMessage::Reply {
                    request_id,
                    body: Bytes::from(body),
                },
                DispatchOutcome::QosNack(reason) => CoolMessage::Exception {
                    request_id,
                    kind: "QosNotSupported".into(),
                    detail: reason.to_string(),
                },
                DispatchOutcome::Error(err) => {
                    let (kind, detail) = match &err {
                        OrbError::ObjectNotFound(k) => ("ObjectNotFound", k.clone()),
                        OrbError::OperationUnknown { object, operation } => {
                            ("OperationUnknown", format!("{object}/{operation}"))
                        }
                        other => ("Internal", other.to_string()),
                    };
                    CoolMessage::Exception {
                        request_id,
                        kind: kind.into(),
                        detail,
                    }
                }
            };
            let _ = job.conn.channel.send_frame(reply.encode());
        }
    }
}

fn encode_error_reply(
    request_id: u32,
    err: &OrbError,
    version: GiopVersion,
    order: ByteOrder,
) -> Result<Bytes, OrbError> {
    match err {
        OrbError::ObjectNotFound(key) => {
            giop_helpers::make_system_exception(request_id, "ObjectNotFound", key, version, order)
        }
        OrbError::OperationUnknown { object, operation } => giop_helpers::make_system_exception(
            request_id,
            "OperationUnknown",
            &format!("{object}/{operation}"),
            version,
            order,
        ),
        OrbError::UserException { repo_id, body } => {
            giop_helpers::make_user_exception(request_id, repo_id, body, version, order)
        }
        OrbError::QosNotSupported(reason) => {
            giop_helpers::make_qos_nack(request_id, reason, version, order)
        }
        other => giop_helpers::make_system_exception(
            request_id,
            "Internal",
            &other.to_string(),
            version,
            order,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_tracker_waits_for_inflight_work() {
        let tracker = JobTracker::new();
        assert!(tracker.wait_idle(Duration::ZERO), "idle at rest");

        let guard = tracker.track();
        assert!(
            !tracker.wait_idle(Duration::from_millis(10)),
            "one job in flight"
        );

        let t = tracker.clone();
        let waiter = std::thread::spawn(move || t.wait_idle(Duration::from_secs(5)));
        drop(guard);
        assert!(waiter.join().expect("waiter"), "drain completes on dec");
    }

    #[test]
    fn cancel_set_is_bounded_with_oldest_evicted() {
        let mut set = CancelSet::new(4);
        for id in 0..100u32 {
            set.insert(id);
        }
        assert!(set.order.len() <= 4);
        assert!(set.ids.len() <= 4);
        assert!(!set.remove(0), "oldest ids were evicted");
        assert!(set.remove(99), "newest ids survive");
    }
}
