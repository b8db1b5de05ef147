//! The ORB façade and client stubs.

use crate::adapter::{DispatchOutcome, ObjectAdapter};
use crate::binding::{Binding, DeferredReply, Reconnector};
use crate::config::OrbConfig;
use crate::error::OrbError;
use crate::exchange::LocalExchange;
use crate::message_layer::WireProtocol;
use crate::object::{ObjectKey, ObjectRef, OrbAddr};
use crate::retry::RetryPolicy;
use crate::server::OrbServer;
use crate::transport::{ComChannel, FaultChannel, FaultMetrics};
use bytes::Bytes;
use cool_faults::FaultEngine;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::{names, Counter, IntrospectServer, Registry};
use multe_qos::{GrantedQoS, QoSSpec, ServerPolicy, TransportRequirements};
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The Object Request Broker: one per process role (client, server, or
/// both — the adapter exists on both sides, as in COOL).
pub struct Orb {
    name: String,
    adapter: Arc<ObjectAdapter>,
    exchange: LocalExchange,
    config: OrbConfig,
    bindings: OrderedMutex<HashMap<(String, WireProtocol), Arc<Binding>>>,
    served: OrderedMutex<Vec<OrbAddr>>,
    /// One engine per ORB, shared by every channel incarnation (including
    /// reconnects), so the injected fault sequence is a deterministic
    /// function of the plan seed and the outbound frame sequence.
    fault_engine: Option<Arc<FaultEngine>>,
    /// Per-target engines materialized lazily from
    /// [`OrbConfig::fault_plans`], cached under the address display string
    /// so reconnects to the same target continue the same deterministic
    /// fault schedule instead of restarting it.
    fault_engines: OrderedMutex<HashMap<String, Arc<FaultEngine>>>,
    /// The live introspection endpoint (`OrbConfig::introspect`); absent —
    /// no listener, no sampler thread — unless explicitly configured.
    introspect: OrderedMutex<Option<IntrospectServer>>,
}

impl std::fmt::Debug for Orb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orb")
            .field("name", &self.name)
            .field("objects", &self.adapter.len())
            .field("bindings", &self.bindings.lock().len())
            .finish()
    }
}

impl Orb {
    /// Creates an ORB attached to the process-global exchange.
    pub fn new(name: &str) -> Arc<Self> {
        Orb::with_exchange(name, LocalExchange::global())
    }

    /// Creates an ORB with explicit timing/sizing knobs (see
    /// [`OrbConfig`]), attached to the process-global exchange.
    pub fn with_config(name: &str, config: OrbConfig) -> Arc<Self> {
        Orb::with_exchange_and_config(name, LocalExchange::global(), config)
    }

    /// Creates an ORB attached to an explicit exchange (isolated tests).
    pub fn with_exchange(name: &str, exchange: LocalExchange) -> Arc<Self> {
        Orb::with_exchange_and_config(name, exchange, OrbConfig::default())
    }

    /// Creates an ORB with both an explicit exchange and explicit
    /// configuration.
    pub fn with_exchange_and_config(
        name: &str,
        exchange: LocalExchange,
        mut config: OrbConfig,
    ) -> Arc<Self> {
        // An introspection endpoint needs data behind it: an ORB configured
        // with `introspect` but no telemetry gets a private registry, which
        // everything this ORB creates then reports into.
        if config.introspect.is_some() && config.telemetry.is_none() {
            config.telemetry = Some(Arc::new(Registry::new()));
        }
        let introspect = match (&config.introspect, &config.telemetry) {
            (Some(policy), Some(registry)) => {
                match IntrospectServer::start(
                    Arc::clone(registry),
                    &policy.bind_addr,
                    policy.sample_period,
                ) {
                    Ok(server) => Some(server),
                    Err(e) => {
                        // Degrade rather than fail ORB construction; the
                        // recorder keeps the evidence.
                        registry.flight_event(
                            flight_event::TRANSPORT_DEAD,
                            None,
                            format!("introspect endpoint failed to start: {e}"),
                        );
                        None
                    }
                }
            }
            _ => None,
        };
        let fault_engine = config
            .fault_plan
            .as_ref()
            .map(|plan| Arc::new(FaultEngine::new((**plan).clone())));
        Arc::new(Orb {
            name: name.to_owned(),
            adapter: Arc::new(ObjectAdapter::with_telemetry(config.telemetry.clone())),
            exchange,
            config,
            bindings: OrderedMutex::new(lock_rank::ORB_BINDINGS, "orb.bindings", HashMap::new()),
            served: OrderedMutex::new(lock_rank::ORB_SERVED, "orb.served", Vec::new()),
            fault_engine,
            fault_engines: OrderedMutex::new(
                lock_rank::ORB_FAULT_ENGINES,
                "orb.fault_engines",
                HashMap::new(),
            ),
            introspect: OrderedMutex::new(
                lock_rank::ORB_INTROSPECT,
                "orb.introspect",
                introspect,
            ),
        })
    }

    /// Where the live introspection endpoint listens, when
    /// [`OrbConfig::introspect`] is set and the endpoint started. `None`
    /// means no endpoint exists (the default — zero cost, no thread).
    pub fn introspect_addr(&self) -> Option<std::net::SocketAddr> {
        self.introspect.lock().as_ref().map(IntrospectServer::local_addr)
    }

    /// The configuration this ORB threads through its servers and
    /// bindings.
    pub fn config(&self) -> &OrbConfig {
        &self.config
    }

    /// This ORB's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The object adapter (register servants here).
    pub fn adapter(&self) -> &Arc<ObjectAdapter> {
        &self.adapter
    }

    /// The exchange used for in-process transports.
    pub fn exchange(&self) -> &LocalExchange {
        &self.exchange
    }

    /// Serves this ORB's adapter on a TCP endpoint.
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if binding fails.
    pub fn listen_tcp(&self, addr: &str) -> Result<OrbServer, OrbError> {
        let server = OrbServer::start_tcp(self.adapter.clone(), addr, &self.config)?;
        self.served.lock().push(server.addr().clone());
        Ok(server)
    }

    /// Serves this ORB's adapter on a Chorus IPC endpoint.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the name is taken.
    pub fn listen_chorus(&self, name: &str) -> Result<OrbServer, OrbError> {
        let acceptor = self.exchange.listen_chorus(name)?;
        let addr = OrbAddr::Chorus(name.to_owned());
        self.served.lock().push(addr.clone());
        OrbServer::start_exchange(
            self.adapter.clone(),
            addr,
            acceptor,
            self.exchange.clone(),
            &self.config,
        )
    }

    /// Serves this ORB's adapter on a Da CaPo endpoint (QoS-capable).
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the name is taken.
    pub fn listen_dacapo(&self, name: &str) -> Result<OrbServer, OrbError> {
        let acceptor = self.exchange.listen_dacapo(name)?;
        let addr = OrbAddr::Dacapo(name.to_owned());
        self.served.lock().push(addr.clone());
        OrbServer::start_exchange(
            self.adapter.clone(),
            addr,
            acceptor,
            self.exchange.clone(),
            &self.config,
        )
    }

    /// Binds to an object reference, returning a client stub.
    ///
    /// The binding is *implicit* (established lazily and cached per
    /// address); calling [`Stub::set_qos_parameter`] later turns it into
    /// an explicit, client-controlled binding as described in Section 4.1.
    /// Colocated objects short-circuit through the local adapter.
    ///
    /// # Errors
    ///
    /// Connection establishment failures.
    pub fn bind(self: &Arc<Self>, reference: &ObjectRef) -> Result<Stub, OrbError> {
        self.bind_with_protocol(reference, WireProtocol::Giop)
    }

    /// Like [`Orb::bind`] but selecting the message protocol (the COOL
    /// protocol carries no QoS).
    ///
    /// # Errors
    ///
    /// Connection establishment failures.
    pub fn bind_with_protocol(
        self: &Arc<Self>,
        reference: &ObjectRef,
        protocol: WireProtocol,
    ) -> Result<Stub, OrbError> {
        // Colocated fast path: the adapter is on the client side too.
        if self.served.lock().contains(&reference.addr) && self.adapter.contains(&reference.key) {
            return Ok(self.make_stub(Target::Local(self.adapter.clone()), reference.key.clone()));
        }
        let binding = self.binding_for(&reference.addr, protocol)?;
        Ok(self.make_stub(Target::Remote(binding), reference.key.clone()))
    }

    fn make_stub(&self, target: Target, key: ObjectKey) -> Stub {
        let registry = self.config.telemetry.as_deref();
        Stub {
            target,
            key,
            qos: OrderedMutex::new(lock_rank::STUB_QOS, "stub.qos", None),
            granted: OrderedMutex::new(lock_rank::STUB_GRANTED, "stub.granted", None),
            timeout: OrderedMutex::new(lock_rank::STUB_TIMEOUT, "stub.timeout", self.config.call_timeout),
            retry: self.config.retry.clone(),
            ladder: OrderedMutex::new(lock_rank::STUB_LADDER, "stub.ladder", LadderState::default()),
            retries: registry.map(|r| r.counter(names::RETRIES_TOTAL)),
            degradations: registry.map(|r| r.counter(names::QOS_DEGRADATIONS_TOTAL)),
            registry: self.config.telemetry.clone(),
        }
    }

    /// Dials `addr`, consulting the fault engine (connect refusal) and
    /// wrapping the channel in a [`FaultChannel`] when a plan is active,
    /// then in a [`crate::transport::BatchingChannel`] when batching is
    /// configured (outermost, so a coalesced batch crosses the fault model
    /// as one wire frame). Shared by the first connect and every
    /// reconnect, so both paths see identical behaviour.
    fn dial(
        exchange: &LocalExchange,
        addr: &OrbAddr,
        telemetry: Option<&Arc<Registry>>,
        engine: Option<&Arc<FaultEngine>>,
        batching: Option<crate::config::BatchingPolicy>,
    ) -> Result<Arc<dyn ComChannel>, OrbError> {
        if let Some(engine) = engine {
            if !engine.allow_connect() {
                if let Some(registry) = telemetry {
                    FaultMetrics::resolve(registry).record_refuse();
                    registry.flight_event(
                        flight_event::FAULT_INJECTED,
                        None,
                        "refuse_connect injected at dial".to_string(),
                    );
                }
                return Err(OrbError::Transport(
                    "fault injection: connection refused".into(),
                ));
            }
        }
        let raw: Arc<dyn ComChannel> = match addr {
            OrbAddr::Tcp(hostport) => Arc::new(crate::transport::TcpComChannel::connect_with(
                hostport.as_str(),
                telemetry.map(Arc::as_ref),
            )?),
            OrbAddr::Chorus(name) => {
                exchange.connect_chorus_with(name, telemetry.map(Arc::as_ref))?
            }
            OrbAddr::Dacapo(name) => exchange.connect_dacapo_with(
                name,
                &TransportRequirements::best_effort(),
                telemetry,
            )?,
        };
        let channel: Arc<dyn ComChannel> = match engine {
            Some(engine) => Arc::new(FaultChannel::new(raw, Arc::clone(engine), telemetry)),
            None => raw,
        };
        Ok(match batching {
            Some(policy) => {
                crate::transport::BatchingChannel::wrap_with(channel, policy, telemetry)
            }
            None => channel,
        })
    }

    /// The fault engine governing `addr`: the ORB-global engine when a
    /// global plan is set, otherwise a per-target engine from
    /// [`OrbConfig::fault_plans`] (created once and cached). `None` means
    /// no faults for this target.
    fn engine_for(&self, addr: &OrbAddr) -> Option<Arc<FaultEngine>> {
        if let Some(engine) = &self.fault_engine {
            return Some(Arc::clone(engine));
        }
        let plans = self.config.fault_plans.as_ref()?;
        let target = addr.to_string();
        let plan = plans.plan_for(&target)?.clone();
        let mut engines = self.fault_engines.lock();
        let engine = engines
            .entry(target)
            .or_insert_with(|| Arc::new(FaultEngine::new(plan)));
        Some(Arc::clone(engine))
    }

    fn binding_for(
        &self,
        addr: &OrbAddr,
        protocol: WireProtocol,
    ) -> Result<Arc<Binding>, OrbError> {
        let cache_key = (addr.to_string(), protocol);
        {
            let bindings = self.bindings.lock();
            if let Some(existing) = bindings.get(&cache_key) {
                if !existing.is_closed() {
                    return Ok(existing.clone());
                }
            }
        }
        let engine = self.engine_for(addr);
        let channel = Orb::dial(
            &self.exchange,
            addr,
            self.config.telemetry.as_ref(),
            engine.as_ref(),
            self.config.batching,
        )?;
        let binding = Binding::with_config(channel, protocol, &self.config);
        // Re-dial with the same wrapping on reconnect; the closure owns
        // clones (including the cached fault engine, so the schedule
        // continues) and the binding outlives this ORB reference.
        let exchange = self.exchange.clone();
        let addr = addr.clone();
        let telemetry = self.config.telemetry.clone();
        let batching = self.config.batching;
        let reconnector: Reconnector = Arc::new(move || {
            Orb::dial(&exchange, &addr, telemetry.as_ref(), engine.as_ref(), batching)
        });
        binding.set_reconnector(reconnector);
        self.bindings.lock().insert(cache_key, binding.clone());
        Ok(binding)
    }

    /// Closes all cached client bindings and stops the introspection
    /// endpoint (when one is running).
    pub fn shutdown(&self) {
        for (_, binding) in self.bindings.lock().drain() {
            binding.close();
        }
        // Take the handle out, then stop with the lock released — stop
        // joins the accept and sampler threads.
        let introspect = self.introspect.lock().take();
        if let Some(mut server) = introspect {
            server.stop();
        }
    }
}

enum Target {
    Local(Arc<ObjectAdapter>),
    Remote(Arc<Binding>),
}

/// Graceful-degradation state: the fallback ladder the application
/// supplied and the rungs already applied.
#[derive(Default)]
struct LadderState {
    fallbacks: VecDeque<QoSSpec>,
    steps: Vec<QoSSpec>,
}

/// Outcome of one [`Stub::decide_retry`] consultation after a retryable
/// failure. Transitions are tabulated in DESIGN.md §8.4.
enum RetryDecision {
    /// Wait this long, then replay the invocation.
    Backoff(Duration),
    /// Attempts or wall-clock budget spent; surface the wrapped history.
    GiveUp,
}

/// Outcome of walking the degradation ladder after a QoS NACK
/// ([`Stub::degrade_qos`]). Transitions are tabulated in DESIGN.md §8.4.
enum DegradeOutcome {
    /// A rung was applied — retry the invocation at the reduced QoS.
    Stepped,
    /// The ladder is empty; the NACK surfaces to the caller.
    Exhausted,
}

/// A client proxy for one remote (or colocated) object.
///
/// This is what Chic-generated stubs wrap: `invoke` carries marshalled
/// parameters, and `set_qos_parameter` is the method the modified Chic
/// compiler adds to every stub (Section 4.1).
pub struct Stub {
    target: Target,
    key: ObjectKey,
    qos: OrderedMutex<Option<QoSSpec>>,
    granted: OrderedMutex<Option<GrantedQoS>>,
    timeout: OrderedMutex<Duration>,
    retry: Option<RetryPolicy>,
    ladder: OrderedMutex<LadderState>,
    retries: Option<Arc<Counter>>,
    degradations: Option<Arc<Counter>>,
    registry: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Stub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stub")
            .field("key", &self.key.to_string())
            .field("colocated", &matches!(self.target, Target::Local(_)))
            .finish()
    }
}

impl Stub {
    /// The object key this stub addresses.
    pub fn key(&self) -> &ObjectKey {
        &self.key
    }

    /// Whether this stub short-circuits to a colocated object.
    pub fn is_colocated(&self) -> bool {
        matches!(self.target, Target::Local(_))
    }

    /// Sets the reply timeout for synchronous calls.
    pub fn set_timeout(&self, timeout: Duration) {
        *self.timeout.lock() = timeout;
    }

    /// The paper's `setQoSParameter`: specifies the QoS for subsequent
    /// invocations. Calling it once yields QoS-per-binding; calling it
    /// before every invocation yields QoS-per-method (Section 4.1).
    ///
    /// The requested QoS is immediately propagated to the transport layer
    /// (unilateral negotiation, Section 4.3); the bilateral negotiation
    /// with the server happens on the next invocation. On a Da CaPo
    /// binding a spec that maps to a different module graph rebuilds the
    /// stacks on both ends; the teardown waits on no clock, so
    /// QoS-per-method costs about as much as a few invocations.
    ///
    /// # Errors
    ///
    /// [`OrbError::QosNotSupported`] if the spec is invalid or the
    /// transport cannot provide the mapped requirements.
    pub fn set_qos_parameter(&self, spec: QoSSpec) -> Result<(), OrbError> {
        spec.validate().map_err(OrbError::QosNotSupported)?;
        if let Target::Remote(binding) = &self.target {
            if !spec.is_best_effort() {
                // Derive the transport requirements from the requested
                // operating point (permissive negotiation = take the
                // request as-is) and push them down the channel.
                let optimistic = ServerPolicy::permissive()
                    .negotiate(&spec)
                    .map_err(OrbError::QosNotSupported)?;
                let requirements = TransportRequirements::from_granted(&optimistic);
                binding.set_transport_qos(&requirements)?;
            } else {
                binding.set_transport_qos(&TransportRequirements::best_effort())?;
            }
        }
        *self.qos.lock() = if spec.is_best_effort() {
            None
        } else {
            Some(spec)
        };
        Ok(())
    }

    /// Clears any QoS specification: subsequent invocations use standard
    /// GIOP 1.0.
    ///
    /// # Errors
    ///
    /// Transport reconfiguration failures.
    pub fn clear_qos(&self) -> Result<(), OrbError> {
        self.set_qos_parameter(QoSSpec::best_effort())
    }

    /// The QoS granted by the server on the most recent invocation, if
    /// any.
    pub fn last_granted(&self) -> Option<GrantedQoS> {
        self.granted.lock().clone()
    }

    /// Installs a graceful-degradation ladder: when an invocation fails
    /// with [`OrbError::QosNotSupported`] (the server NACKed the
    /// negotiation), the stub steps down to the next fallback spec — most
    /// preferred first — applies it via [`Stub::set_qos_parameter`] and
    /// retries the call. The ladder is consumed rung by rung; once empty,
    /// the NACK surfaces to the caller.
    pub fn set_qos_ladder(&self, fallbacks: Vec<QoSSpec>) {
        let mut ladder = self.ladder.lock();
        ladder.fallbacks = fallbacks.into();
        ladder.steps.clear();
    }

    /// The degradation rungs applied so far, in the order they were taken.
    pub fn degradation_steps(&self) -> Vec<QoSSpec> {
        self.ladder.lock().steps.clone()
    }

    /// Pops the next fallback rung, recording the step.
    fn next_rung(&self) -> Option<QoSSpec> {
        let rung = {
            let mut ladder = self.ladder.lock();
            let rung = ladder.fallbacks.pop_front()?;
            ladder.steps.push(rung.clone());
            rung
        };
        if let Some(c) = &self.degradations {
            c.inc();
        }
        if let Some(r) = &self.registry {
            r.flight_event(
                flight_event::QOS_DEGRADE,
                None,
                format!("{}: stepped down to {rung:?}", self.key),
            );
        }
        Some(rung)
    }

    /// Steps down the ladder after a QoS NACK until a rung applies cleanly
    /// or the ladder is exhausted. Non-QoS errors pass through unchanged.
    ///
    /// The outcomes are this machine's only states (DESIGN.md §8.4): a
    /// `Stepped` transition emits the degradation counter and flight event
    /// (inside [`Stub::next_rung`]); `Exhausted` surfaces the original
    /// NACK to the caller.
    fn degrade_qos(&self) -> Result<DegradeOutcome, OrbError> {
        loop {
            let Some(rung) = self.next_rung() else {
                return Ok(DegradeOutcome::Exhausted);
            };
            match self.set_qos_parameter(rung) {
                Ok(()) => return Ok(DegradeOutcome::Stepped),
                // This rung is itself unacceptable (invalid spec or the
                // transport refused the mapped requirements): keep
                // stepping down.
                Err(OrbError::QosNotSupported(_)) => continue,
                Err(other) => return Err(other),
            }
        }
    }

    /// What the retry machine decided after a retryable failure: back off
    /// and replay, or give up. The decision is the transition (DESIGN.md
    /// §8.4) — `Backoff` bumps the retry counter here, `GiveUp` is what
    /// [`Stub::invoke`] wraps into [`OrbError::RetriesExhausted`].
    fn decide_retry(&self, attempt: u32, start: Instant) -> RetryDecision {
        let policy: Option<&RetryPolicy> = self.retry.as_ref();
        match policy.and_then(|p| p.next_delay(attempt, start.elapsed())) {
            Some(delay) => {
                if let Some(c) = &self.retries {
                    c.inc();
                }
                RetryDecision::Backoff(delay)
            }
            None => RetryDecision::GiveUp,
        }
    }

    fn qos_params(&self) -> Vec<cool_giop::QoSParameter> {
        self.qos
            .lock()
            .as_ref()
            .map(QoSSpec::to_params)
            .unwrap_or_default()
    }

    /// Two-way synchronous invocation with marshalled parameters.
    ///
    /// With [`crate::OrbConfig::retry`] set, retryable failures (see
    /// [`OrbError::is_retryable`]) are replayed with bounded backoff,
    /// reconnecting the binding transparently when its connection died.
    /// With a QoS ladder installed ([`Stub::set_qos_ladder`]), a server
    /// NACK steps the QoS down instead of failing. Both are off by
    /// default, giving exactly one attempt.
    ///
    /// # Errors
    ///
    /// The server's exception (including the QoS NACK once any ladder is
    /// exhausted), marshalling or transport failures, or
    /// [`OrbError::Timeout`].
    pub fn invoke(&self, operation: &str, args: Bytes) -> Result<Bytes, OrbError> {
        let policy: Option<&RetryPolicy> = self.retry.as_ref();
        let start = Instant::now();
        let mut attempt: u32 = 1;
        // Bounded: QoS degradation consumes the finite ladder; retries are
        // capped by RetryPolicy::max_attempts and its wall-clock budget.
        loop {
            let err = match self.invoke_once(operation, args.clone()) {
                Ok(body) => return Ok(body),
                Err(err) => err,
            };
            if matches!(err, OrbError::QosNotSupported(_)) {
                match self.degrade_qos()? {
                    // Degradation does not consume retry attempts.
                    DegradeOutcome::Stepped => continue,
                    DegradeOutcome::Exhausted => return Err(err),
                }
            }
            if !err.is_retryable() {
                return Err(err);
            }
            let RetryDecision::Backoff(delay) = self.decide_retry(attempt, start) else {
                // A policy that gives up — attempts or wall-clock budget
                // spent, possibly mid-backoff — must surface *what kept
                // failing*, not a bare budget error: wrap the last cause
                // with the attempt count. Without a policy there was only
                // ever one attempt; its error surfaces unwrapped.
                return Err(match policy {
                    Some(_) => OrbError::RetriesExhausted {
                        attempts: attempt,
                        last: Box::new(err),
                    },
                    None => err,
                });
            };
            attempt += 1;
            crate::retry::wait_backoff(delay);
            if let Target::Remote(binding) = &self.target {
                if binding.is_closed() {
                    // A failed redial surfaces on the next attempt as an
                    // attributed Closed/Transport error, which loops back
                    // here while attempts remain.
                    let _ = binding.reconnect();
                }
            }
        }
    }

    /// One attempt of [`Stub::invoke`], with no resilience applied.
    fn invoke_once(&self, operation: &str, args: Bytes) -> Result<Bytes, OrbError> {
        match &self.target {
            Target::Local(adapter) => {
                let spec = self.qos.lock().clone().unwrap_or_default();
                match adapter.dispatch(&self.key, operation, &args, &spec, false) {
                    DispatchOutcome::Success { body, granted } => {
                        *self.granted.lock() = Some(granted);
                        Ok(Bytes::from(body))
                    }
                    DispatchOutcome::QosNack(reason) => Err(OrbError::QosNotSupported(reason)),
                    DispatchOutcome::Error(err) => Err(err),
                }
            }
            Target::Remote(binding) => {
                let timeout = *self.timeout.lock();
                let (body, granted) = binding.call(
                    self.key.as_bytes(),
                    operation,
                    args,
                    &self.qos_params(),
                    timeout,
                )?;
                if let Some(granted) = granted {
                    *self.granted.lock() = Some(granted);
                }
                Ok(body)
            }
        }
    }

    /// One-way invocation (`send`): no reply, errors after the send are
    /// invisible.
    ///
    /// # Errors
    ///
    /// Local marshalling/transport failures only.
    pub fn invoke_oneway(&self, operation: &str, args: Bytes) -> Result<(), OrbError> {
        match &self.target {
            Target::Local(adapter) => {
                let spec = self.qos.lock().clone().unwrap_or_default();
                adapter.dispatch(&self.key, operation, &args, &spec, true);
                Ok(())
            }
            Target::Remote(binding) => {
                binding.send(self.key.as_bytes(), operation, args, &self.qos_params())
            }
        }
    }

    /// Deferred synchronous invocation (`defer`): collect the reply later.
    ///
    /// # Errors
    ///
    /// Send-time failures. Colocated stubs do not support deferral (the
    /// call would already be complete) and return
    /// [`OrbError::Protocol`].
    pub fn invoke_deferred(&self, operation: &str, args: Bytes) -> Result<DeferredReply, OrbError> {
        match &self.target {
            Target::Local(_) => Err(OrbError::Protocol(
                "deferred invocation on a colocated object is meaningless".into(),
            )),
            Target::Remote(binding) => {
                binding.defer(self.key.as_bytes(), operation, args, &self.qos_params())
            }
        }
    }

    /// Asynchronous invocation (`notify`): `callback` runs when the reply
    /// arrives. Returns the request id usable with [`Stub::cancel`].
    ///
    /// # Errors
    ///
    /// Send-time failures; colocated stubs run the callback synchronously
    /// and return request id 0.
    pub fn invoke_async(
        &self,
        operation: &str,
        args: Bytes,
        callback: impl FnOnce(Result<Bytes, OrbError>) + Send + 'static,
    ) -> Result<u32, OrbError> {
        match &self.target {
            Target::Local(adapter) => {
                let spec = self.qos.lock().clone().unwrap_or_default();
                let result = match adapter.dispatch(&self.key, operation, &args, &spec, false) {
                    DispatchOutcome::Success { body, .. } => Ok(Bytes::from(body)),
                    DispatchOutcome::QosNack(reason) => Err(OrbError::QosNotSupported(reason)),
                    DispatchOutcome::Error(err) => Err(err),
                };
                callback(result);
                Ok(0)
            }
            Target::Remote(binding) => binding.notify(
                self.key.as_bytes(),
                operation,
                args,
                &self.qos_params(),
                move |result| callback(result.map(|(body, _)| body)),
            ),
        }
    }

    /// Cancels a pending asynchronous request (`cancel`).
    ///
    /// Returns whether the request was still pending.
    pub fn cancel(&self, request_id: u32) -> bool {
        match &self.target {
            Target::Local(_) => false,
            Target::Remote(binding) => binding.cancel(request_id),
        }
    }
}
