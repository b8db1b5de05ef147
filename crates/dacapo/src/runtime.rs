//! The module-graph runtime: one thread per module, message queues in
//! between.
//!
//! This is the paper's Figure 6 materialised: *"Each module in Da CaPo is
//! executed by a single thread … Modules exchange pointers to packets over
//! message queues. Each module has two message queues associated: one for
//! data and one for control information."* Here the two directions (down =
//! towards the wire, up = towards the application) are the two queues;
//! control packets share the queues and are told apart by module-level
//! header tags, which keeps the wire format self-describing.
//!
//! Threads outlive the stack they run. Each stack thread is a worker that
//! runs one job at a time, a module loop or a transport pump, and parks on
//! its job channel between jobs. [`StackHandle::shutdown`] stops the jobs,
//! waits for each to return and hands the workers back as
//! [`StackThreads`]; [`build_stack`] runs the next stack on them and
//! spawns a thread only when the set runs out. A reconfiguration swap
//! therefore costs one job hand-off per thread, not a thread start-up and
//! join. A running stack still has exactly one thread per module plus the
//! two transport pumps.
//!
//! Backpressure discipline: **down** channels are bounded — a module whose
//! [`Module::ready_for_down`] returns `false` simply stops draining its
//! down queue, which stalls everything above it up to the application
//! (that is how the IRQ configuration throttles Figure 9's sender).
//! **Up** channels are unbounded: the wire already paces them, and keeping
//! them non-blocking rules out send/send deadlock between neighbouring
//! threads.

use crate::alayer::AppEndpoint;
use crate::module::{Module, Outputs};
use crate::packet::{Packet, PacketKind};
use crate::stats::ThroughputMeter;
use crate::tlayer::Transport;
use crate::DacapoError;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::{Counter, Gauge, Registry};
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for a running stack.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Capacity of each bounded down-direction queue.
    pub channel_capacity: usize,
    /// Interval between [`Module::on_tick`] callbacks. This is a protocol
    /// timer (it drives ARQ retransmission), *not* a data-path poll: packet
    /// arrival wakes a module immediately via its queue select.
    pub tick_interval: Duration,
    /// When set, every module thread reports per-direction frame/byte
    /// throughput (`dacapo_module_frames_total{module,dir}`,
    /// `dacapo_module_bytes_total{module,dir}`) and its input-queue depth
    /// (`dacapo_module_queue_depth{module}`), and the transport pumps
    /// report wire traffic (`dacapo_wire_frames_total{dir}`,
    /// `dacapo_wire_bytes_total{dir}`) into this registry.
    pub telemetry: Option<Arc<Registry>>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            channel_capacity: 128,
            tick_interval: Duration::from_millis(20),
            telemetry: None,
        }
    }
}

/// Pre-resolved registry handles for one module thread.
struct ModuleTelemetry {
    down_frames: Arc<Counter>,
    down_bytes: Arc<Counter>,
    up_frames: Arc<Counter>,
    up_bytes: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl ModuleTelemetry {
    fn new(registry: &Registry, module: &str) -> Self {
        let labeled = |name: &str, dir: &str| {
            registry.counter(&Registry::labeled(name, &[("module", module), ("dir", dir)]))
        };
        ModuleTelemetry {
            down_frames: labeled("dacapo_module_frames_total", "down"),
            down_bytes: labeled("dacapo_module_bytes_total", "down"),
            up_frames: labeled("dacapo_module_frames_total", "up"),
            up_bytes: labeled("dacapo_module_bytes_total", "up"),
            queue_depth: registry.gauge(&Registry::labeled(
                "dacapo_module_queue_depth",
                &[("module", module)],
            )),
        }
    }
}

/// Quiescence change broadcast: a generation counter bumped by every
/// stack thread (and the application endpoint) after it drains work, so
/// [`StackHandle::drain`] can park in a condvar instead of sleep-polling
/// the queue probes.
#[derive(Debug, Default)]
pub(crate) struct QuiesceSignal {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl QuiesceSignal {
    /// Announces "state changed, re-check quiescence" to any drainer.
    pub(crate) fn pulse(&self) {
        let mut generation = self.generation.lock();
        *generation += 1;
        self.cv.notify_all();
    }

    /// Publishes a module thread's idle state and pulses, under one lock:
    /// a drainer that reads the new state also sees the pulse, so it
    /// re-checks instead of trusting a snapshot taken while a packet moved
    /// from one queue to the next.
    fn settle(&self, idle: &AtomicBool, now_idle: bool) {
        let mut generation = self.generation.lock();
        idle.store(now_idle, Ordering::Release);
        *generation += 1;
        self.cv.notify_all();
    }

    fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    /// Waits for a pulse newer than `seen`; false when `deadline` passes
    /// first.
    fn wait_newer(&self, seen: u64, deadline: Instant) -> bool {
        let mut generation = self.generation.lock();
        while *generation == seen {
            if self.cv.wait_until(&mut generation, deadline).timed_out() {
                return false;
            }
        }
        true
    }
}

/// Work for one stack thread: a module loop or a transport pump.
type Job = Box<dyn FnOnce() + Send>;

/// A reusable stack thread. It runs one [`Job`] at a time, reports each
/// return on `done` and parks on `jobs` in between.
#[derive(Debug)]
struct Worker {
    jobs: Sender<Job>,
    done: Receiver<()>,
    handle: JoinHandle<()>,
}

/// Spawns an idle worker.
fn spawn_worker() -> std::io::Result<Worker> {
    let (jobs, job_rx) = bounded::<Job>(1);
    let (done_tx, done) = bounded::<()>(1);
    let handle = std::thread::Builder::new()
        .name("dacapo-stack".into())
        .spawn(move || {
            // Ends when the owning `StackThreads` drops the job sender. A
            // job that panics unwinds past the `send` below, so `done`
            // disconnects instead of reporting a return.
            while let Ok(job) = job_rx.recv() {
                job();
                if done_tx.send(()).is_err() {
                    return;
                }
            }
        })?;
    Ok(Worker { jobs, done, handle })
}

/// Waits for each busy worker's job to return and moves the worker into
/// `into`. A worker whose job panicked has a disconnected done channel: it
/// is joined, not reused.
fn finish_jobs(busy: &mut Vec<Worker>, into: &mut StackThreads) {
    for worker in busy.drain(..) {
        match worker.done.recv() {
            Ok(()) => into.workers.push(worker),
            Err(_) => {
                let _ = worker.handle.join();
            }
        }
    }
}

/// The idle threads of a stopped stack, ready to run the next one.
///
/// [`StackHandle::shutdown`] returns them and [`build_stack`] takes them,
/// so a reconfiguration runs the new stack on the old stack's threads.
/// Callers with no threads to hand over pass `StackThreads::default()`.
/// Dropping the set joins every thread in it.
#[derive(Debug, Default)]
pub struct StackThreads {
    workers: Vec<Worker>,
}

impl Drop for StackThreads {
    fn drop(&mut self) {
        // Collecting the handles drops every job sender before the first
        // join, so the workers exit together.
        let handles: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.handle).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// A running module stack bound to a transport.
#[derive(Debug)]
pub struct StackHandle {
    app: AppEndpoint,
    shutdown: Arc<AtomicBool>,
    /// One worker per module, top to bottom, then the TX and RX pumps.
    workers: Vec<Worker>,
    /// Threads handed to [`build_stack`] that this stack did not need;
    /// they go back to the caller at shutdown.
    spare: StackThreads,
    module_names: Vec<String>,
    /// Observers over every inter-module queue. These are *sender* clones
    /// used only for `is_empty()`: receiver clones would keep the channels
    /// connected and leave a module blocked in a bounded `send` hanging
    /// forever at shutdown.
    queue_probes: Vec<Sender<Packet>>,
    /// Per-module idle flags maintained by the module threads.
    idle_flags: Vec<Arc<AtomicBool>>,
    /// Pulsed by stack threads whenever queues may have drained.
    quiesce: Arc<QuiesceSignal>,
    /// Shutdown wakeup: every stack thread selects on a clone of the
    /// matching receiver. Dropping this sender disconnects the channel and
    /// wakes all threads blocked in a select, so shutdown never waits for
    /// a tick or poll interval to expire.
    wake: Option<Sender<()>>,
    /// Set by the transport pumps on a permanent transport error.
    transport_dead: Arc<AtomicBool>,
}

impl StackHandle {
    /// The application endpoint of this stack.
    pub fn endpoint(&self) -> &AppEndpoint {
        &self.app
    }

    /// Names of the running modules, top to bottom.
    pub fn module_names(&self) -> &[String] {
        &self.module_names
    }

    /// Number of threads running this stack (modules + 2 transport pumps).
    pub fn thread_count(&self) -> usize {
        self.workers.len()
    }

    /// Whether the transport underneath this stack died permanently (peer
    /// severed, I/O error). Inbound data queued before the death is still
    /// receivable through the endpoint; new sends fail with
    /// [`DacapoError::Closed`].
    pub fn transport_closed(&self) -> bool {
        self.transport_dead.load(Ordering::Acquire)
    }

    /// Whether every queue is empty and every module reports no deferred
    /// state and holds no packet — i.e. all application traffic has
    /// reached the transport (or the application) and no ARQ window is
    /// outstanding.
    pub fn is_quiescent(&self) -> bool {
        self.queue_probes.iter().all(|q| q.is_empty())
            && self.idle_flags.iter().all(|f| f.load(Ordering::Acquire))
    }

    /// Waits up to `timeout` for the stack to quiesce; returns whether it
    /// did. Used for graceful teardown: close after `drain` loses nothing.
    ///
    /// Event-driven: stack threads pulse [`QuiesceSignal`] after draining
    /// work, so this parks in a condvar between re-checks instead of
    /// sleep-polling.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Generation before the check: a pulse landing between the
            // check and the wait advances it, so the wait returns
            // immediately rather than missing the wakeup. The same
            // generation after the check proves no module moved a packet
            // while the queues and flags were read one by one.
            let seen = self.quiesce.generation();
            if self.is_quiescent() && self.quiesce.generation() == seen {
                return true;
            }
            if !self.quiesce.wait_newer(seen, deadline) {
                return self.is_quiescent();
            }
        }
    }

    /// Stops every module loop and pump, waits for each to return and
    /// hands back all of the stack's threads, spares included, for the
    /// next [`build_stack`]. The transport itself is *not* closed — the
    /// caller may rebuild a new stack on it (reconfiguration).
    pub fn shutdown(mut self) -> StackThreads {
        self.stop_jobs();
        std::mem::take(&mut self.spare)
    }

    /// Sets the stop flag, disconnects the wake channel (popping every
    /// job out of its blocking select or transport receive) and waits for
    /// the jobs to return.
    fn stop_jobs(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.take();
        finish_jobs(&mut self.workers, &mut self.spare);
    }
}

impl Drop for StackHandle {
    fn drop(&mut self) {
        // A handle dropped without `shutdown` reaps its threads here: the
        // jobs end on the stop flag and wake disconnect, then dropping
        // `spare` joins the workers.
        self.stop_jobs();
    }
}

/// Marks the transport dead and wakes the application: a close sentinel
/// (empty control packet) goes straight into the app's up queue —
/// bypassing the modules, which never deliver control packets upward — so
/// a receive blocked in the endpoint surfaces [`DacapoError::Closed`]
/// immediately instead of idling out its timeout.
fn signal_transport_death(
    dead: &AtomicBool,
    app_up: &Sender<Packet>,
    quiesce: &QuiesceSignal,
    registry: Option<&Registry>,
    dir: &str,
) {
    dead.store(true, Ordering::Release);
    if let Some(r) = registry {
        r.flight_event(
            flight_event::TRANSPORT_DEAD,
            None,
            format!("dacapo {dir} pump: transport failed permanently"),
        );
    }
    let _ = app_up.send(Packet::control(&[]));
    quiesce.pulse();
}

/// Hands each job to a thread from `threads`, spawning one only when the
/// set is empty. If a spawn fails, the jobs already started are stopped
/// and their threads go back into `threads`.
fn start_jobs(
    jobs: Vec<Job>,
    threads: &mut StackThreads,
    shutdown: &AtomicBool,
    wake_tx: &mut Option<Sender<()>>,
) -> Result<Vec<Worker>, DacapoError> {
    let mut busy = Vec::with_capacity(jobs.len());
    for job in jobs {
        let worker = match threads.workers.pop() {
            Some(worker) => worker,
            None => match spawn_worker() {
                Ok(worker) => worker,
                Err(e) => {
                    shutdown.store(true, Ordering::Release);
                    wake_tx.take();
                    finish_jobs(&mut busy, threads);
                    return Err(DacapoError::Runtime(format!("spawn stack thread: {e}")));
                }
            },
        };
        // An idle worker exits only once its job sender is dropped, so this
        // cannot fail; if it did, the disconnected done channel would count
        // as a returned job at shutdown.
        let _ = worker.jobs.send(job);
        busy.push(worker);
    }
    Ok(busy)
}

/// Builds and starts a stack: `modules` top-to-bottom between the
/// application and `transport`, run on `threads` (plus new threads if the
/// set is too small). Threads the stack does not need stay with it as
/// spares and come back from [`StackHandle::shutdown`].
///
/// # Errors
///
/// [`DacapoError::Runtime`] if an OS thread cannot be spawned; jobs
/// already started are stopped and every thread is joined before
/// returning.
pub fn build_stack(
    modules: Vec<Box<dyn Module>>,
    transport: Arc<dyn Transport>,
    opts: &RuntimeOptions,
    mut threads: StackThreads,
) -> Result<StackHandle, DacapoError> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let quiesce = Arc::new(QuiesceSignal::default());
    let transport_dead = Arc::new(AtomicBool::new(false));
    // Never sent on: exists only so that dropping `wake_tx` (at shutdown)
    // disconnects the receivers and wakes every blocked select below. It
    // carries no data, its capacity is irrelevant, and nothing can queue
    // on it — boundedness is moot.
    // lint: allow(A005, §7.4: never sent on — exists only so drop disconnects and wakes blocked selects)
    let (wake_tx, wake_rx) = unbounded::<()>();
    let mut wake_tx = Some(wake_tx);
    let module_names: Vec<String> = modules.iter().map(|m| m.name().to_owned()).collect();
    let mut jobs: Vec<Job> = Vec::with_capacity(modules.len() + 2);
    let mut queue_probes: Vec<Sender<Packet>> = Vec::new();
    let mut idle_flags: Vec<Arc<AtomicBool>> = Vec::new();

    let n = modules.len();
    // Down channels: d[0] = app -> first module … d[n] = last module -> T.
    let mut down_tx = Vec::with_capacity(n + 1);
    let mut down_rx = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        let (tx, rx) = bounded::<Packet>(opts.channel_capacity);
        queue_probes.push(tx.clone());
        down_tx.push(tx);
        down_rx.push(rx);
    }
    // Up channels: u[0] = first module -> app … u[n] = T -> last module.
    // Unbounded by design (module header): the wire already paces the up
    // direction, and a bounded up queue could deadlock two neighbouring
    // module threads against each other in `send`.
    let mut up_tx = Vec::with_capacity(n + 1);
    let mut up_rx = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        // lint: allow(A005, §7.4: up direction is wire-paced and drained by the app endpoint; a bound risks send/send deadlock)
        let (tx, rx) = unbounded::<Packet>();
        queue_probes.push(tx.clone());
        up_tx.push(tx);
        up_rx.push(rx);
    }

    // Module jobs. Module i consumes down_rx[i] and up_rx[i+1], and
    // produces into down_tx[i+1] and up_tx[i].
    let mut down_rx_iter = down_rx.into_iter();
    // lint: allow(L002, n+1 down channels were just created above; the iterator cannot be empty)
    let first_down_rx = down_rx_iter.next().expect("at least one down channel");
    let mut prev_down_rx = first_down_rx;
    for (i, module) in modules.into_iter().enumerate() {
        let down_in = prev_down_rx;
        // lint: allow(L002, loop runs n times over n+1 channels; one receiver per module by construction)
        prev_down_rx = down_rx_iter.next().expect("down channel per module");
        let up_in = up_rx[i + 1].clone();
        let down_out = down_tx[i + 1].clone();
        let up_out = up_tx[i].clone();
        let flag = shutdown.clone();
        let tick = opts.tick_interval;
        let idle = Arc::new(AtomicBool::new(true));
        idle_flags.push(idle.clone());
        let wake = wake_rx.clone();
        // Same-named modules (within a stack or across the two peers of a
        // connection sharing one registry) aggregate into one time series.
        let telemetry = opts
            .telemetry
            .as_ref()
            .map(|r| ModuleTelemetry::new(r, module.name()));
        let module_quiesce = quiesce.clone();
        jobs.push(Box::new(move || {
            module_loop(
                module, down_in, up_in, down_out, up_out, flag, tick, idle, wake,
                module_quiesce, telemetry,
            )
        }));
    }
    // The remaining down receiver feeds the transport TX pump.
    let t_down_rx = prev_down_rx;

    // Transport TX pump: blocks in a select over the bottom down queue and
    // the shutdown wake channel — no timeout, no polling.
    {
        let transport = transport.clone();
        let flag = shutdown.clone();
        let wake = wake_rx.clone();
        let tx_quiesce = quiesce.clone();
        let dead = transport_dead.clone();
        let app_up = up_tx[0].clone();
        let flight_reg = opts.telemetry.clone();
        let wire = opts.telemetry.as_ref().map(|r| {
            (
                r.counter(&Registry::labeled("dacapo_wire_frames_total", &[("dir", "tx")])),
                r.counter(&Registry::labeled("dacapo_wire_bytes_total", &[("dir", "tx")])),
            )
        });
        jobs.push(Box::new(move || loop {
            if flag.load(Ordering::Acquire) {
                return;
            }
            let mut sel = Select::new();
            let wake_idx = sel.recv(&wake);
            let down_idx = sel.recv(&t_down_rx);
            let op = sel.select();
            if op.index() == down_idx {
                match op.recv(&t_down_rx) {
                    Ok(pkt) => {
                        let wire_len = pkt.len() as u64;
                        if transport.send(pkt.into_bytes()).is_err() {
                            if !flag.load(Ordering::Acquire) {
                                signal_transport_death(
                                    &dead,
                                    &app_up,
                                    &tx_quiesce,
                                    flight_reg.as_deref(),
                                    "tx",
                                );
                            }
                            return;
                        }
                        if let Some((frames, bytes)) = &wire {
                            frames.inc();
                            bytes.add(wire_len);
                        }
                        // The bottom down queue just shrank; a drainer
                        // may now observe quiescence.
                        tx_quiesce.pulse();
                    }
                    Err(_) => return,
                }
            } else {
                debug_assert_eq!(op.index(), wake_idx);
                // Disconnected wake channel: shutdown was signalled;
                // the flag check at the top of the loop returns.
                let _ = op.recv(&wake);
            }
        }));
    }

    // Transport RX pump feeds up_tx[n] (bottom of the up chain). It blocks
    // in `Transport::recv`, which also ends when the wake channel
    // disconnects — like the TX pump, shutdown never waits on a clock.
    {
        let transport = transport.clone();
        let flag = shutdown.clone();
        let up_bottom = up_tx[n].clone();
        let wake = wake_rx.clone();
        let dead = transport_dead.clone();
        let app_up = up_tx[0].clone();
        let rx_quiesce = quiesce.clone();
        let flight_reg = opts.telemetry.clone();
        let wire = opts.telemetry.as_ref().map(|r| {
            (
                r.counter(&Registry::labeled("dacapo_wire_frames_total", &[("dir", "rx")])),
                r.counter(&Registry::labeled("dacapo_wire_bytes_total", &[("dir", "rx")])),
            )
        });
        jobs.push(Box::new(move || loop {
            if flag.load(Ordering::Acquire) {
                return;
            }
            match transport.recv(&wake) {
                Ok(Some(frame)) => {
                    if let Some((frames, bytes)) = &wire {
                        frames.inc();
                        bytes.add(frame.len() as u64);
                    }
                    let pkt = Packet::from_shared(frame, PacketKind::Data);
                    if up_bottom.send(pkt).is_err() {
                        return;
                    }
                }
                // Woken: shutdown was signalled.
                Ok(None) => return,
                Err(_) => {
                    // Permanent transport failure (peer severed, I/O
                    // error): tell the application instead of dying
                    // silently, unless this is an orderly shutdown.
                    if !flag.load(Ordering::Acquire) {
                        signal_transport_death(
                            &dead,
                            &app_up,
                            &rx_quiesce,
                            flight_reg.as_deref(),
                            "rx",
                        );
                    }
                    return;
                }
            }
        }));
    }

    let workers = start_jobs(jobs, &mut threads, &shutdown, &mut wake_tx)?;

    let tx_meter = Arc::new(ThroughputMeter::new());
    let rx_meter = Arc::new(ThroughputMeter::new());
    let app = AppEndpoint::new(
        down_tx[0].clone(),
        up_rx[0].clone(),
        tx_meter,
        rx_meter,
        quiesce.clone(),
        transport_dead.clone(),
    );

    // Drop our copies of intermediate senders so threads observe
    // disconnection when their upstream exits.
    drop(down_tx);
    drop(up_tx);
    drop(up_rx);

    Ok(StackHandle {
        app,
        shutdown,
        workers,
        spare: threads,
        module_names,
        queue_probes,
        idle_flags,
        quiesce,
        wake: wake_tx,
        transport_dead,
    })
}

/// One module's event loop.
#[allow(clippy::too_many_arguments)]
fn module_loop(
    mut module: Box<dyn Module>,
    down_in: Receiver<Packet>,
    up_in: Receiver<Packet>,
    down_out: Sender<Packet>,
    up_out: Sender<Packet>,
    shutdown: Arc<AtomicBool>,
    tick_interval: Duration,
    idle: Arc<AtomicBool>,
    wake: Receiver<()>,
    quiesce: Arc<QuiesceSignal>,
    telemetry: Option<ModuleTelemetry>,
) {
    let start = Instant::now();
    // The protocol timer runs on its own deadline, so a steady stream of
    // packets cannot postpone it: ARQ retransmission keeps its cadence
    // under load, not only after a quiet interval.
    let mut next_tick = start + tick_interval;
    let mut out = Outputs::new();
    let mut down_open = true;
    let mut up_open = true;

    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if !down_open && !up_open {
            return;
        }

        // Select over the currently admissible inputs. The shutdown wake
        // receiver always participates, so a blocked module pops out of
        // this select the instant teardown starts; the timeout is purely
        // the module's protocol timer deadline (ARQ retransmission), never
        // a poll.
        let take_down = down_open && module.ready_for_down();
        let mut sel = Select::new();
        let wake_idx = sel.recv(&wake);
        let up_idx = if up_open {
            Some(sel.recv(&up_in))
        } else {
            None
        };
        let down_idx = if take_down {
            Some(sel.recv(&down_in))
        } else {
            None
        };
        let _ = down_idx;

        let selected = sel.select_timeout(next_tick.saturating_duration_since(Instant::now()));
        // A packet is about to leave its queue: mark the module busy
        // first, so a drainer that sees the queue empty also sees the
        // module holding it.
        if matches!(&selected, Ok(op) if op.index() != wake_idx) {
            idle.store(false, Ordering::Release);
        }
        match selected {
            Ok(op) if op.index() == wake_idx => {
                // Disconnection of the wake channel signals shutdown; the
                // flag check at the top of the loop handles it.
                let _ = op.recv(&wake);
            }
            Ok(op) if Some(op.index()) == up_idx => match op.recv(&up_in) {
                Ok(pkt) => {
                    if let Some(t) = &telemetry {
                        t.up_frames.inc();
                        t.up_bytes.add(pkt.len() as u64);
                    }
                    module.process_up(pkt, &mut out)
                }
                Err(_) => up_open = false,
            },
            Ok(op) => match op.recv(&down_in) {
                Ok(pkt) => {
                    if let Some(t) = &telemetry {
                        t.down_frames.inc();
                        t.down_bytes.add(pkt.len() as u64);
                    }
                    module.process_down(pkt, &mut out)
                }
                Err(_) => down_open = false,
            },
            Err(_) => {} // the tick deadline passed: handled below
        }
        let now = Instant::now();
        if now >= next_tick {
            module.on_tick(now - start, &mut out);
            next_tick = now + tick_interval;
        }
        if let Some(t) = &telemetry {
            t.queue_depth.set((down_in.len() + up_in.len()) as f64);
        }

        for pkt in out.take_down() {
            if down_out.send(pkt).is_err() {
                // Downstream gone: the stack is dead. Put the busy flag
                // back, or a drain would wait out its whole timeout.
                quiesce.settle(&idle, module.is_idle());
                return;
            }
        }
        for pkt in out.take_up() {
            // Up channels are unbounded; a closed upstream just means the
            // application side is gone — keep running so in-flight ARQ
            // traffic can still drain.
            let _ = up_out.send(pkt);
        }
        // Each iteration is event-driven (select wakeup), so this pulse is
        // bounded by the event and tick rate — cheap, and it guarantees a
        // drainer re-checks after the final packet of a burst moves on.
        quiesce.settle(&idle, module.is_idle());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MechanismCatalog, ModuleParams};
    use crate::functions::MechanismId;
    use crate::tlayer::loopback_pair;
    use bytes::Bytes;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    fn modules_from(ids: &[&str]) -> Vec<Box<dyn Module>> {
        let catalog = MechanismCatalog::standard();
        let params = ModuleParams::default();
        ids.iter()
            .map(|id| {
                catalog
                    .get(&MechanismId::new(id))
                    .unwrap()
                    .instantiate(&params)
            })
            .collect()
    }

    /// A stack of `ids` over `transport`, on new threads.
    fn stack_on(ids: &[&str], transport: impl Transport, opts: &RuntimeOptions) -> StackHandle {
        build_stack(modules_from(ids), Arc::new(transport), opts, StackThreads::default()).unwrap()
    }

    fn stack_pair(ids: &[&str]) -> (StackHandle, StackHandle) {
        let (ta, tb) = loopback_pair();
        let opts = RuntimeOptions::default();
        let a = stack_on(ids, ta, &opts);
        let b = stack_on(ids, tb, &opts);
        (a, b)
    }

    #[test]
    fn empty_stack_round_trip() {
        let (a, b) = stack_pair(&[]);
        a.endpoint().send(Bytes::from_static(b"hi")).unwrap();
        let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&got[..], b"hi");
        assert_eq!(a.thread_count(), 2);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dummy_chain_round_trip() {
        let (a, b) = stack_pair(&["dummy", "dummy", "dummy"]);
        assert_eq!(a.thread_count(), 5);
        for i in 0..20u8 {
            a.endpoint().send(Bytes::from(vec![i; 100])).unwrap();
        }
        for i in 0..20u8 {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got[0], i);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn crc_stack_round_trip() {
        let (a, b) = stack_pair(&["crc32"]);
        a.endpoint().send(Bytes::from_static(b"checked")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"checked"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn encrypted_reliable_stack_round_trip() {
        let (a, b) = stack_pair(&["xor-crypt", "go-back-n", "crc32"]);
        for i in 0..10u8 {
            a.endpoint().send(Bytes::from(vec![i; 64])).unwrap();
        }
        for i in 0..10u8 {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got[0], i, "packet {i} corrupted or reordered");
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn bidirectional_traffic() {
        let (a, b) = stack_pair(&["crc16"]);
        a.endpoint().send(Bytes::from_static(b"to-b")).unwrap();
        b.endpoint().send(Bytes::from_static(b"to-a")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"to-b"
        );
        assert_eq!(
            &a.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"to-a"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn irq_stalls_sender_until_ack() {
        let (a, b) = stack_pair(&["irq"]);
        // The IRQ window is 1: sends serialise on acks, but all arrive.
        for i in 0..5u8 {
            a.endpoint().send(Bytes::from(vec![i])).unwrap();
        }
        for i in 0..5u8 {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got[0], i);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn meters_count_traffic() {
        let (a, b) = stack_pair(&[]);
        a.endpoint().send(Bytes::from(vec![0u8; 500])).unwrap();
        b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(a.endpoint().tx_meter().bytes(), 500);
        assert_eq!(b.endpoint().rx_meter().bytes(), 500);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shutdown_with_flooded_queues_does_not_deadlock() {
        // Regression: a sender flooding the stack leaves bounded queues
        // full; shutdown must still unblock modules stuck in `send`.
        let (ta, tb) = loopback_pair();
        // A transport that swallows sends keeps the wire from draining.
        let opts = RuntimeOptions::default();
        let a = stack_on(&["dummy"; 5], ta, &opts);
        let b = stack_on(&[], tb, &opts);
        // Flood until the app-side send would block, then a bit more from
        // a background thread to guarantee blocked module sends.
        let ep = a.endpoint().clone();
        let flooder = std::thread::spawn(move || {
            for _ in 0..10_000 {
                if ep.send(Bytes::from(vec![0u8; 1024])).is_err() {
                    return;
                }
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let threads = a.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown deadlocked with full queues"
        );
        b.shutdown();
        let _ = flooder.join();

        // The threads came back in working order: a fresh stack runs on
        // them and round-trips a packet.
        let (ta, tb) = loopback_pair();
        let a = build_stack(modules_from(&["dummy"; 5]), Arc::new(ta), &opts, threads).unwrap();
        let b = stack_on(&[], tb, &opts);
        a.endpoint().send(Bytes::from_static(b"after flood")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"after flood"
        );
        a.shutdown();
        b.shutdown();
    }

    type SeenThreads = Arc<Mutex<HashSet<ThreadId>>>;

    /// Forwards packets unchanged and records the thread it runs on.
    struct ThreadProbe(SeenThreads);

    impl Module for ThreadProbe {
        fn name(&self) -> &str {
            "thread-probe"
        }
        fn process_down(&mut self, pkt: Packet, out: &mut Outputs) {
            self.0.lock().insert(std::thread::current().id());
            out.push_down(pkt);
        }
        fn process_up(&mut self, pkt: Packet, out: &mut Outputs) {
            out.push_up(pkt);
        }
    }

    /// A transport that records the threads of the pumps calling it.
    struct ProbedTransport<T> {
        inner: T,
        seen: SeenThreads,
    }

    impl<T: Transport> Transport for ProbedTransport<T> {
        fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
            self.seen.lock().insert(std::thread::current().id());
            self.inner.send(frame)
        }
        fn recv(&self, wake: &Receiver<()>) -> Result<Option<Bytes>, DacapoError> {
            self.seen.lock().insert(std::thread::current().id());
            self.inner.recv(wake)
        }
        fn close(&self) {
            self.inner.close()
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    /// Sends one packet each way between `a` and `b`.
    fn round_trip(a: &StackHandle, b: &StackHandle) {
        a.endpoint().send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..], b"ping");
        b.endpoint().send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(&a.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..], b"pong");
    }

    #[test]
    fn rebuilt_stacks_reuse_the_old_threads() {
        let seen = SeenThreads::default();
        let (ta, tb) = loopback_pair();
        let ta: Arc<dyn Transport> = Arc::new(ProbedTransport {
            inner: ta,
            seen: seen.clone(),
        });
        let opts = RuntimeOptions::default();
        let peer = stack_on(&[], tb, &opts);
        let probes = |count: usize| -> Vec<Box<dyn Module>> {
            (0..count)
                .map(|_| Box::new(ThreadProbe(seen.clone())) as Box<dyn Module>)
                .collect()
        };
        let take_seen = || std::mem::take(&mut *seen.lock());

        // 4 threads, then 3 on the same threads (one spare), then 4 again.
        let first = build_stack(probes(2), ta.clone(), &opts, StackThreads::default()).unwrap();
        assert_eq!(first.thread_count(), 4);
        round_trip(&first, &peer);
        let first_ids = take_seen();
        assert_eq!(first_ids.len(), 4, "two modules and two pumps");

        let second = build_stack(probes(1), ta.clone(), &opts, first.shutdown()).unwrap();
        assert_eq!(second.thread_count(), 3);
        round_trip(&second, &peer);
        let second_ids = take_seen();
        assert_eq!(second_ids.len(), 3);
        assert!(second_ids.is_subset(&first_ids), "second stack spawned a thread");

        let third = build_stack(probes(2), ta.clone(), &opts, second.shutdown()).unwrap();
        assert_eq!(third.thread_count(), 4);
        round_trip(&third, &peer);
        let third_ids = take_seen();
        assert_eq!(third_ids.len(), 4);
        assert!(third_ids.is_subset(&first_ids), "the spare thread was not kept");

        third.shutdown();
        peer.shutdown();
    }

    /// Panics on the first packet sent down through it.
    struct PanicDown;

    impl Module for PanicDown {
        fn name(&self) -> &str {
            "panic-down"
        }
        fn process_down(&mut self, _pkt: Packet, _out: &mut Outputs) {
            panic!("module failure injected by the test");
        }
        fn process_up(&mut self, pkt: Packet, out: &mut Outputs) {
            out.push_up(pkt);
        }
    }

    #[test]
    fn panicked_module_thread_is_replaced() {
        let (ta, tb) = loopback_pair();
        let ta: Arc<dyn Transport> = Arc::new(ta);
        let opts = RuntimeOptions::default();
        let a = build_stack(vec![Box::new(PanicDown)], ta.clone(), &opts, StackThreads::default())
            .unwrap();
        let b = stack_on(&[], tb, &opts);
        a.endpoint().send(Bytes::from_static(b"boom")).unwrap();
        // The module thread dies; the application sees nothing arrive.
        assert!(b.endpoint().recv_timeout(Duration::from_millis(100)).is_err());

        let start = Instant::now();
        let threads = a.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown waited on a dead thread: {:?}",
            start.elapsed()
        );

        let a = build_stack(modules_from(&["dummy"]), ta, &opts, threads).unwrap();
        assert_eq!(a.thread_count(), 3);
        round_trip(&a, &b);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shutdown_joins_quickly() {
        let (a, b) = stack_pair(&["dummy"; 8]);
        let start = Instant::now();
        a.shutdown();
        b.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn recv_after_peer_shutdown_errors() {
        let (a, b) = stack_pair(&[]);
        a.shutdown();
        // b eventually reports closed or times out (loopback does not
        // propagate peer stack death, only transport closure would).
        let r = b.endpoint().recv_timeout(Duration::from_millis(100));
        assert!(r.is_err());
        b.shutdown();
    }

    #[test]
    fn telemetry_counts_module_and_wire_traffic() {
        let (ta, tb) = loopback_pair();
        let registry = Arc::new(Registry::new());
        let opts = RuntimeOptions {
            telemetry: Some(registry.clone()),
            ..RuntimeOptions::default()
        };
        let a = stack_on(&["crc32"], ta, &opts);
        let b = stack_on(&["crc32"], tb, &opts);
        for i in 0..10u8 {
            a.endpoint().send(Bytes::from(vec![i; 64])).unwrap();
        }
        for _ in 0..10 {
            b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let snap = registry.snapshot();
        let down = snap
            .counter("dacapo_module_frames_total{module=\"crc32\",dir=\"down\"}")
            .unwrap_or(0);
        let up = snap
            .counter("dacapo_module_frames_total{module=\"crc32\",dir=\"up\"}")
            .unwrap_or(0);
        assert!(down >= 10, "down frames through crc32: {down}");
        assert!(up >= 10, "up frames through crc32: {up}");
        assert!(
            snap.counter("dacapo_module_bytes_total{module=\"crc32\",dir=\"down\"}")
                .unwrap_or(0)
                >= 640
        );
        assert!(
            snap.counter("dacapo_wire_frames_total{dir=\"tx\"}").unwrap_or(0) >= 10
        );
        assert!(
            snap.counter("dacapo_wire_frames_total{dir=\"rx\"}").unwrap_or(0) >= 10
        );
        assert!(snap.gauge("dacapo_module_queue_depth{module=\"crc32\"}").is_some());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn transport_death_signals_application_promptly() {
        let (ta, tb) = loopback_pair();
        let opts = RuntimeOptions::default();
        let b = stack_on(&[], tb, &opts);
        // Data in flight before the wire dies is still delivered.
        ta.send(Bytes::from_static(b"last words")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"last words"
        );
        // Sever the wire: b's RX pump observes Closed as soon as it has
        // drained the wire, and must surface it to the application instead
        // of dying silently and leaving receives to idle out their timeout.
        ta.close();
        let start = Instant::now();
        let r = b.endpoint().recv_timeout(Duration::from_secs(10));
        assert!(matches!(r, Err(DacapoError::Closed)), "got {r:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "closure not surfaced promptly: {:?}",
            start.elapsed()
        );
        assert!(b.transport_closed());
        // Sends after death fail attributed, not swallowed.
        assert!(matches!(
            b.endpoint().send(Bytes::from_static(b"x")),
            Err(DacapoError::Closed)
        ));
        b.shutdown();
    }

    /// Holds each packet going down until the test releases it, after
    /// telling the test it has taken it.
    struct HoldDown {
        taken: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl Module for HoldDown {
        fn name(&self) -> &str {
            "hold-down"
        }
        fn process_down(&mut self, pkt: Packet, out: &mut Outputs) {
            let _ = self.taken.send(());
            let _ = self.release.recv();
            out.push_down(pkt);
        }
        fn process_up(&mut self, pkt: Packet, out: &mut Outputs) {
            out.push_up(pkt);
        }
    }

    #[test]
    fn drain_waits_for_a_packet_a_module_is_holding() {
        let (taken_tx, taken) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let hold = HoldDown {
            taken: taken_tx,
            release: release_rx,
        };
        let (ta, tb) = loopback_pair();
        let opts = RuntimeOptions::default();
        let a = build_stack(
            vec![Box::new(hold)],
            Arc::new(ta),
            &opts,
            StackThreads::default(),
        )
        .unwrap();
        let b = stack_on(&[], tb, &opts);
        // Declared after the stacks, so a failed assertion drops it first
        // and unblocks the module before the stacks are torn down.
        let release = release;
        a.endpoint().send(Bytes::from_static(b"last")).unwrap();
        // The module has taken the packet off its queue: every queue is
        // empty, yet the stack is not drained.
        taken.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(!a.is_quiescent());
        assert!(!a.drain(Duration::from_millis(50)));
        release.send(()).unwrap();
        assert!(a.drain(Duration::from_secs(5)));
        // Close after drain loses nothing.
        a.shutdown();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"last"
        );
        b.shutdown();
    }

    /// Forwards packets unchanged and counts its protocol-timer ticks.
    struct TickCounter(Arc<std::sync::atomic::AtomicUsize>);

    impl Module for TickCounter {
        fn name(&self) -> &str {
            "tick-counter"
        }
        fn process_down(&mut self, pkt: Packet, out: &mut Outputs) {
            out.push_down(pkt);
        }
        fn process_up(&mut self, pkt: Packet, out: &mut Outputs) {
            out.push_up(pkt);
        }
        fn on_tick(&mut self, _now: Duration, _out: &mut Outputs) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn ticks_keep_their_cadence_under_steady_input() {
        let ticks = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (ta, tb) = loopback_pair();
        let opts = RuntimeOptions {
            tick_interval: Duration::from_millis(10),
            ..RuntimeOptions::default()
        };
        let stack = build_stack(
            vec![Box::new(TickCounter(ticks.clone()))],
            Arc::new(ta),
            &opts,
            StackThreads::default(),
        )
        .unwrap();
        // Up traffic every 2 ms, five packets per tick interval: the
        // module's select never sits idle for a whole interval.
        let start = Instant::now();
        let mut sent = 0;
        while start.elapsed() < Duration::from_millis(300) {
            tb.send(Bytes::from_static(b"steady")).unwrap();
            sent += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        let elapsed = start.elapsed();
        for _ in 0..sent {
            stack
                .endpoint()
                .recv_timeout(Duration::from_secs(5))
                .unwrap();
        }
        let fired = ticks.load(Ordering::Relaxed);
        let due = (elapsed.as_millis() / opts.tick_interval.as_millis()) as usize;
        assert!(
            fired * 2 >= due,
            "{fired} ticks in {elapsed:?} of steady input, {due} due"
        );
        stack.shutdown();
    }

    #[test]
    fn module_names_reported() {
        let (a, b) = stack_pair(&["xor-crypt", "crc32"]);
        assert_eq!(
            a.module_names(),
            &["xor-crypt".to_string(), "crc32".to_string()]
        );
        a.shutdown();
        b.shutdown();
    }
}
