//! MPMC channels with `Select`, shimming `crossbeam::channel`.
//!
//! Implementation: a `VecDeque` behind a mutex with two condvars
//! (not-empty / not-full) and a per-`Select` waker registered with every
//! participating channel so a push or disconnect wakes the selector.
//!
//! std's `Condvar::notify_*` always enters the kernel, so every wake-up is
//! gated on a sleeper being there to take it: the channel counts parked
//! receivers and senders under its mutex, and a `Select` waker records
//! whether its selector is parked. A hand-off between two busy threads
//! then costs a lock and no syscall.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded channel with capacity `cap`.
///
/// Like crossbeam, `cap == 0` would mean a rendezvous channel; this shim
/// treats it as capacity 1 (the workspace never creates zero-capacity
/// channels).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap.max(1)))
}

fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let core = Arc::new(Core {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
            parked_receivers: 0,
            parked_senders: 0,
            wakers: Vec::new(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            core: Arc::clone(&core),
        },
        Receiver { core },
    )
}

struct State<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
    /// Receivers blocked on `not_empty`.
    parked_receivers: usize,
    /// Senders blocked on `not_full`.
    parked_senders: usize,
    wakers: Vec<Weak<SelectWaker>>,
}

impl<T> State<T> {
    fn wake_selects(&mut self) {
        self.wakers.retain(|w| match w.upgrade() {
            Some(w) => {
                w.notify();
                true
            }
            None => false,
        });
    }
}

struct Core<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

type Guard<'a, T> = std::sync::MutexGuard<'a, State<T>>;

impl<T> Core<T> {
    fn lock(&self) -> Guard<'_, T> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Announces a queued message to selectors and one parked receiver.
    fn pushed(&self, st: &mut State<T>) {
        st.wake_selects();
        if st.parked_receivers > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Announces a freed slot to one parked sender.
    fn popped(&self, st: &State<T>) {
        if st.parked_senders > 0 {
            self.not_full.notify_one();
        }
    }

    /// Parks a receiver on `not_empty` until notified or `deadline`.
    fn park_receiver<'a>(&self, mut st: Guard<'a, T>, deadline: Option<Instant>) -> Guard<'a, T> {
        st.parked_receivers += 1;
        let mut st = park(&self.not_empty, st, deadline);
        st.parked_receivers -= 1;
        st
    }

    /// Parks a sender on `not_full` until notified.
    fn park_sender<'a>(&self, mut st: Guard<'a, T>) -> Guard<'a, T> {
        st.parked_senders += 1;
        let mut st = park(&self.not_full, st, None);
        st.parked_senders -= 1;
        st
    }
}

/// Waits on `cv`, bounded by `deadline` when given.
fn park<'a, S>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, S>,
    deadline: Option<Instant>,
) -> std::sync::MutexGuard<'a, S> {
    match deadline {
        None => cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
        Some(d) => {
            let wait = d.saturating_duration_since(Instant::now());
            cv.wait_timeout(guard, wait)
                .unwrap_or_else(|e| e.into_inner())
                .0
        }
    }
}

/// The sending half of a channel. Cloneable (multi-producer).
pub struct Sender<T> {
    core: Arc<Core<T>>,
}

/// The receiving half of a channel. Cloneable (multi-consumer).
pub struct Receiver<T> {
    core: Arc<Core<T>>,
}

impl<T> Sender<T> {
    /// Blocks until the value is enqueued; errors when all receivers are gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.core.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.cap.map_or(true, |c| st.queue.len() < c) {
                st.queue.push_back(value);
                self.core.pushed(&mut st);
                return Ok(());
            }
            st = self.core.park_sender(st);
        }
    }

    /// Enqueues without blocking, or reports why it can't.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.core.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if st.cap.is_some_and(|c| st.queue.len() >= c) {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        self.core.pushed(&mut st);
        Ok(())
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.core.lock().queue.is_empty()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.core.lock().queue.len()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.core.lock().senders += 1;
        Sender {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.core.lock();
        st.senders -= 1;
        if st.senders == 0 {
            st.wake_selects();
            if st.parked_receivers > 0 {
                self.core.not_empty.notify_all();
            }
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives; errors when the channel is empty and
    /// all senders are gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.core.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.core.popped(&st);
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.core.park_receiver(st, None);
        }
    }

    /// Blocks with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_deadline(Instant::now() + timeout)
    }

    /// Blocks until the given deadline.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut st = self.core.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.core.popped(&st);
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            if Instant::now() >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self.core.park_receiver(st, Some(deadline));
        }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.core.lock();
        if let Some(v) = st.queue.pop_front() {
            self.core.popped(&st);
            return Ok(v);
        }
        if st.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Drains currently queued messages without blocking.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.core.lock().queue.is_empty()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.core.lock().queue.len()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.core.lock().receivers += 1;
        Receiver {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.core.lock();
        st.receivers -= 1;
        if st.receivers == 0 && st.parked_senders > 0 {
            self.core.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Iterator over currently available messages (see [`Receiver::try_iter`]).
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Error for [`Sender::send`]: all receivers disconnected.
#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    /// Returns the message that could not be sent.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> Error for SendError<T> {}

/// Error for [`Sender::try_send`].
#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    /// The channel is full.
    Full(T),
    /// All receivers disconnected.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Returns the message that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }

    /// True for the `Full` variant.
    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }

    /// True for the `Disconnected` variant.
    pub fn is_disconnected(&self) -> bool {
        matches!(self, TrySendError::Disconnected(_))
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("sending on a full channel"),
            TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

impl<T> Error for TrySendError<T> {}

/// Error for [`Receiver::recv`]: channel empty and all senders disconnected.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl Error for RecvError {}

/// Error for [`Receiver::try_recv`].
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// Channel empty and all senders disconnected.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl Error for TryRecvError {}

/// Error for [`Receiver::recv_timeout`].
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no message.
    Timeout,
    /// Channel empty and all senders disconnected.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl Error for RecvTimeoutError {}

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

/// Wakes one selector. Only that selector ever waits on it.
struct SelectWaker {
    state: Mutex<WakerState>,
    cv: Condvar,
}

#[derive(Default)]
struct WakerState {
    /// A registered channel changed since the selector last looked.
    signalled: bool,
    /// The selector is parked on `cv`.
    parked: bool,
}

impl SelectWaker {
    fn new() -> Self {
        SelectWaker {
            state: Mutex::new(WakerState::default()),
            cv: Condvar::new(),
        }
    }

    fn notify(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.signalled = true;
        if s.parked {
            self.cv.notify_one();
        }
    }

    /// Waits until signalled or the deadline passes. Returns true on timeout.
    fn wait_deadline(&self, deadline: Instant) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if s.signalled {
                s.signalled = false;
                return false;
            }
            if Instant::now() >= deadline {
                return true;
            }
            s.parked = true;
            s = park(&self.cv, s, Some(deadline));
            s.parked = false;
        }
    }
}

trait SelectHandle {
    /// True when an operation on this channel would not block:
    /// a message is queued or the channel is disconnected.
    fn ready(&self) -> bool;
    fn register(&self, waker: &Arc<SelectWaker>);
}

impl<T> SelectHandle for Receiver<T> {
    fn ready(&self) -> bool {
        let st = self.core.lock();
        !st.queue.is_empty() || st.senders == 0
    }

    fn register(&self, waker: &Arc<SelectWaker>) {
        let mut st = self.core.lock();
        st.wakers.retain(|w| w.strong_count() > 0);
        st.wakers.push(Arc::downgrade(waker));
    }
}

/// Error for [`Select::select_timeout`]: no operation became ready in time.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub struct SelectTimeoutError;

impl fmt::Display for SelectTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("select timed out")
    }
}

impl Error for SelectTimeoutError {}

/// Waits over multiple receive operations (shim of `crossbeam::channel::Select`,
/// receive side only).
pub struct Select<'a> {
    handles: Vec<&'a dyn SelectHandle>,
}

impl<'a> Select<'a> {
    /// Creates an empty selector.
    pub fn new() -> Self {
        Select {
            handles: Vec::new(),
        }
    }

    /// Adds a receive operation; returns its index.
    pub fn recv<T>(&mut self, receiver: &'a Receiver<T>) -> usize {
        self.handles.push(receiver);
        self.handles.len() - 1
    }

    /// Blocks until one registered operation is ready.
    pub fn select(&mut self) -> SelectedOperation<'a> {
        loop {
            if let Ok(op) = self.select_timeout(Duration::from_secs(3600)) {
                return op;
            }
        }
    }

    /// Blocks until one registered operation is ready or the timeout elapses.
    pub fn select_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<SelectedOperation<'a>, SelectTimeoutError> {
        assert!(!self.handles.is_empty(), "selecting on no operations");
        // An input that is ready already needs no waker: on a busy path
        // this is the common case, and it allocates and registers nothing.
        if let Some(op) = self.scan() {
            return Ok(op);
        }
        let deadline = Instant::now() + timeout;
        let waker = Arc::new(SelectWaker::new());
        for h in &self.handles {
            h.register(&waker);
        }
        loop {
            // Scanning after registering closes the race with a push that
            // landed between the first scan and the registration.
            if let Some(op) = self.scan() {
                return Ok(op);
            }
            if waker.wait_deadline(deadline) {
                // Timed out: one last scan to close the race between the
                // final check and the deadline.
                return self.scan().ok_or(SelectTimeoutError);
            }
        }
    }

    fn scan(&self) -> Option<SelectedOperation<'a>> {
        let index = self.handles.iter().position(|h| h.ready())?;
        Some(SelectedOperation {
            index,
            _marker: PhantomData,
        })
    }
}

impl Default for Select<'_> {
    fn default() -> Self {
        Select::new()
    }
}

/// A ready operation returned by [`Select`]. Complete it with
/// [`SelectedOperation::recv`].
pub struct SelectedOperation<'a> {
    index: usize,
    _marker: PhantomData<&'a ()>,
}

impl SelectedOperation<'_> {
    /// Index of the ready operation (as returned by [`Select::recv`]).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Completes the receive.
    ///
    /// "Ready" can mean a queued message was consumed by another receiver
    /// between the scan and this call; in that rare case this blocks until
    /// the next message (matching crossbeam's retry semantics closely enough
    /// for single-consumer-per-channel use).
    pub fn recv<T>(self, receiver: &Receiver<T>) -> Result<T, RecvError> {
        match receiver.try_recv() {
            Ok(v) => Ok(v),
            Err(TryRecvError::Disconnected) => Err(RecvError),
            Err(TryRecvError::Empty) => receiver.recv(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn round_trip_unbounded() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn bounded_blocks_and_unblocks() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert!(tx.try_send(2).unwrap_err().is_full());
        let t = thread::spawn(move || tx.send(2));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        t.join().unwrap().unwrap();
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap_err(), RecvError);

        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send(9).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 9);
        t.join().unwrap();
    }

    #[test]
    fn mpmc_receiver_clones_share_stream() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        assert_eq!(a + b, 3);
    }

    #[test]
    fn bounded_one_moves_every_item_between_four_by_four_threads() {
        // Every hand-off on a one-slot channel either finds its peer
        // parked (and counted) or leaves the state the peer checks next:
        // a lost wake-up would surface as a 5 s timeout here.
        const PER_PRODUCER: u64 = 25_000;
        let (tx, rx) = bounded::<u64>(1);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.send(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let (mut count, mut sum) = (0u64, 0u64);
                    loop {
                        match rx.recv_timeout(Duration::from_secs(5)) {
                            Ok(v) => {
                                count += 1;
                                sum += v;
                            }
                            Err(RecvTimeoutError::Disconnected) => return (count, sum),
                            Err(RecvTimeoutError::Timeout) => panic!("lost wake-up"),
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let (count, sum) = consumers
            .into_iter()
            .map(|c| c.join().unwrap())
            .fold((0, 0), |(c, s), (c2, s2)| (c + c2, s + s2));
        let n = 4 * PER_PRODUCER;
        assert_eq!(count, n);
        assert_eq!(sum, n * (n - 1) / 2);
        let st = rx.core.lock();
        assert_eq!((st.parked_receivers, st.parked_senders), (0, 0));
    }

    #[test]
    fn select_over_a_ready_channel_registers_no_waker() {
        let (tx, rx) = unbounded::<u8>();
        let (_idle_tx, idle_rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        let mut sel = Select::new();
        let i = sel.recv(&rx);
        sel.recv(&idle_rx);
        let op = sel.select_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(op.index(), i);
        assert_eq!(op.recv(&rx).unwrap(), 1);
        assert_eq!(rx.core.lock().wakers.len(), 0);
        assert_eq!(idle_rx.core.lock().wakers.len(), 0);

        // The slow path still registers: nothing ready, so the selector
        // parks with a waker on every input.
        let mut sel = Select::new();
        sel.recv(&idle_rx);
        assert!(sel.select_timeout(Duration::from_millis(1)).is_err());
        assert_eq!(idle_rx.core.lock().wakers.len(), 1);
    }

    /// Blocks until a selector is parked on a waker registered with `rx`,
    /// so the caller's next operation must wake it rather than be seen by
    /// its scan.
    fn wait_for_parked_selector<T>(rx: &Receiver<T>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let parked = rx
                .core
                .lock()
                .wakers
                .iter()
                .any(|w| w.upgrade().is_some_and(|w| w.state.lock().unwrap().parked));
            if parked {
                return;
            }
            assert!(Instant::now() < deadline, "selector never parked");
            thread::yield_now();
        }
    }

    #[test]
    fn parked_select_wakes_on_send_and_on_disconnect() {
        let (tx1, rx1) = unbounded::<u8>();
        let (tx2, rx2) = unbounded::<u8>();
        let (phase_tx, phase_rx) = unbounded::<()>();
        let waker = {
            let rx1 = rx1.clone();
            let rx2 = rx2.clone();
            thread::spawn(move || {
                wait_for_parked_selector(&rx1);
                tx1.send(42).unwrap();
                // The first selector also watched rx2: wait until it is
                // gone, so the parked one found next is the second.
                phase_rx.recv().unwrap();
                wait_for_parked_selector(&rx2);
                drop(tx2);
            })
        };
        let mut sel = Select::new();
        let i1 = sel.recv(&rx1);
        let _idle = sel.recv(&rx2);
        let op = sel.select_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(op.index(), i1);
        assert_eq!(op.recv(&rx1).unwrap(), 42);
        phase_tx.send(()).unwrap();

        let mut sel = Select::new();
        let i2 = sel.recv(&rx2);
        let op = sel.select_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(op.index(), i2);
        assert!(op.recv(&rx2).is_err());
        waker.join().unwrap();
    }

    #[test]
    fn select_times_out() {
        let (_tx, rx) = unbounded::<u8>();
        let mut sel = Select::new();
        sel.recv(&rx);
        assert!(sel.select_timeout(Duration::from_millis(10)).is_err());
    }
}
