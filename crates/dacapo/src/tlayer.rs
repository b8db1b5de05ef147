//! Layer T: the generic transport infrastructure.
//!
//! *"Endsystems communicate via the transport infrastructure (layer T),
//! representing the available communication infrastructure with end-to-end
//! connectivity (i.e., T services are generic)"* (Section 5.1). A
//! [`Transport`] moves opaque frames; three implementations ship:
//!
//! * [`LoopbackTransport`] — in-process queues (colocated tests, the
//!   fastest baseline);
//! * [`TcpTransport`] — a real TCP connection with length-prefixed frames,
//!   exactly the paper's "T module encapsulating TCP";
//! * [`NetsimTransport`] — a `netsim` link endpoint standing in for the
//!   ATM testbed, with shaped bandwidth/delay/loss.

use crate::error::DacapoError;
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender, TryRecvError};
use parking_lot::Mutex;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A frame-oriented point-to-point transport.
///
/// Implementations must be thread-safe: the runtime calls `send` from the
/// TX pump thread and `recv` from the RX pump thread concurrently.
pub trait Transport: Send + Sync + 'static {
    /// Sends one frame to the peer.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Closed`] after [`Transport::close`];
    /// [`DacapoError::Transport`] for I/O failures.
    fn send(&self, frame: Bytes) -> Result<(), DacapoError>;

    /// Receives the next frame, waiting until one arrives, the transport
    /// closes, or `wake` disconnects.
    ///
    /// `wake` is the stack's shutdown channel: nothing is ever sent on it,
    /// and dropping its sender ends the wait with `Ok(None)`. That is how
    /// stack teardown stops the RX pump without a clock.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Closed`] once the transport is closed and drained;
    /// [`DacapoError::Transport`] for I/O failures.
    fn recv(&self, wake: &Receiver<()>) -> Result<Option<Bytes>, DacapoError>;

    /// Closes this side. Which blocked [`Transport::recv`] calls that
    /// unblocks depends on the transport:
    ///
    /// * loopback drops the senders of both directions: sends fail on both
    ///   halves, and a `recv` blocked on either half returns
    ///   [`DacapoError::Closed`] once it has drained what was queued for it;
    /// * TCP shuts the socket down both ways: the reader threads on both
    ///   sides see EOF and disconnect their queues, so a `recv` on either
    ///   side returns `Closed` once drained; this side's sends fail at once;
    /// * netsim marks only this side closed: its sends fail at once and its
    ///   `recv` returns `Closed` within one 10 ms wake slice. The peer
    ///   sees the link disconnect only when this endpoint is dropped.
    ///
    /// A `recv` that `close` does not reach still ends when its wake
    /// channel disconnects.
    fn close(&self);

    /// Largest frame this transport can carry.
    fn mtu(&self) -> usize {
        usize::MAX
    }

    /// Diagnostic name.
    fn name(&self) -> &str;
}

impl Transport for Box<dyn Transport> {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        (**self).send(frame)
    }

    fn recv(&self, wake: &Receiver<()>) -> Result<Option<Bytes>, DacapoError> {
        (**self).recv(wake)
    }

    fn close(&self) {
        (**self).close()
    }

    fn mtu(&self) -> usize {
        (**self).mtu()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Waits on a frame queue and the stack's wake channel together: the next
/// frame, `None` once `wake` disconnects, or [`DacapoError::Closed`] once
/// `frames` is disconnected and drained.
fn select_frame(
    frames: &Receiver<Bytes>,
    wake: &Receiver<()>,
) -> Result<Option<Bytes>, DacapoError> {
    let mut sel = Select::new();
    let frame_idx = sel.recv(frames);
    sel.recv(wake);
    let op = sel.select();
    if op.index() == frame_idx {
        op.recv(frames).map(Some).map_err(|_| DacapoError::Closed)
    } else {
        let _ = op.recv(wake);
        Ok(None)
    }
}

/// One direction of a loopback wire. Both halves hold both directions, so
/// closing either half drops both senders.
type LoopbackWire = Arc<Mutex<Option<Sender<Bytes>>>>;

/// In-process transport half backed by crossbeam channels.
#[derive(Debug)]
pub struct LoopbackTransport {
    /// Outbound wire; `None` once either half closed.
    tx: LoopbackWire,
    /// The peer's outbound wire, which feeds `rx`.
    peer_tx: LoopbackWire,
    rx: Receiver<Bytes>,
}

/// Creates a connected pair of loopback transports.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    // lint: allow(L003, loopback models an infinitely fast wire; a bound here would deadlock symmetric send/send peers)
    // lint: allow(A005, §7.4: loopback wire, drained by peer recv and paced by the sending protocol stack)
    let (a_tx, b_rx) = unbounded();
    // lint: allow(L003, loopback models an infinitely fast wire; a bound here would deadlock symmetric send/send peers)
    // lint: allow(A005, §7.4: loopback wire, drained by peer recv and paced by the sending protocol stack)
    let (b_tx, a_rx) = unbounded();
    let a_wire: LoopbackWire = Arc::new(Mutex::new(Some(a_tx)));
    let b_wire: LoopbackWire = Arc::new(Mutex::new(Some(b_tx)));
    let a = LoopbackTransport {
        tx: a_wire.clone(),
        peer_tx: b_wire.clone(),
        rx: a_rx,
    };
    let b = LoopbackTransport {
        tx: b_wire,
        peer_tx: a_wire,
        rx: b_rx,
    };
    (a, b)
}

impl Transport for LoopbackTransport {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        match &*self.tx.lock() {
            Some(tx) => tx.send(frame).map_err(|_| DacapoError::Closed),
            None => Err(DacapoError::Closed),
        }
    }

    fn recv(&self, wake: &Receiver<()>) -> Result<Option<Bytes>, DacapoError> {
        select_frame(&self.rx, wake)
    }

    fn close(&self) {
        self.tx.lock().take();
        self.peer_tx.lock().take();
    }

    fn name(&self) -> &str {
        "loopback"
    }
}

/// TCP transport with 4-byte big-endian length-prefixed frames.
///
/// A dedicated reader thread owns the receiving half so that read timeouts
/// can never tear a frame in half; received frames queue internally.
pub struct TcpTransport {
    writer: Mutex<TcpStream>,
    frames: Receiver<Bytes>,
    closed: Arc<AtomicBool>,
    stream: TcpStream,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

/// Upper bound on a TCP frame (guards allocation on corrupt streams).
const MAX_TCP_FRAME: u32 = 256 * 1024 * 1024;

/// Writes `prefix` then `frame` with vectored I/O: the length prefix and
/// the frame body go to the kernel in one `writev`-style call instead of
/// two writes (which would tempt Nagle/delayed-ACK interactions and cost a
/// syscall), looping on partial writes. Shared by every length-prefixed
/// TCP framing in the workspace.
pub fn write_frame_vectored<W: Write>(
    w: &mut W,
    prefix: &[u8],
    frame: &[u8],
) -> std::io::Result<()> {
    let total = prefix.len() + frame.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < prefix.len() {
            w.write_vectored(&[IoSlice::new(&prefix[written..]), IoSlice::new(frame)])?
        } else {
            w.write(&frame[written - prefix.len()..])?
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        written += n;
    }
    Ok(())
}

/// Receive queue depth between the reader thread and `recv` callers. When
/// full, the reader blocks, so backpressure lands in the kernel socket
/// buffer (and ultimately the sender) instead of unbounded heap growth.
const TCP_RX_QUEUE_DEPTH: usize = 1024;

impl TcpTransport {
    /// Wraps a connected stream.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Transport`] if the stream cannot be cloned for the
    /// reader thread.
    pub fn new(stream: TcpStream) -> Result<Self, DacapoError> {
        stream.set_nodelay(true).ok();
        let reader_stream = stream
            .try_clone()
            .map_err(|e| DacapoError::Transport(format!("clone tcp stream: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| DacapoError::Transport(format!("clone tcp stream: {e}")))?;
        let closed = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded(TCP_RX_QUEUE_DEPTH);
        let flag = closed.clone();
        std::thread::Builder::new()
            .name("dacapo-tcp-reader".into())
            // lint: allow(A007, reader exits on socket close/error; close() sets the flag and shuts the stream down)
            .spawn(move || Self::reader_loop(reader_stream, tx, flag))
            .map_err(|e| DacapoError::Transport(format!("spawn reader: {e}")))?;
        Ok(TcpTransport {
            writer: Mutex::new(writer),
            frames: rx,
            closed,
            stream,
        })
    }

    fn reader_loop(mut stream: TcpStream, tx: Sender<Bytes>, closed: Arc<AtomicBool>) {
        let mut len_buf = [0u8; 4];
        loop {
            if closed.load(Ordering::Acquire) {
                return;
            }
            if stream.read_exact(&mut len_buf).is_err() {
                return; // peer closed or error: channel sender drops
            }
            let len = u32::from_be_bytes(len_buf);
            if len > MAX_TCP_FRAME {
                return; // corrupt stream: give up
            }
            let mut frame = vec![0u8; len as usize];
            if stream.read_exact(&mut frame).is_err() {
                return;
            }
            if tx.send(Bytes::from(frame)).is_err() {
                return;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(DacapoError::Closed);
        }
        let mut writer = self.writer.lock();
        let len = (frame.len() as u32).to_be_bytes();
        write_frame_vectored(&mut *writer, &len, &frame)
            .and_then(|_| writer.flush())
            .map_err(|e| DacapoError::Transport(format!("tcp send: {e}")))
    }

    fn recv(&self, wake: &Receiver<()>) -> Result<Option<Bytes>, DacapoError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(DacapoError::Closed);
        }
        select_frame(&self.frames, wake)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn name(&self) -> &str {
        "tcp"
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.close();
    }
}

/// How long a netsim receive waits before it checks the stack's wake
/// channel again. The link's wait is a condvar that cannot join a channel
/// `Select`, so this slice bounds how late a netsim stack's teardown can
/// be; frame arrival still wakes the receiver at once.
const NETSIM_WAKE_SLICE: Duration = Duration::from_millis(10);

/// Transport over a simulated `netsim` link endpoint.
#[derive(Debug)]
pub struct NetsimTransport {
    endpoint: netsim::Endpoint,
    closed: AtomicBool,
}

impl NetsimTransport {
    /// Wraps one endpoint of a [`netsim::Link`].
    pub fn new(endpoint: netsim::Endpoint) -> Self {
        NetsimTransport {
            endpoint,
            closed: AtomicBool::new(false),
        }
    }
}

impl Transport for NetsimTransport {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(DacapoError::Closed);
        }
        match self.endpoint.send(frame) {
            Ok(()) => Ok(()),
            Err(netsim::NetSimError::FrameTooLarge { len, mtu }) => Err(DacapoError::Transport(
                format!("frame {len} exceeds link mtu {mtu}"),
            )),
            Err(e) => Err(DacapoError::Transport(e.to_string())),
        }
    }

    fn recv(&self, wake: &Receiver<()>) -> Result<Option<Bytes>, DacapoError> {
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(DacapoError::Closed);
            }
            if !matches!(wake.try_recv(), Err(TryRecvError::Empty)) {
                return Ok(None);
            }
            match self.endpoint.recv_timeout(NETSIM_WAKE_SLICE) {
                Ok(frame) => return Ok(Some(frame)),
                Err(netsim::NetSimError::Timeout(_)) => {}
                Err(netsim::NetSimError::Disconnected) => return Err(DacapoError::Closed),
                Err(e) => return Err(DacapoError::Transport(e.to_string())),
            }
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    fn mtu(&self) -> usize {
        self.endpoint.spec().mtu()
    }

    fn name(&self) -> &str {
        "netsim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    /// A wake channel that stays connected while the returned sender
    /// lives, so a `recv` on it ends only on a frame or a close.
    fn wake() -> (Sender<()>, Receiver<()>) {
        bounded(1)
    }

    fn recv_frame(t: &impl Transport) -> Result<Option<Bytes>, DacapoError> {
        let (_keep, wake) = wake();
        t.recv(&wake)
    }

    #[test]
    fn loopback_round_trip() {
        let (a, b) = loopback_pair();
        a.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&recv_frame(&b).unwrap().unwrap()[..], b"ping");
        b.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(&recv_frame(&a).unwrap().unwrap()[..], b"pong");
    }

    #[test]
    fn loopback_close_propagates() {
        let (a, b) = loopback_pair();
        a.send(Bytes::from_static(b"queued")).unwrap();
        let b = Arc::new(b);
        let reader = {
            let b = b.clone();
            std::thread::spawn(move || {
                let first = recv_frame(&*b);
                let blocked_at = Instant::now();
                (first, recv_frame(&*b), blocked_at.elapsed())
            })
        };
        // Let the reader drain the queued frame and block on the empty wire.
        std::thread::sleep(Duration::from_millis(50));
        a.close();
        let (first, second, waited) = reader.join().unwrap();
        assert_eq!(&first.unwrap().unwrap()[..], b"queued");
        assert!(matches!(second, Err(DacapoError::Closed)), "got {second:?}");
        assert!(
            waited < Duration::from_secs(1),
            "close took {waited:?} to wake the peer"
        );
        assert!(matches!(a.send(Bytes::new()), Err(DacapoError::Closed)));
        assert!(matches!(b.send(Bytes::new()), Err(DacapoError::Closed)));
    }

    /// Blocks `t` in a receive on another thread, then drops the wake
    /// sender: the receive must end with `Ok(None)`.
    fn assert_wake_ends_recv(t: impl Transport) {
        let (keep, wake) = wake();
        let reader = std::thread::spawn(move || t.recv(&wake));
        std::thread::sleep(Duration::from_millis(20));
        drop(keep);
        let got = reader.join().unwrap();
        assert!(matches!(got, Ok(None)), "got {got:?}");
    }

    #[test]
    fn recv_returns_none_when_wake_disconnects() {
        let (_a, b) = loopback_pair();
        assert_wake_ends_recv(b);
        let (_a, b) = tcp_pair();
        assert_wake_ends_recv(b);
        let link = netsim::Link::real_time(netsim::LinkSpec::default());
        let (_ea, eb) = link.endpoints();
        assert_wake_ends_recv(NetsimTransport::new(eb));
    }

    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (
            TcpTransport::new(client).unwrap(),
            TcpTransport::new(server).unwrap(),
        )
    }

    #[test]
    fn tcp_round_trip_preserves_frame_boundaries() {
        let (a, b) = tcp_pair();
        a.send(Bytes::from_static(b"one")).unwrap();
        a.send(Bytes::from_static(b"twotwo")).unwrap();
        assert_eq!(&recv_frame(&b).unwrap().unwrap()[..], b"one");
        assert_eq!(&recv_frame(&b).unwrap().unwrap()[..], b"twotwo");
    }

    #[test]
    fn tcp_large_frame() {
        let (a, b) = tcp_pair();
        let big = vec![0xAB; 1 << 20];
        a.send(Bytes::from(big.clone())).unwrap();
        let got = recv_frame(&b).unwrap().unwrap();
        assert_eq!(&got[..], &big[..]);
    }

    #[test]
    fn tcp_close_unblocks_peer() {
        let (a, b) = tcp_pair();
        a.close();
        // The peer's reader thread sees EOF and disconnects its queue.
        let result = recv_frame(&b);
        assert!(matches!(result, Err(DacapoError::Closed)), "got {result:?}");
    }

    #[test]
    fn netsim_transport_round_trip() {
        let link = netsim::Link::real_time(
            netsim::LinkSpec::builder()
                .bandwidth_bps(1_000_000_000)
                .propagation(Duration::ZERO)
                .build()
                .unwrap(),
        );
        let (ea, eb) = link.endpoints();
        let (ta, tb) = (NetsimTransport::new(ea), NetsimTransport::new(eb));
        ta.send(Bytes::from_static(b"over the simulated wire"))
            .unwrap();
        assert_eq!(
            &recv_frame(&tb).unwrap().unwrap()[..],
            b"over the simulated wire"
        );
        assert!(tb.mtu() > 0);
    }
}
