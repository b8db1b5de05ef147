//! Distributed traces: the two halves of a traced invocation.
//!
//! The client allocates a [`next_trace_id`] per invocation and sends it
//! (plus its send wall clock) in a GIOP request service context — see
//! `cool_giop::trace`. It keeps a [`ClientTrace`] on the invocation's
//! record; the server echoes its stage timings back as a
//! [`ServerTraceTiming`] on the reply, and the record joins the two into
//! its server stages and wire gaps (see [`crate::span`]). Joining happens
//! under the record store's existing lock, so a traced call takes no more
//! lock acquisitions than an untraced one.
//!
//! Wall-clock gaps are only meaningful when both ends share a clock (one
//! host — exactly the loopback scenarios the bench and e2e suites run).
//! Across hosts the stage *durations* remain exact; the gaps inherit
//! whatever clock skew exists, which is the standard distributed-tracing
//! trade-off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Clamps a duration to whole microseconds in a `u32` — the wire width of
/// the per-stage fields in the trace service contexts.
pub fn duration_as_u32_us(d: std::time::Duration) -> u32 {
    d.as_micros().min(u128::from(u32::MAX)) as u32
}

/// Clamps a duration to whole nanoseconds in a `u64` — used to derive a
/// second wall stamp from one wall read plus a monotonic gap, instead of
/// paying (and trusting) a second wall-clock read.
pub fn duration_as_u64_ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Current wall clock as nanoseconds since the Unix epoch.
pub fn now_wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Allocates a process-unique trace id. The sequence is seeded from the
/// wall clock (scrambled) so two processes started near-simultaneously
/// still produce disjoint id ranges with high probability.
pub fn next_trace_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| {
        let mut z = now_wall_ns().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        AtomicU64::new(z ^ (z >> 31))
    });
    next.fetch_add(1, Ordering::Relaxed)
}

/// Client half of a distributed trace, created at send time and kept on
/// the active invocation record until the reply is joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTrace {
    /// Trace id attached to the outbound request service context.
    pub trace_id: u64,
    /// Client wall clock (ns since epoch) just before the frame was sent.
    pub sent_at_ns: u64,
    /// Monotonic twin of `sent_at_ns`; the client receive stamp is
    /// derived as `sent_at_ns` plus the monotonic gap to the reply.
    pub sent_mono: std::time::Instant,
}

/// Server-side half of a trace, as carried back on the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTraceTiming {
    /// Server wall clock (ns since epoch) when the request was decoded.
    pub recv_at_ns: u64,
    /// Server wall clock (ns since epoch) just before the reply was sent.
    pub sent_at_ns: u64,
    /// Dispatcher-queue wait, µs.
    pub queue_wait_us: u32,
    /// QoS negotiation, µs.
    pub negotiate_us: u32,
    /// Servant execution, µs.
    pub execute_us: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_increasing() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
    }
}
