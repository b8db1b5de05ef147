//! Spans recorded from the benchmark's own code around its calls into each
//! layer. They stay in memory during the run and are written out once at
//! the end; per-layer metrics are derived from the spans read back.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span covers; the `as_str` name is what the spans file records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bench set-up, from ORB creation to the first completed call.
    Setup,
    /// The timed window whose operations the per-layer metrics cover.
    Window,
    /// One workload operation (for `qos-renegotiate`: set QoS, then echo).
    Op,
    /// `Stub::invoke`, or `Stub::invoke_deferred` through `DeferredReply::wait`.
    Invoke,
    /// `Stub::set_qos_parameter`.
    SetQos,
    /// The benchmark's servant closure, from entry to exit.
    Servant,
    /// `Orb::bind`.
    Bind,
    /// `Message::encode_into` on the workload's request shape.
    GiopEncode,
    /// `Message::decode_frame` on the same frames.
    GiopDecode,
    /// `ServerPolicy::negotiate` on the workload's spec.
    QosNegotiate,
    /// `ConfigurationManager::configure` for the workload's requirements.
    DacapoConfigure,
    /// `Connection::establish_with_qos` on a `loopback_pair` end.
    DacapoEstablish,
    /// `Connection::reconfigure` between two module graphs.
    DacapoReconfigure,
    /// One packet out and back through a standalone connection pair.
    StackRtt,
}

const KINDS: [Kind; 14] = [
    Kind::Setup,
    Kind::Window,
    Kind::Op,
    Kind::Invoke,
    Kind::SetQos,
    Kind::Servant,
    Kind::Bind,
    Kind::GiopEncode,
    Kind::GiopDecode,
    Kind::QosNegotiate,
    Kind::DacapoConfigure,
    Kind::DacapoEstablish,
    Kind::DacapoReconfigure,
    Kind::StackRtt,
];

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Window => "window",
            Kind::Op => "op",
            Kind::Invoke => "orb.invoke",
            Kind::SetQos => "orb.set_qos",
            Kind::Servant => "orb.servant",
            Kind::Bind => "orb.bind",
            Kind::GiopEncode => "giop.encode_request",
            Kind::GiopDecode => "giop.decode_request",
            Kind::QosNegotiate => "qos.negotiate",
            Kind::DacapoConfigure => "dacapo.configure",
            Kind::DacapoEstablish => "dacapo.establish",
            Kind::DacapoReconfigure => "dacapo.reconfigure",
            Kind::StackRtt => "dacapo.stack_rtt",
        }
    }

    fn parse(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.as_str() == name)
    }
}

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// The request's sequence number (0 where there is no request).
    pub seq: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers: nanosecond-scale calls are timed in batches
    /// so the two clock reads do not dominate.
    pub calls: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration of one covered call.
    pub fn per_call_ns(&self) -> f64 {
        self.dur_ns() as f64 / f64::from(self.calls)
    }
}

/// In-memory span store shared by the client loop and the servant.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves an id so children can name a parent recorded later.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        id: u64,
        parent: u64,
        seq: u64,
        kind: Kind,
        start: Instant,
        end: Instant,
        calls: u32,
    ) {
        let span = Span {
            id,
            parent,
            seq,
            kind,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn record(&self, parent: u64, seq: u64, kind: Kind, start: Instant, end: Instant) -> u64 {
        let id = self.next_id();
        self.record_with_id(id, parent, seq, kind, start, end, 1);
        id
    }

    /// Times `calls` back-to-back runs of `f` as one span.
    pub fn time_batch(&self, kind: Kind, calls: u32, mut f: impl FnMut()) {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let end = Instant::now();
        let id = self.next_id();
        self.record_with_id(id, 0, 0, kind, start, end, calls);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

const HEADER: &str = "id\tparent\tseq\tname\tstart_ns\tend_ns\tcalls";

/// Serialises spans as tab-separated lines under a header.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 48 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.seq,
            s.kind.as_str(),
            s.start_ns,
            s.end_ns,
            s.calls
        );
    }
    out
}

/// Parses the output of [`to_tsv`].
pub fn from_tsv(text: &str) -> Result<Vec<Span>, String> {
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err("spans file: missing header".into());
    }
    lines
        .enumerate()
        .map(|(i, line)| {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("spans file line {}: {line:?}", i + 2);
            if f.len() != 7 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            Ok(Span {
                id: num(f[0])?,
                parent: num(f[1])?,
                seq: num(f[2])?,
                kind: Kind::parse(f[3]).ok_or_else(bad)?,
                start_ns: num(f[4])?,
                end_ns: num(f[5])?,
                calls: f[6].parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_round_trip_through_tsv() {
        let rec = Recorder::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(30);
        let parent = rec.record(0, 9, Kind::Invoke, t0, t1);
        rec.record(parent, 9, Kind::Servant, t0 + Duration::from_micros(10), t1);
        rec.time_batch(Kind::GiopEncode, 4, || {});
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(from_tsv(&to_tsv(&spans)).unwrap(), spans);
    }

    #[test]
    fn malformed_spans_file_is_rejected() {
        assert!(from_tsv("nope\n").is_err());
        assert!(from_tsv(&format!("{HEADER}\n1\t0\t0\tunknown.kind\t1\t2\t1\n")).is_err());
        assert!(from_tsv(&format!("{HEADER}\n1\t0\t0\top\t1\n")).is_err());
    }
}
