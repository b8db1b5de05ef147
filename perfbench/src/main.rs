//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <echo-small|qos-stream|qos-renegotiate> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing. `--trace 1`
//! is a separate run that records spans around the calls into each layer
//! and derives the per-layer metrics from them. The last line of standard
//! output is the result as one JSON object; the line before it, starting
//! `detail `, carries the host fingerprint, sample counts, failure causes
//! and, for traced runs, the self-checks and the tracing overhead.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod host;
mod probes;
mod rng;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Kind, Recorder, Span};
use workload::{Bench, Tally, Window, Workload};

/// Set-ups per untraced run; `setup_s` is their mean. Over Da CaPo a
/// set-up takes about 27 or about 52 ms, near evenly: the stack teardown
/// inside the first `set_qos_parameter` waits out a 25 ms shutdown grace
/// or not, depending on a race. The median of such a sample jumps between
/// the two modes from run to run; the mean moves smoothly with the mix.
const SETUPS: usize = 49;
/// Set-ups per traced run, for the `orb.bind_ms` and `orb.set_qos_ms` spans.
const TRACED_SETUPS: usize = 5;
/// Unmeasured operation time before every window.
const WARMUP: Duration = Duration::from_millis(500);
/// Where traced runs write their spans, relative to the working directory.
const SPANS_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unexpected arguments: {pair:?}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", flags["--workload"]))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Nearest-rank percentile of unsorted values (`q` in 0..=1).
fn percentile<T: Copy + PartialOrd>(values: &[T], q: f64) -> Option<T> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measured values"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied()
}

fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// A run's result: metrics in the order they are printed, plus the
/// `detail` fields that sit beside them.
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Vec<(&'static str, String)>,
}

impl Report {
    fn new(tally: Tally) -> Self {
        Report {
            correct: true,
            tally,
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    fn metric(
        &mut self,
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
    ) -> Result<(), String> {
        match value {
            Some(v) if v.is_finite() => {
                self.metrics.push((name, v, unit));
                Ok(())
            }
            _ => Err(format!("{name}: no measurement")),
        }
    }

    fn detail(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.detail.push((key, value.to_string()));
    }

    fn print(&self, args: &Args) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.4} {unit}");
        }
        let t = &self.tally;
        let failed = t.failed();
        let mut detail = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
             \"failed_ratio\":{},\"failures\":{{\"nack\":{},\"timeout\":{},\"error\":{},\
             \"mismatch\":{},\"unsatisfied_grant\":{}}}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host::fingerprint_json(),
            failed as f64 / t.attempted.max(1) as f64,
            t.nacks,
            t.timeouts,
            t.errors,
            t.mismatches,
            t.unsatisfied
        );
        for (key, value) in &self.detail {
            let _ = write!(detail, ",\"{key}\":{value}");
        }
        println!("detail {detail}}}");

        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
            self.correct && t.mismatches == 0 && t.unsatisfied == 0,
            t.attempted
        );
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Latency percentiles of a window, with their sample counts.
fn latency_detail(report: &mut Report, w: &Window) {
    let n = w.latencies_ns.len();
    let p99 = percentile(&w.latencies_ns, 0.99).map_or(0.0, us);
    report.detail(
        "latency",
        format!(
            "{{\"samples\":{n},\"p99_us\":{p99},\"samples_beyond_p90\":{},\"samples_beyond_p99\":{}}}",
            n / 10,
            n / 100
        ),
    );
}

/// Untraced run: the end-to-end metrics.
fn run_untraced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let pool = w.pool(args.seed);
    let mut tally = Tally::default();
    let mut seq = 0;
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let (bench, t) = Bench::setup(w, &pool, &mut seq, None, &mut tally)?;
        setup_s.push(t.as_secs_f64());
        bench.close();
    }
    let (bench, t) = Bench::setup(w, &pool, &mut seq, None, &mut tally)?;
    setup_s.push(t.as_secs_f64());
    bench.run(&pool, &mut seq, WARMUP, 0, &mut tally);
    let win = bench.run(
        &pool,
        &mut seq,
        Duration::from_secs(args.seconds),
        0,
        &mut tally,
    );
    bench.close();

    let secs = win.elapsed.as_secs_f64();
    let ops = win.ops() as f64;
    let mut report = Report::new(tally);
    report.metric(
        "setup_s",
        Some(setup_s.iter().sum::<f64>() / setup_s.len() as f64),
        "s",
    )?;
    report.metric("ops_per_s", Some(ops / secs), "1/s")?;
    report.metric(
        "goodput_mb_s",
        Some(win.reply_bytes as f64 / secs / 1e6),
        "MB/s",
    )?;
    report.metric(
        "latency_p50_us",
        percentile(&win.latencies_ns, 0.5).map(us),
        "us",
    )?;
    report.metric(
        "latency_p90_us",
        percentile(&win.latencies_ns, 0.9).map(us),
        "us",
    )?;
    report.metric("cpu_us_per_op", Some(win.cpu_us / ops), "us")?;
    latency_detail(&mut report, &win);
    report.detail("setup_s_samples", format!("{setup_s:?}"));
    report.detail("payload_mean_bytes", pool.mean_len());
    Ok(report)
}

/// Traced run: an untraced window (for the tracing overhead and the
/// process counters), a traced window, and the layer probes; per-layer
/// metrics come from the spans after they round-trip through the file.
fn run_traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let pool = w.pool(args.seed);
    let mut tally = Tally::default();
    let mut seq = 0;
    let rec = Arc::new(Recorder::new());
    let half = Duration::from_secs(args.seconds) / 2;

    for _ in 0..TRACED_SETUPS {
        Bench::setup(w, &pool, &mut seq, Some(rec.clone()), &mut tally)?
            .0
            .close();
    }

    let (bench, _) = Bench::setup(w, &pool, &mut seq, None, &mut tally)?;
    bench.run(&pool, &mut seq, WARMUP, 0, &mut tally);
    let plain = bench.run(&pool, &mut seq, half, 0, &mut tally);
    bench.close();

    let (bench, _) = Bench::setup(w, &pool, &mut seq, Some(rec.clone()), &mut tally)?;
    bench.run(&pool, &mut seq, WARMUP, 0, &mut tally);
    let window_id = rec.next_id();
    let start = Instant::now();
    bench.run(&pool, &mut seq, half, window_id, &mut tally);
    rec.record_with_id(window_id, 0, 0, Kind::Window, start, Instant::now(), 1);
    bench.close();

    let probes = probes::run(w, &pool, &rec);
    let mut spans = rec.take();
    link_servants(&mut spans);

    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
    let path = format!("{SPANS_DIR}/spans-{}-seed{}.tsv", w.name(), args.seed);
    std::fs::write(&path, trace::to_tsv(&spans)).map_err(|e| format!("{path}: {e}"))?;
    let read_back = std::fs::read_to_string(&path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|text| trace::from_tsv(&text))?;
    let round_trip = read_back == spans;

    let mut report = Report::new(tally);
    let layers = Layers::from_spans(&read_back);
    let ops = plain.ops().max(1) as f64;
    let untraced_p50 = percentile(&plain.latencies_ns, 0.5).map_or(0.0, us);
    let traced_p50 = median(&layers.op_us).unwrap_or(0.0);

    report.metric("orb.request_leg_us", median(&layers.request_leg_us), "us")?;
    report.metric("orb.servant_us", median(&layers.servant_us), "us")?;
    report.metric("orb.reply_leg_us", median(&layers.reply_leg_us), "us")?;
    report.metric("orb.bind_ms", layers.median_ms(Kind::Bind), "ms")?;
    report.metric("orb.set_qos_ms", layers.median_ms(Kind::SetQos), "ms")?;
    report.metric(
        "giop.encode_request_ns",
        layers.median_per_call_ns(Kind::GiopEncode),
        "ns",
    )?;
    report.metric(
        "giop.decode_request_ns",
        layers.median_per_call_ns(Kind::GiopDecode),
        "ns",
    )?;
    report.metric(
        "qos.negotiate_ns",
        layers.median_per_call_ns(Kind::QosNegotiate),
        "ns",
    )?;
    report.metric(
        "dacapo.configure_us",
        layers
            .median_per_call_ns(Kind::DacapoConfigure)
            .map(|ns| ns / 1e3),
        "us",
    )?;
    report.metric(
        "dacapo.establish_ms",
        layers.median_ms(Kind::DacapoEstablish),
        "ms",
    )?;
    report.metric(
        "dacapo.reconfigure_ms",
        layers.median_ms(Kind::DacapoReconfigure),
        "ms",
    )?;
    report.metric(
        "dacapo.stack_rtt_us",
        layers.median_per_call_ns(Kind::StackRtt).map(|ns| ns / 1e3),
        "us",
    )?;
    report.metric(
        "proc.ctx_switches_per_op",
        Some(plain.ctx_switches as f64 / ops),
        "1/op",
    )?;
    report.metric(
        "proc.allocs_per_op",
        Some(plain.allocs as f64 / ops),
        "1/op",
    )?;
    report.metric(
        "proc.threads",
        median(&plain.threads.iter().map(|&t| t as f64).collect::<Vec<_>>()),
        "count",
    )?;

    // Per operation the legs add up to the call exactly; their medians
    // need not, and the gap is printed as the unaccounted share.
    let legs_sum = median(&layers.request_leg_us).unwrap_or(0.0)
        + median(&layers.servant_us).unwrap_or(0.0)
        + median(&layers.reply_leg_us).unwrap_or(0.0);
    let invoke_p50 = median(&layers.invoke_us).unwrap_or(0.0);
    report.detail(
        "tracing_overhead",
        format!(
            "{{\"untraced_p50_us\":{untraced_p50},\"traced_p50_us\":{traced_p50},\
             \"overhead_us\":{}}}",
            traced_p50 - untraced_p50
        ),
    );
    report.detail(
        "self_checks",
        format!(
            "{{\"traced_ops\":{},\"leg_sum_violations\":{},\"leg_medians_sum_us\":{legs_sum},\
             \"invoke_p50_us\":{invoke_p50},\"unaccounted_share\":{},\"spans\":{},\
             \"spans_round_trip\":{round_trip},\"probes\":{}}}",
            layers.op_us.len(),
            layers.violations,
            (invoke_p50 - legs_sum) / invoke_p50,
            read_back.len(),
            match &probes {
                Ok(()) => "\"ok\"".to_string(),
                Err(e) => format!("{e:?}"),
            }
        ),
    );
    report.detail("span_samples", layers.samples_json());
    report.detail("spans_file", format!("{path:?}"));
    report.correct =
        round_trip && probes.is_ok() && layers.violations == 0 && !layers.op_us.is_empty();
    Ok(report)
}

/// Gives each servant span its parent: the invoke span of the request
/// with the same sequence number (sequence numbers are unique per run).
fn link_servants(spans: &mut [Span]) {
    let invokes: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.kind == Kind::Invoke)
        .map(|s| (s.seq, s.id))
        .collect();
    for s in spans.iter_mut().filter(|s| s.kind == Kind::Servant) {
        s.parent = invokes.get(&s.seq).copied().unwrap_or(0);
    }
}

/// Per-layer samples derived from the spans.
struct Layers<'a> {
    spans: &'a [Span],
    /// Per operation of the traced window.
    op_us: Vec<f64>,
    invoke_us: Vec<f64>,
    request_leg_us: Vec<f64>,
    servant_us: Vec<f64>,
    reply_leg_us: Vec<f64>,
    /// Window operations whose invoke span does not hold exactly one
    /// servant span nested inside it.
    violations: usize,
}

impl<'a> Layers<'a> {
    fn from_spans(spans: &'a [Span]) -> Self {
        let mut layers = Layers {
            spans,
            op_us: Vec::new(),
            invoke_us: Vec::new(),
            request_leg_us: Vec::new(),
            servant_us: Vec::new(),
            reply_leg_us: Vec::new(),
            violations: 0,
        };
        let Some(window) = spans.iter().find(|s| s.kind == Kind::Window) else {
            return layers;
        };
        let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push(s);
        }
        let kids = |id: u64, kind: Kind| -> Vec<&Span> {
            children
                .get(&id)
                .map(|c| c.iter().copied().filter(|s| s.kind == kind).collect())
                .unwrap_or_default()
        };
        for op in kids(window.id, Kind::Op) {
            layers.op_us.push(us(op.dur_ns()));
            let invokes = kids(op.id, Kind::Invoke);
            let [invoke] = invokes[..] else {
                layers.violations += 1;
                continue;
            };
            let servants = kids(invoke.id, Kind::Servant);
            let [servant] = servants[..] else {
                layers.violations += 1;
                continue;
            };
            // Nesting is what makes the three legs add up to the call.
            if !(invoke.start_ns <= servant.start_ns && servant.end_ns <= invoke.end_ns) {
                layers.violations += 1;
                continue;
            }
            layers.invoke_us.push(us(invoke.dur_ns()));
            layers
                .request_leg_us
                .push(us(servant.start_ns - invoke.start_ns));
            layers.servant_us.push(us(servant.dur_ns()));
            layers.reply_leg_us.push(us(invoke.end_ns - servant.end_ns));
        }
        layers
    }

    fn of(&self, kind: Kind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    fn median_ms(&self, kind: Kind) -> Option<f64> {
        median(
            &self
                .of(kind)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn median_per_call_ns(&self, kind: Kind) -> Option<f64> {
        median(&self.of(kind).map(Span::per_call_ns).collect::<Vec<_>>())
    }

    /// How many spans (and calls) each per-layer median rests on.
    fn samples_json(&self) -> String {
        let mut out = format!("{{\"orb.legs\":{}", self.request_leg_us.len());
        for kind in [
            Kind::Bind,
            Kind::SetQos,
            Kind::GiopEncode,
            Kind::GiopDecode,
            Kind::QosNegotiate,
            Kind::DacapoConfigure,
            Kind::DacapoEstablish,
            Kind::DacapoReconfigure,
            Kind::StackRtt,
        ] {
            let calls: u64 = self.of(kind).map(|s| u64::from(s.calls)).sum();
            let _ = write!(out, ",\"{}\":{calls}", kind.as_str());
        }
        out.push('}');
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok(report) => {
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
