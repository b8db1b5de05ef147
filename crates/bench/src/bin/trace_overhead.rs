//! Cost of end-to-end distributed tracing on the loopback hot path.
//!
//! Two instances of the same TCP echo harness, both with full telemetry
//! on *disjoint* client/server registries (the two-process topology),
//! differing only in `OrbConfig::tracing`: off attaches no trace service
//! contexts; on carries a request trace context out (21 bytes) and a
//! reply trace context back (37 bytes) on every invocation and joins the
//! server half into the client's invocation record. The difference is the
//! tracing bill and nothing else: two service contexts encoded and
//! decoded, two wall-clock reads (the other two stamps are derived from
//! monotonic gaps), and the join — the records, histograms and counters
//! are identical on both sides of the comparison, and the join takes no
//! extra lock.
//!
//! Both harnesses stay alive for the whole run and small batches of calls
//! alternate between them (off/on order flipping every batch), so machine
//! load drift lands on both sample pools equally instead of punishing
//! whichever configuration ran during a noisy stretch.
//!
//! The gate uses a *paired* estimator of the p99 shift. The pooled-p99
//! difference is dominated by where a handful of rare scheduler stalls
//! happen to land — its run-to-run spread (several percent on a busy box)
//! swamps the sub-microsecond effect under test. Instead, each adjacent
//! off/on batch pair shares machine state, so the relative difference of
//! the two batch p99s isolates the systematic tail shift; the median over
//! all pairs discards the pairs a stall contaminated. On top of that the
//! whole measurement runs as three independent trials (fresh harnesses
//! each) and the gate takes the *minimum* trial — the usual min-of-repeats
//! estimator of an intrinsic cost. Load bursts only inflate a trial's
//! estimate; they cannot push all three below a real regression, so a
//! genuine leak onto the hot path lifts every trial over the budget while
//! a bursty stretch of machine time fails none of them. The per-trial
//! medians and the pooled p99s are still reported for reference.
//!
//! ```text
//! cargo run --release -p bench --bin trace_overhead
//! ```

#![forbid(unsafe_code)]

use bench::{emit_bench_json, rtt_stats_json, RttHarness, RttStats};
use cool_telemetry::{names, Registry};
use std::sync::Arc;
use std::time::Duration;

struct Side {
    harness: RttHarness,
    client_reg: Arc<Registry>,
    server_reg: Arc<Registry>,
    samples: Vec<Duration>,
    /// Per-batch p99, aligned by batch index across sides.
    batch_tails: Vec<Duration>,
}

impl Side {
    fn new(tracing: bool) -> Self {
        let client_reg = Arc::new(Registry::new());
        let server_reg = Arc::new(Registry::new());
        let harness = RttHarness::new_with_split_telemetry(
            Arc::clone(&client_reg),
            Arc::clone(&server_reg),
            tracing,
        );
        Side {
            harness,
            client_reg,
            server_reg,
            samples: Vec::new(),
            batch_tails: Vec::new(),
        }
    }

    fn batch(&mut self, n: usize, payload: usize) {
        let mut batch = self.harness.run(n, payload);
        batch.sort_unstable();
        self.batch_tails.push(batch[(batch.len() * 99) / 100]);
        self.samples.extend(batch);
    }
}

/// One full off/on comparison on fresh harnesses.
struct Trial {
    off_samples: Vec<Duration>,
    on_samples: Vec<Duration>,
    paired_pct: f64,
    trace_joins: u64,
    untraced_joins: u64,
    merged_traces: u64,
    context_bytes: u64,
}

fn run_trial(batches: usize, batch_calls: usize, payload: usize) -> Trial {
    let mut off = Side::new(false);
    let mut on = Side::new(true);
    for batch in 0..batches {
        // Flip the order every batch so neither side systematically runs
        // first (first-in-a-pair tends to see a colder cache).
        if batch % 2 == 0 {
            off.batch(batch_calls, payload);
            on.batch(batch_calls, payload);
        } else {
            on.batch(batch_calls, payload);
            off.batch(batch_calls, payload);
        }
    }

    // Median over batch pairs of the relative batch-p99 difference.
    let mut pair_deltas: Vec<f64> = off
        .batch_tails
        .iter()
        .zip(&on.batch_tails)
        .map(|(o, t)| 100.0 * (t.as_secs_f64() - o.as_secs_f64()) / o.as_secs_f64())
        .collect();
    pair_deltas.sort_by(f64::total_cmp);
    let paired_pct = pair_deltas[pair_deltas.len() / 2];

    let trace_joins = on
        .server_reg
        .snapshot()
        .counter(names::TRACE_JOINS_TOTAL)
        .unwrap_or(0);
    let context_bytes = on
        .server_reg
        .snapshot()
        .counter(names::SERVICE_CONTEXT_BYTES)
        .unwrap_or(0);
    let merged_traces = on
        .client_reg
        .recent()
        .iter()
        .filter(|r| r.wire_out_us.is_some() && r.wire_back_us.is_some())
        .count() as u64;
    let untraced_joins = off
        .server_reg
        .snapshot()
        .counter(names::TRACE_JOINS_TOTAL)
        .unwrap_or(0);

    off.harness.close();
    on.harness.close();

    Trial {
        off_samples: off.samples,
        on_samples: on.samples,
        paired_pct,
        trace_joins,
        untraced_joins,
        merged_traces,
        context_bytes,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Batch size balances two noise sources: batches must be short enough
    // that machine state is shared within an off/on pair (a stall burst
    // contaminates a few pairs, which the median discards), but large
    // enough that the batch p99 is a stable order statistic — the 10th
    // largest of 1000, not the 2nd largest of 100.
    let trials = 3usize;
    let batches = if quick { 60 } else { 150 };
    let batch_calls = 1000usize;
    // 1 KiB is the representative mid-size RPC body the other bench bins
    // use for latency work; tiny payloads measure the syscall floor, not
    // a request.
    let payload = 1024usize;
    let total = trials * batches * batch_calls;

    println!(
        "Trace overhead — {trials} trials of {batches} alternating batches of {batch_calls} \
         loopback echoes ({payload} bytes) per configuration, tracing off vs on\n"
    );

    let results: Vec<Trial> = (0..trials)
        .map(|_| run_trial(batches, batch_calls, payload))
        .collect();

    let off_stats = RttStats::from_samples(
        results.iter().flat_map(|t| t.off_samples.iter().copied()).collect(),
    );
    let on_stats = RttStats::from_samples(
        results.iter().flat_map(|t| t.on_samples.iter().copied()).collect(),
    );
    let mut trial_pcts: Vec<f64> = results.iter().map(|t| t.paired_pct).collect();
    trial_pcts.sort_by(f64::total_cmp);
    // Gate on the cleanest trial: noise bursts inflate estimates, so the
    // minimum is the best view of the intrinsic shift, and a real
    // regression inflates every trial at once.
    let paired_overhead_pct = trial_pcts[0];

    let traced_calls: u64 = results.iter().map(|t| t.trace_joins).sum();
    let untraced_joins: u64 = results.iter().map(|t| t.untraced_joins).sum();
    let merged_traces: u64 = results.iter().map(|t| t.merged_traces).sum();
    let context_bytes: u64 = results.iter().map(|t| t.context_bytes).sum();

    println!("{:>10} {:>12} {:>12} {:>12}", "tracing", "mean", "p50", "p99");
    for (label, stats) in [("off", &off_stats), ("on", &on_stats)] {
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            label,
            format!("{:.1?}", stats.mean),
            format!("{:.1?}", stats.p50),
            format!("{:.1?}", stats.p99),
        );
    }

    let off_p99 = off_stats.p99;
    let on_p99 = on_stats.p99;
    let pooled_overhead_pct =
        100.0 * (on_p99.as_secs_f64() - off_p99.as_secs_f64()) / off_p99.as_secs_f64();
    let trial_pcts_json = trial_pcts
        .iter()
        .map(|p| format!("{p:.2}"))
        .collect::<Vec<_>>()
        .join(",");

    // ---- Machine-readable output -------------------------------------------
    let json = format!(
        "{{\"bench\":\"trace_overhead\",\"trials\":{trials},\"batches\":{batches},\
         \"calls_per_batch\":{batch_calls},\"payload_bytes\":{payload},\
         \"untraced\":{},\"traced\":{},\
         \"untraced_p99_us\":{},\"traced_p99_us\":{},\
         \"trial_paired_pcts\":[{trial_pcts_json}],\
         \"paired_p99_overhead_pct\":{paired_overhead_pct:.2},\
         \"pooled_p99_overhead_pct\":{pooled_overhead_pct:.2},\
         \"trace_joins_total\":{traced_calls},\"merged_traces_observed\":{merged_traces},\
         \"service_context_bytes\":{context_bytes}}}",
        rtt_stats_json(&off_stats),
        rtt_stats_json(&on_stats),
        off_p99.as_micros(),
        on_p99.as_micros(),
    );
    emit_bench_json("trace_overhead", &json);

    // ---- Shape check -------------------------------------------------------
    // The wire cost is 58 bytes and two clock reads per call; anything
    // past 5% of the loopback p99 means tracing leaked onto the hot path
    // somewhere it shouldn't be.
    let budget_ok = paired_overhead_pct < 5.0;
    // The traced configuration must actually have traced (every call
    // joined on the server, merges observed on the client) and the
    // untraced one must actually have kept trace contexts off the wire.
    let traced_ok = traced_calls >= total as u64 && merged_traces > 0 && untraced_joins == 0;
    println!(
        "\nshape check:\n  [{}] paired p99 shift {paired_overhead_pct:+.2}% — best of trials [{trial_pcts_json}] (budget: < 5%; pooled p99 {off_p99:.1?} off vs {on_p99:.1?} on, {pooled_overhead_pct:+.2}%)\n  [{}] {traced_calls} trace joins for {total} timed calls, {merged_traces} merged traces sampled, {untraced_joins} joins while tracing off",
        if budget_ok { "ok" } else { "MISS" },
        if traced_ok { "ok" } else { "MISS" },
    );
    if !(budget_ok && traced_ok) {
        std::process::exit(1);
    }
}
