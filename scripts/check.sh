#!/usr/bin/env bash
# Full pre-merge gate: release build, tests, and lint-clean clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace -- -D warnings

# The channel and lock shims under shims/ are not workspace members, so
# `--workspace` never runs their own tests (lost wake-ups, waiter counts,
# Select registration). They run here, in release, as the stacks do.
cargo test -q --release -p crossbeam -p parking_lot

# The repository benchmark (perfbench/) is its own package outside the
# workspace but calls the crates' public API: build it and run its own
# tests so an API change cannot break the benchmark unseen.
cargo test -q --release --manifest-path perfbench/Cargo.toml

# Static checks (cool-lint): per-file token rules (poll loops, unwraps,
# GIOP version agreement, error-variant test coverage, retry loops,
# buffer copies) and whole-workspace semantic rules (lock ranks vs the
# DESIGN.md §7.2 table, blocking under a lock, codec symmetry, telemetry
# names, channel topology vs the §7.4 table, condvar wait graph,
# spawn/join lifecycle, hang-freedom vs the §8.5 drain registry,
# state-machine drift vs the §8.4 tables, error attribution). Exits
# non-zero on any finding; writes the JSON report and SARIF for PR
# annotations.
cargo run -q --release -p cool-lint -- --json-out lint-report.json --sarif-out lint-report.sarif

# The paper's claims as gated shapes: Fig. 9 (40 dummy modules cost
# little; IRQ flow control collapses throughput) and Table 1 (the GIOP 9.9
# QoS extension costs next to nothing over 1.0), plus the ARQ comparison
# (windowed ARQs beat IRQ on a clean link; selective repeat beats
# go-back-N at 10% loss). Each bin prints its shape checks and exits
# non-zero on a MISS.
cargo run -q --release -p bench --bin fig9 -- --quick
cargo run -q --release -p bench --bin tab1 -- --quick
cargo run -q --release -p bench --bin arq_comparison -- --quick

# ThreadSanitizer smoke on the chaos test, best effort: -Zsanitizer needs
# a nightly toolchain with rust-src (for -Zbuild-std). Skip cleanly when
# either is missing rather than failing the gate on toolchain setup.
if rustup run nightly rustc --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src.*(installed)'; then
    host=$(rustc -vV | sed -n 's/^host: //p')
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q -Zbuild-std --target "$host" --test chaos
    echo "tsan smoke ok"
else
    echo "tsan smoke skipped: nightly toolchain with rust-src not available"
fi

# Telemetry smoke: the latency bench must emit a machine-readable snapshot
# with real percentiles in it.
smoke_dir=$(mktemp -d)
(cd "$smoke_dir" && cargo run -q --release -p bench --bin invocation_latency \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$smoke_dir/out.txt"
grep '^BENCH_JSON ' "$smoke_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
hist = doc["telemetry"]["histograms"]
lat = hist["orb_invocation_latency_us{transport=\"tcp\"}"]
assert lat["p99_us"] > 0, "telemetry p99 missing or zero"
print("telemetry smoke ok: %d invocations, p99 %dus" % (lat["count"], lat["p99_us"]))
'
rm -rf "$smoke_dir"

# Chaos smoke: the seeded fault plan (1% drop + one mid-run sever) must
# leave the p99 of successful calls flat, heal the sever through at least
# one automatic reconnect, and hang or mis-attribute nothing. The bin's
# own shape check enforces the latency bound; the JSON assertions here
# pin the recovery and accounting invariants so a silent regression in
# either cannot ride through on a green build.
chaos_dir=$(mktemp -d)
(cd "$chaos_dir" && cargo run -q --release -p bench --bin chaos \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$chaos_dir/out.txt"
grep '^BENCH_JSON ' "$chaos_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["hung_calls"] == 0, "a call hung: %r" % doc
assert doc["unattributed_failures"] == 0, "unattributed failure: %r" % doc
assert doc["reconnects"] >= 1, "the sever never healed: %r" % doc
assert doc["ok"] + doc["attributed_failures"] == doc["calls"], "calls unaccounted: %r" % doc
print("chaos smoke ok: %d/%d calls ok under %d faults, p99 %dus, %d reconnect(s)"
      % (doc["ok"], doc["calls"], doc["faults_injected"],
         doc["ok_latency"]["p99_us"], doc["reconnects"]))
'
cp "$chaos_dir/BENCH_chaos.json" BENCH_chaos.json
rm -rf "$chaos_dir"

# Failover smoke: kill the active replica of a resolved binding several
# times mid-traffic. Every kill must heal through the replica layer (>= 1
# failover), nothing may hang, and the blackout window stays bounded. The
# bin's own shape check enforces the blackout bound; the assertions here
# pin the failover accounting.
failover_dir=$(mktemp -d)
(cd "$failover_dir" && cargo run -q --release -p bench --bin failover \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$failover_dir/out.txt"
grep '^BENCH_JSON ' "$failover_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["failovers"] >= 1, "no failover happened: %r" % doc
assert doc["hung_calls"] == 0, "a call hung: %r" % doc
assert doc["blackout_us"]["p99"] < 5_000_000, "blackout unbounded: %r" % doc
print("failover smoke ok: %d kill(s), %d failover(s), blackout p50 %dus / p99 %dus, "
      "steady overhead %.1f%%"
      % (doc["kill_cycles"], doc["failovers"], doc["blackout_us"]["p50"],
         doc["blackout_us"]["p99"], doc["steady"]["overhead_pct"]))
'
cp "$failover_dir/BENCH_failover.json" BENCH_failover.json
rm -rf "$failover_dir"

# Throughput smoke: the zero-copy data path must keep a 2.4 Gbit/s link
# busy at large packets and stay inside the two-allocation budget (one
# request encode, one reply encode) on the loopback hot path. Quick mode
# runs short, so the saturation bar here is 80% — the full run's 95%
# target is asserted by the bench's own acceptance numbers in
# BENCH_throughput.json.
thr_dir=$(mktemp -d)
(cd "$thr_dir" && cargo run -q --release -p bench --bin throughput \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$thr_dir/out.txt"
grep '^BENCH_JSON ' "$thr_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["large"]["saturation"] >= 0.80, "link underutilized: %r" % doc
assert doc["allocs_per_invocation"] <= 2.0, "alloc budget blown: %r" % doc
print("throughput smoke ok: %.0f Mbit/s large (%.1f%% of link), "
      "%.1f%% batching win, %.2f allocs/invocation"
      % (doc["large"]["goodput_mbps"], 100 * doc["large"]["saturation"],
         100 * doc["small"]["batching_win"], doc["allocs_per_invocation"]))
'
cp "$thr_dir/BENCH_throughput.json" BENCH_throughput.json
rm -rf "$thr_dir"

# Trace-overhead smoke: end-to-end distributed tracing (request/reply
# trace service contexts, the server half joined into the client's
# invocation records with both wire gaps) must stay
# under 5% of the untraced loopback p99, and must actually have traced
# every timed call — a silently disabled wire path would otherwise pass
# the budget check for free. The bin gates on the best (minimum) of
# three independent trials of a paired batch-p99 estimator — load bursts
# inflate trials but a real regression inflates all of them, so isolated
# scheduler stalls and bursty phases are shrugged off; a sustained
# machine-wide slow phase can still blow through any statistic, so one
# retry is allowed (and logged) before the miss counts.
trace_dir=$(mktemp -d)
if ! (cd "$trace_dir" && cargo run -q --release -p bench --bin trace_overhead \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$trace_dir/out.txt"; then
    echo "trace-overhead gate missed once (machine-load burst?); retrying" >&2
    (cd "$trace_dir" && cargo run -q --release -p bench --bin trace_overhead \
        --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$trace_dir/out.txt"
fi
grep '^BENCH_JSON ' "$trace_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["paired_p99_overhead_pct"] < 5.0, "tracing overhead blown: %r" % doc
assert doc["trace_joins_total"] >= doc["trials"] * doc["batches"] * doc["calls_per_batch"], \
    "tracing never engaged: %r" % doc
assert doc["merged_traces_observed"] > 0, "no merged traces: %r" % doc
print("trace overhead smoke ok: %+.2f%% paired p99, trials %s (pooled off %dus, on %dus), %d trace joins"
      % (doc["paired_p99_overhead_pct"], doc["trial_paired_pcts"],
         doc["untraced_p99_us"], doc["traced_p99_us"], doc["trace_joins_total"]))
'
cp "$trace_dir/BENCH_trace_overhead.json" BENCH_trace_overhead.json
rm -rf "$trace_dir"

# Introspection smoke: with the endpoint enabled, /metrics, /spans,
# /flight and /gauges must all respond over real HTTP, /spans must show
# a record with wire gaps, and shutdown must close the port. The bin
# exits non-zero on any miss.
cargo run -q --release -p bench --bin introspect_smoke -- --quick
