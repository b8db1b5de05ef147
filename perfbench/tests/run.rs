//! Minimal-length runs of every workload, untraced and traced: each prints
//! every metric `BENCHMARK.json` names, with its unit, and no operation
//! fails.

use std::process::Command;

/// The quoted string value following `"key":` at or after `from`.
fn string_after(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let at = from + text[from..].find(&format!("\"{key}\""))?;
    let rest = &text[at + key.len() + 2..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let value = rest.strip_prefix('"')?;
    let end = value.find('"')?;
    Some((value[..end].to_string(), text.len() - value.len() + end))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = start + spec[start..].find(']').expect("section is a list");
    let body = &spec[..end];
    let mut metrics = Vec::new();
    let mut at = start;
    while let Some((name, next)) = string_after(body, "name", at) {
        let (unit, next) = string_after(body, "unit", next).expect("every metric has a unit");
        metrics.push((name, unit));
        at = next;
    }
    assert!(!metrics.is_empty(), "{section} declares metrics");
    metrics
}

fn run(workload: &str, trace: u8) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = lines.last().expect("result line");
    let detail = lines.iter().rev().nth(1).expect("detail line");
    assert!(
        result.starts_with("{\"correct\":true,\"attempted\":"),
        "{result}"
    );
    assert!(result.contains(",\"failed\":0,"), "{result}");
    assert!(detail.contains("\"failed_ratio\":0,"), "{detail}");
    let section = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    for (name, unit) in declared(section) {
        let at = result
            .find(&format!("\"{name}\":{{\"value\":"))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let (printed, _) = string_after(result, "unit", at).expect("unit printed");
        assert_eq!(printed, unit, "{workload}: unit of {name}");
    }
    if trace == 1 {
        assert!(detail.contains("\"leg_sum_violations\":0,"), "{detail}");
        assert!(detail.contains("\"spans_round_trip\":true,"), "{detail}");
        assert!(detail.contains("\"overhead_us\":"), "{detail}");
    }
}

#[test]
fn echo_small_prints_every_metric() {
    run("echo-small", 0);
    run("echo-small", 1);
}

#[test]
fn qos_stream_prints_every_metric() {
    run("qos-stream", 0);
    run("qos-stream", 1);
}

#[test]
fn qos_renegotiate_prints_every_metric() {
    run("qos-renegotiate", 0);
    run("qos-renegotiate", 1);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload echo-small --seed 1 --seconds 0 --trace 0",
        "--workload echo-small --seed 1 --seconds 1 --trace 2",
        "--workload echo-small",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split_whitespace())
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
