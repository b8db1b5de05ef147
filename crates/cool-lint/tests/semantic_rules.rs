//! Self-tests for every whole-workspace A-rule and for the central
//! exemption pass, driven by the fixture trees in `tests/fixtures/` (each
//! one a miniature workspace run through the full checker). Each rule gets
//! positive cases (the violation is flagged, at the right line), negative
//! cases (the legal pattern — including the exact shapes the checker
//! pushed into the real workspace, like take-then-join — stays clean) and
//! an annotated-allow case. The last test asserts the real workspace
//! checks clean, which is what `scripts/check.sh` enforces.

use cool_lint::check_workspace;
use cool_lint::report::Report;
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The full checker over a fixture tree. The fixtures carry no GIOP
/// crate, so L004 reports its missing source of truth on every one of
/// them; that finding is dropped here (L004 has its own tests in
/// `lint_rules.rs`) so each test sees only what its fixture exercises.
fn check_fixture(name: &str) -> Report {
    let mut report = check_workspace(&fixture_root(name)).expect("fixture checks");
    report.findings.retain(|f| f.rule != "L004");
    report
}

/// (rule, file, line, message) for every finding in a fixture tree.
fn findings(name: &str) -> Vec<(String, String, u32, String)> {
    check_fixture(name)
        .findings
        .iter()
        .map(|f| (f.rule.to_string(), f.file.clone(), f.line, f.message.clone()))
        .collect()
}

fn rule_lines(found: &[(String, String, u32, String)], rule: &str) -> Vec<u32> {
    found
        .iter()
        .filter(|(r, _, _, _)| r == rule)
        .map(|(_, _, l, _)| *l)
        .collect()
}

// ---- A001: static lock-rank verification ----------------------------

#[test]
fn a001_flags_direct_interprocedural_and_same_rank_inversions() {
    let found = findings("inversion");
    let lines = rule_lines(&found, "A001");
    assert!(
        lines.contains(&32),
        "direct inversion (outer under inner) flagged: {found:?}"
    );
    assert!(
        lines.contains(&44),
        "interprocedural inversion (via grab_outer) flagged: {found:?}"
    );
    assert!(
        lines.contains(&51),
        "same-rank reacquisition flagged: {found:?}"
    );
    assert_eq!(lines.len(), 3, "legal/sequential/test code stays clean: {found:?}");
    assert!(
        found.iter().all(|(r, _, _, _)| r == "A001"),
        "no other rule fires on this fixture: {found:?}"
    );
    let (_, _, _, msg) = found
        .iter()
        .find(|(_, _, l, _)| *l == 44)
        .expect("line 44 finding");
    assert!(
        msg.contains("grab_outer") && msg.contains("app.inner"),
        "the interprocedural message names the callee and the held lock: {msg}"
    );
}

// ---- A002: blocking while holding a lock ----------------------------

#[test]
fn a002_flags_blocking_under_guards_and_spares_the_fixed_patterns() {
    let found = findings("blocking");
    let lines = rule_lines(&found, "A002");
    assert!(lines.contains(&22), "recv under a let-bound guard: {found:?}");
    assert!(
        lines.contains(&30),
        "join under an if-let scrutinee guard: {found:?}"
    );
    assert!(lines.contains(&41), "blocking one call down: {found:?}");
    assert_eq!(
        lines.len(),
        3,
        "take-then-join, drop-then-recv and the inline-allowed site stay \
         clean: {found:?}"
    );
}

// ---- A003: codec symmetry -------------------------------------------

#[test]
fn a003_flags_oneway_codecs_roundtrip_gaps_and_qos_coverage() {
    let found = findings("oneway");
    let msgs: Vec<&str> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A003")
        .map(|(_, _, _, m)| m.as_str())
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("`OneWay`") && m.contains("no CdrDecode")),
        "encode-only type flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`Untested`") && m.contains("round-trip gap")),
        "symmetric-but-untested type flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`encode_frame`") && m.contains("`decode_frame`")),
        "unpaired free fn flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("qos_params") && m.contains("Big")),
        "missing byte-order qos coverage flagged: {msgs:?}"
    );
    assert_eq!(
        msgs.len(),
        4,
        "Good, the Encoder/Decoder sibling pair and encode_blob/decode_blob \
         stay clean: {msgs:?}"
    );
}

// ---- A004: telemetry name discipline --------------------------------

#[test]
fn a004_flags_orphan_and_undocumented_metric_names() {
    let found = findings("metrics");
    let msgs: Vec<&str> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A004")
        .map(|(_, _, _, m)| m.as_str())
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("ORPHAN_TOTAL") && m.contains("never emitted")),
        "orphan constant flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("undocumented_total") && m.contains("§6")),
        "undocumented name flagged: {msgs:?}"
    );
    assert_eq!(msgs.len(), 2, "used_total stays clean: {msgs:?}");
}

// ---- A001 documentation half: rank-table drift ----------------------

#[test]
fn a001_rank_table_drift_is_flagged_in_both_directions() {
    let found = findings("ranktable");
    let msgs: Vec<(&str, u32, &str)> = found
        .iter()
        .map(|(r, f, l, m)| {
            assert_eq!(r, "A001", "only drift findings here: {found:?}");
            (f.as_str(), *l, m.as_str())
        })
        .collect();
    let has = |pred: &dyn Fn(&(&str, u32, &str)) -> bool| msgs.iter().any(pred);
    assert!(
        has(&|(f, _, m)| *f == "crates/app/src/lib.rs"
            && m.contains("`MISSING`")
            && m.contains("missing from")),
        "constant absent from the table: {msgs:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/app/src/lib.rs"
            && *l == 19
            && m.contains("app.mislabelled")),
        "lock name absent from its row: {msgs:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/app/src/lib.rs"
            && *l == 20
            && m.contains("unknown rank constant")),
        "unknown constant at a constructor: {msgs:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 10 && m.contains("matches no rank constant")),
        "row covering no constant: {msgs:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 9 && m.contains("app.phantom")),
        "table name with no constructor: {msgs:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 10 && m.contains("app.ghost")),
        "ghost lock in the no-constant row: {msgs:?}"
    );
    assert_eq!(msgs.len(), 6, "app.good and rank 10 stay clean: {msgs:?}");
}

// ---- A005: channel topology -----------------------------------------

#[test]
fn a005_flags_unbounded_drift_missing_phantom_policy_and_cycles() {
    let found = findings("chantopo");
    assert!(
        found.iter().all(|(r, _, _, _)| r == "A005"),
        "no other rule fires on this fixture: {found:?}"
    );
    let find = |file: &str, line: u32| -> &str {
        &found
            .iter()
            .find(|(_, f, l, _)| f == file && *l == line)
            .unwrap_or_else(|| panic!("no finding at {file}:{line}: {found:?}"))
            .3
    };
    // Site side.
    assert!(
        find("crates/cool-orb/src/lib.rs", 16).contains("drifted")
            && find("crates/cool-orb/src/lib.rs", 16).contains("bounded(DEPTH = 9)"),
        "mutating a capacity constant without a table update is drift"
    );
    assert!(find("crates/cool-orb/src/lib.rs", 21).contains("unbounded channel"));
    assert!(find("crates/cool-orb/src/lib.rs", 47).contains("missing from the DESIGN.md"));
    // Table side.
    assert!(find("DESIGN.md", 10).contains("no construction site"));
    assert!(find("DESIGN.md", 12).contains("matches no construction site"));
    assert!(find("DESIGN.md", 13).contains("unknown full-policy `maybe`"));
    assert!(
        find("DESIGN.md", 14).contains("channel cycle")
            && find("DESIGN.md", 14).contains("ring_a -> lib.rs::ring_b"),
        "all-block ring reported with its path"
    );
    assert_eq!(
        found.len(),
        7,
        "make_good, make_allowed, the test-mod queue and the off-path netsim \
         queue stay clean: {found:?}"
    );
}

// ---- A006: condvar wait-graph ---------------------------------------

#[test]
fn a006_flags_missing_notify_bare_wait_and_foreign_lock() {
    let found = findings("condvar");
    let a006: Vec<(u32, &str)> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A006")
        .map(|(_, _, l, m)| (*l, m.as_str()))
        .collect();
    assert!(
        a006.iter().any(|(l, m)| *l == 44 && m.contains("no notify_one/notify_all")),
        "un-notified condvar flagged: {a006:?}"
    );
    assert!(
        a006.iter().any(|(l, m)| *l == 51 && m.contains("predicate loop")),
        "bare wait flagged: {a006:?}"
    );
    assert!(
        a006.iter()
            .any(|(l, m)| *l == 63 && m.contains("holding ordered lock `app.foreign`")),
        "wait under a foreign ordered lock flagged: {a006:?}"
    );
    assert_eq!(
        a006.len(),
        3,
        "the predicate-loop wait, wait_while, the allowed site and test code \
         stay clean: {a006:?}"
    );
    // The foreign-lock wait is also blocking-under-lock; the two rules
    // agree on the site.
    assert!(
        found.iter().any(|(r, _, l, _)| r == "A002" && *l == 63),
        "A002 sees the same site: {found:?}"
    );
}

// ---- A007: spawn/join lifecycle -------------------------------------

#[test]
fn a007_flags_only_the_detached_spawn() {
    let found = findings("spawnjoin");
    assert_eq!(
        found.len(),
        1,
        "close-join, sig-handle, same-fn join, graph-reachable join, the \
         allowed site and test code all stay clean: {found:?}"
    );
    let (rule, file, line, msg) = &found[0];
    assert_eq!(rule, "A007");
    assert_eq!(file, "crates/app/src/violate.rs");
    assert_eq!(*line, 7);
    assert!(msg.contains("never joined on a shutdown path"), "{msg}");
}

// ---- A008: bounded blocking (hang-freedom) --------------------------

#[test]
fn a008_flags_unbounded_blocking_and_honors_every_exemption() {
    let found = findings("hangfree");
    let a008: Vec<(&str, u32, &str)> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A008")
        .map(|(_, f, l, m)| (f.as_str(), *l, m.as_str()))
        .collect();
    assert!(
        a008.iter().any(|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 8
            && m.contains("lib.rs::serve")),
        "bare recv flagged: {a008:?}"
    );
    assert!(
        a008.iter().any(|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 32
            && m.contains("lib.rs::spawn_worker")),
        "closure-body recv attributed to the enclosing fn: {a008:?}"
    );
    assert!(
        a008.iter()
            .any(|(f, l, _)| *f == "crates/cool-orb/src/lib.rs" && *l == 49),
        "connect resolving to an unbounded chain flagged: {a008:?}"
    );
    assert!(
        a008.iter()
            .any(|(f, l, _)| *f == "crates/cool-orb/src/lib.rs" && *l == 54),
        "the cyclic connector itself flagged: {a008:?}"
    );
    assert!(
        a008.iter()
            .any(|(f, l, m)| *f == "DESIGN.md" && *l == 9 && m.contains("long_gone")),
        "stale drain-registry entry flagged: {a008:?}"
    );
    assert_eq!(
        a008.len(),
        5,
        "recv_timeout, the registered pump_loop, the shutdown join, the \
         bounded dial chain, the allowed site and test code stay clean: \
         {a008:?}"
    );
}

// ---- A009: state-machine drift --------------------------------------

#[test]
fn a009_reconciles_tables_and_code_both_ways_with_real_emissions() {
    let found = findings("statemachine");
    let a009: Vec<(&str, u32, &str)> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A009")
        .map(|(_, f, l, m)| (f.as_str(), *l, m.as_str()))
        .collect();
    let has = |pred: &dyn Fn(&(&str, u32, &str)) -> bool| a009.iter().any(pred);
    assert!(
        has(&|(f, _, m)| *f == "crates/cool-orb/src/lib.rs"
            && m.contains("`Health::Suspect`")
            && m.contains("`relapse`")),
        "undocumented transition flagged, code side: {a009:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 13 && m.contains("matches no construction")),
        "stale row flagged: {a009:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 14 && m.contains("`Ghost`")),
        "phantom source state flagged: {a009:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md"
            && *l == 15
            && m.contains("not in the telemetry vocabulary")),
        "unknown emission flagged: {a009:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 16 && m.contains("never references")),
        "emission whose site is gone flagged: {a009:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 17 && m.contains("names no emission")),
        "emission-free row flagged: {a009:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 19 && m.contains("not in the \
             workspace")),
        "machine pointing at a missing file flagged: {a009:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "DESIGN.md" && *l == 25 && m.contains("never constructs")),
        "documented-but-never-built machine flagged: {a009:?}"
    );
    assert_eq!(
        a009.len(),
        8,
        "the backed rows, match-arm patterns and test constructions stay \
         clean: {a009:?}"
    );
}

// ---- A010: error attribution ----------------------------------------

#[test]
fn a010_flags_unattributed_errors_and_spares_helpers_and_patterns() {
    let found = findings("attribution");
    let a010: Vec<(&str, u32, &str)> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A010")
        .map(|(_, f, l, m)| (f.as_str(), *l, m.as_str()))
        .collect();
    let has = |pred: &dyn Fn(&(&str, u32, &str)) -> bool| a010.iter().any(pred);
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 6
            && m.contains("drops the request id")),
        "id-less timeout helper flagged: {a010:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 18
            && m.contains("bypasses the attribution helpers")),
        "literal Timeout flagged: {a010:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 31
            && m.contains("`attempts` and `last`")),
        "RetriesExhausted without its cause flagged: {a010:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/replica.rs"
            && *l == 6
            && m.contains("no replica identity")),
        "static failover Transport flagged: {a010:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/replica.rs"
            && *l == 11
            && m.contains("no replica identity")),
        "String::from static payload flagged: {a010:?}"
    );
    assert_eq!(
        a010.len(),
        5,
        "request_timeout, the allowed preamble, the format! payload, \
         error.rs, patterns and test code stay clean: {a010:?}"
    );
}

// ---- The central exemption pass ------------------------------------

#[test]
fn inline_allows_apply_once_to_every_rule_family() {
    let found = findings("allows");
    let lib: Vec<(&str, u32)> = found
        .iter()
        .filter(|(_, f, _, _)| f == "crates/app/src/lib.rs")
        .map(|(r, _, l, _)| (r.as_str(), *l))
        .collect();
    assert_eq!(
        lib,
        [("L001", 6), ("L002", 13), ("A007", 17)],
        "a reasonless allow suppresses nothing (line 6); an L- and an \
         A-allow stacked above line 12 both reach it, and coverage stops \
         there (line 13); the same detached spawn without an allow fires \
         (line 17): {found:?}"
    );
}

#[test]
fn stale_allowlist_entries_are_reported_once_as_l000_in_either_namespace() {
    let report = check_fixture("allows");
    assert_eq!(
        report.allowlisted, 1,
        "the live harness.rs entry suppresses its finding"
    );
    let l000: Vec<(u32, &str)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "L000")
        .map(|f| {
            assert_eq!(f.file, "lint-allow.txt");
            (f.line, f.message.as_str())
        })
        .collect();
    assert_eq!(l000.len(), 2, "one L000 per stale entry: {l000:?}");
    assert!(
        l000[0].0 == 2 && l000[0].1.contains("gone.rs A002"),
        "{l000:?}"
    );
    assert!(
        l000[1].0 == 3 && l000[1].1.contains("gone.rs L001"),
        "{l000:?}"
    );
}

// ---- The gate and SARIF over a findings-bearing tree ----------------

#[test]
fn gate_demo_a_synthetic_unbounded_recv_fails_the_gate_and_lands_in_sarif() {
    // The hangfree fixture's `serve` is the synthetic copy of the
    // invocation path: a bare `recv()` a PR might introduce. The gate
    // (any finding exits 1) must fail on it, and the SARIF document must
    // carry the annotation for the PR view.
    let report = check_fixture("hangfree");
    assert!(!report.is_clean(), "a new finding must fail the gate");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "A008" && f.file == "crates/cool-orb/src/lib.rs" && f.line == 8),
        "the synthetic recv is reported: {:?}",
        report.findings
    );
    let sarif = report.render_sarif();
    assert!(
        sarif.contains("\"ruleId\": \"A008\"")
            && sarif.contains("\"uri\": \"crates/cool-orb/src/lib.rs\"")
            && sarif.contains("\"startLine\": 8"),
        "the finding annotates in SARIF: {sarif}"
    );
}

// ---- The workspace itself -------------------------------------------

/// The A-rules' own clean bill on the real tree. `the_real_workspace_checks_clean`
/// also covers it, but that test fails on the four known `perfbench/`
/// L002 findings, so on its own a new A-finding would hide behind an
/// already-failing test. Drop this one once the full test passes.
#[test]
fn the_real_workspace_reports_no_semantic_finding() {
    let root = cool_lint::workspace_root(None);
    let report = check_workspace(&root).expect("workspace checks");
    let semantic: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.rule.starts_with('A') || f.rule == "L000")
        .map(|f| format!("{}:{}: {} {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        semantic.is_empty(),
        "the checked-in tree must carry no A-finding and no stale allowlist entry:\n{}",
        semantic.join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "sanity: the whole workspace was scanned, not a subtree \
         ({} files)",
        report.files_scanned
    );
}

#[test]
fn the_real_workspace_checks_clean() {
    let root = cool_lint::workspace_root(None);
    let report = check_workspace(&root).expect("workspace checks");
    assert!(
        report.is_clean(),
        "the checked-in tree must check clean:\n{}",
        report.render_text()
    );
    // Every rule actually ran to produce that clean bill — a rule
    // silently dropped from the registry would otherwise make this test
    // pass vacuously.
    assert_eq!(
        cool_lint::RULES,
        [
            "L000", "L001", "L002", "L004", "L005", "L006", "L007", "A001", "A002", "A003", "A004",
            "A005", "A006", "A007", "A008", "A009", "A010"
        ],
        "the rule registry lists every rule"
    );
    assert!(
        report.files_scanned > 100,
        "sanity: the whole workspace was scanned, not a subtree \
         ({} files)",
        report.files_scanned
    );
}
