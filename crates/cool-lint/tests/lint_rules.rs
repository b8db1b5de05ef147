//! Self-tests for every token-level L-rule, driven by the fixture files in
//! `tests/fixtures/`. Each rule gets a positive case (the violation is
//! flagged, at the right line), a negative case (idiomatic code and
//! test-context code stay clean) and an annotated-allow case (the inline
//! exemption suppresses exactly its target).

use cool_lint::rules::{
    check_file, check_l004, check_l005, codegen_versions, giop_versions, idl_versions,
    orb_error_uses, orb_error_variants, VersionSite,
};
use cool_lint::{allowlist, lexer};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => panic!("fixture {path}: {e}"),
    }
}

/// Runs the per-file rules over a fixture as if it lived at `rel_path`,
/// then drops what the fixture's inline annotations allow.
fn findings_at(name: &str, rel_path: &str) -> Vec<(String, u32)> {
    let scan = lexer::scan(&fixture(name));
    let allows = allowlist::inline_allows(&scan.comments);
    check_file(rel_path, &scan)
        .into_iter()
        .filter(|f| !allowlist::inline_allowed(&allows, f))
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

// ---- L001: sleep-based polling --------------------------------------

#[test]
fn l001_flags_the_poll_loop_and_only_it() {
    let found = findings_at("l001.rs", "crates/fake/src/lib.rs");
    assert_eq!(
        found,
        vec![("L001".to_string(), 5)],
        "exactly the un-annotated sleep is flagged; the annotated sleep, \
         the condvar wait and the #[cfg(test)] sleep are not"
    );
}

#[test]
fn l001_exempts_test_like_files() {
    assert!(
        findings_at("l001.rs", "crates/fake/tests/e2e.rs").is_empty(),
        "the same source under tests/ is exempt"
    );
    assert!(findings_at("l001.rs", "crates/fake/benches/b.rs").is_empty());
}

// ---- L002: unwrap/expect in library code ----------------------------

#[test]
fn l002_flags_unwrap_and_expect_only() {
    let found = findings_at("l002.rs", "crates/fake/src/lib.rs");
    assert_eq!(
        found,
        vec![("L002".to_string(), 4), ("L002".to_string(), 8)],
        "unwrap_or_* variants, strings, the annotated site and the test \
         module stay clean"
    );
}

#[test]
fn l002_exempts_test_like_files() {
    assert!(findings_at("l002.rs", "crates/fake/tests/t.rs").is_empty());
}

// ---- L004: GIOP version agreement -----------------------------------

fn site(file: &str, major: u8, minor: u8) -> VersionSite {
    VersionSite {
        file: file.to_string(),
        line: 1,
        major,
        minor,
    }
}

#[test]
fn l004_accepts_agreeing_artifacts() {
    let std_v = site("crates/cool-giop/src/version.rs", 1, 0);
    let qos_v = site("crates/cool-giop/src/version.rs", 9, 9);
    let codegen = vec![site("crates/chic/src/codegen.rs", 9, 9)];
    let idl = vec![
        ("standard".to_string(), site("idl/media.idl", 1, 0)),
        ("qos".to_string(), site("idl/media.idl", 9, 9)),
    ];
    let findings = check_l004(Some(&std_v), Some(&qos_v), &codegen, &idl);
    assert!(findings.is_empty(), "agreement is clean: {findings:?}");
}

#[test]
fn l004_flags_a_disagreeing_codegen_template() {
    let std_v = site("crates/cool-giop/src/version.rs", 1, 0);
    let qos_v = site("crates/cool-giop/src/version.rs", 9, 9);
    let codegen = vec![site("crates/chic/src/codegen.rs", 9, 8)];
    let findings = check_l004(Some(&std_v), Some(&qos_v), &codegen, &[]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "L004");
    assert!(findings[0].message.contains("9.9"), "{}", findings[0].message);
}

#[test]
fn l004_flags_a_disagreeing_idl_pragma() {
    let std_v = site("crates/cool-giop/src/version.rs", 1, 0);
    let qos_v = site("crates/cool-giop/src/version.rs", 9, 9);
    for (key, (major, minor), truth) in [("standard", (2, 0), "1.0"), ("qos", (9, 8), "9.9")] {
        let idl = vec![(key.to_string(), site("idl/media.idl", major, minor))];
        let findings = check_l004(Some(&std_v), Some(&qos_v), &[], &idl);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains(truth),
            "{}",
            findings[0].message
        );
    }
}

#[test]
fn l004_site_parsers_read_real_shapes() {
    // The truth constants, as written in cool-giop.
    let giop = lexer::scan(
        "pub const STANDARD: GiopVersion = GiopVersion { major: 1, minor: 0 };\n\
         pub const QOS_EXTENDED: GiopVersion = GiopVersion { major: 9, minor: 9 };\n",
    );
    let (std_v, qos_v) = giop_versions("crates/cool-giop/src/version.rs", &giop);
    let std_v = std_v.expect("standard parsed");
    let qos_v = qos_v.expect("qos parsed");
    assert_eq!((std_v.major, std_v.minor), (1, 0));
    assert_eq!((qos_v.major, qos_v.minor), (9, 9));

    // The codegen template string, as written in chic.
    let tpl = lexer::scan(
        "fn emit(out: &mut String) {\n\
         let _ = writeln!(out, \"pub const QOS_GIOP_VERSION: (u8, u8) = (9, 9);\");\n}\n",
    );
    let sites = codegen_versions("crates/chic/src/codegen.rs", &tpl);
    assert_eq!(sites.len(), 1);
    assert_eq!((sites[0].major, sites[0].minor), (9, 9));

    // The IDL pragma.
    let idl = idl_versions(
        "idl/media.idl",
        "// #pragma giop-versions: standard=1.0 qos=9.9\nmodule media {};\n",
    );
    assert_eq!(idl.len(), 2);
    assert_eq!(idl[0].0, "standard");
    assert_eq!(idl[1].0, "qos");
}

// ---- L005: every error variant exercised by tests -------------------

#[test]
fn l005_flags_exactly_the_orphan_variant() {
    let decl = lexer::scan(&fixture("l005.rs"));
    let variants = orb_error_variants(&decl);
    assert_eq!(
        variants.iter().map(|v| v.name.as_str()).collect::<Vec<_>>(),
        vec!["Covered", "Orphan", "WithFields"],
        "declaration parser sees all three variants, attributes and \
         doc comments skipped"
    );

    let uses_scan = lexer::scan(&fixture("l005_uses.rs"));
    let uses = orb_error_uses("crates/fake/tests/e2e.rs", &uses_scan);
    assert!(uses.contains("Covered"));
    assert!(uses.contains("WithFields"));

    let findings = check_l005("crates/fake/src/error.rs", &variants, &uses);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "L005");
    assert!(
        findings[0].message.contains("Orphan"),
        "{}",
        findings[0].message
    );
}

#[test]
fn l005_uses_outside_test_context_do_not_count() {
    // The same references in a lib file outside #[cfg(test)] are not
    // test coverage.
    let uses_scan = lexer::scan(&fixture("l005_uses.rs"));
    let uses = orb_error_uses("crates/fake/src/lib.rs", &uses_scan);
    assert!(
        uses.is_empty(),
        "no #[cfg(test)] region in the fixture when read as lib source: {uses:?}"
    );
}

// ---- L006: unbounded invocation retry loops -------------------------

#[test]
fn l006_flags_exactly_the_unbounded_retry_loops() {
    let f = findings_at("l006.rs", "crates/cool-orb/src/binding.rs");
    let l006: Vec<u32> = f
        .iter()
        .filter(|(rule, _)| rule == "L006")
        .map(|&(_, line)| line)
        .collect();
    assert_eq!(
        l006,
        vec![4, 14],
        "bare `loop`/`while` retries flagged; RetryPolicy-governed, \
         non-invocation, annotated and #[cfg(test)] loops stay clean: {f:?}"
    );
}

#[test]
fn l006_applies_only_to_cool_orb_sources() {
    let f = findings_at("l006.rs", "crates/dacapo/src/runtime.rs");
    assert!(
        f.iter().all(|(rule, _)| rule != "L006"),
        "L006 is scoped to crates/cool-orb/src/: {f:?}"
    );
    let in_tests = findings_at("l006.rs", "crates/cool-orb/tests/chaos.rs");
    assert!(in_tests.is_empty(), "test-like files are exempt: {in_tests:?}");
}

// ---- L007: buffer copies on the zero-copy path ----------------------

#[test]
fn l007_flags_the_copies_and_only_them() {
    let f = findings_at("l007.rs", "crates/dacapo/src/modules/arq.rs");
    let l007: Vec<u32> = f
        .iter()
        .filter(|(rule, _)| rule == "L007")
        .map(|&(_, line)| line)
        .collect();
    assert_eq!(
        l007,
        vec![4, 8],
        "frame.to_vec() and pkt.clone() flagged; the annotated retransmit \
         copy, non-buffer receivers, Bytes views and the #[cfg(test)] copy \
         stay clean: {f:?}"
    );
}

#[test]
fn l007_applies_only_to_the_buffer_path() {
    let off_path = findings_at("l007.rs", "crates/netsim/src/fake_fixture.rs");
    assert!(
        off_path.iter().all(|(rule, _)| rule != "L007"),
        "L007 is scoped to cool-giop/cool-orb/dacapo sources: {off_path:?}"
    );
    let on_giop = findings_at("l007.rs", "crates/cool-giop/src/codec_fixture.rs");
    assert!(
        on_giop.iter().any(|(rule, _)| rule == "L007"),
        "the GIOP codec is on the buffer path: {on_giop:?}"
    );
    let in_tests = findings_at("l007.rs", "crates/dacapo/tests/t.rs");
    assert!(in_tests.is_empty(), "test-like files are exempt: {in_tests:?}");
}
