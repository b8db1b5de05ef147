//! Golden-file pin of `cool-report/v1`, the checker's JSON report, plus
//! the health of the checked-in allowlist. Downstream consumers (CI
//! annotations, dashboards) parse the report, so the shape is part of the
//! tool's contract: any key rename, reorder or whitespace change must show
//! up here as a deliberate golden-file update, not ride through silently.

use cool_lint::allowlist::{self, MAX_ENTRIES, MAX_PER_NAMESPACE};
use cool_lint::report::{Finding, Report};
use std::path::Path;

fn sample() -> Report {
    let mut r = Report::default();
    r.findings.push(Finding::new(
        "crates/b.rs",
        12,
        "A005",
        "unbounded channel",
    ));
    r.findings.push(Finding::new(
        "crates/a.rs",
        7,
        "L002",
        "don't \"unwrap\" here\nsecond line",
    ));
    r.allowlisted = 3;
    r.files_scanned = 42;
    r.finish();
    r
}

#[test]
fn json_report_matches_the_golden_file_byte_for_byte() {
    let golden = include_str!("fixtures/golden-report.json");
    assert_eq!(
        sample().render_json(),
        golden,
        "cool-report/v1 drifted; if intentional, update the golden file"
    );
}

#[test]
fn an_empty_report_is_clean_with_an_empty_findings_array() {
    let mut r = Report::default();
    r.files_scanned = 1;
    let json = r.render_json();
    assert!(json.contains("\"findings\": [],"), "{json}");
    assert!(json.ends_with("\"clean\": true\n}\n"), "{json}");
}

// ---- The checked-in allowlist itself --------------------------------

#[test]
fn the_checked_in_allowlist_is_healthy_and_within_its_caps() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/cool-lint sits two levels below the root")
        .join("lint-allow.txt");
    let text = std::fs::read_to_string(&path).expect("lint-allow.txt exists");
    let al = allowlist::parse("lint-allow.txt", &text);
    assert!(
        al.problems.is_empty(),
        "the checked-in allowlist must parse clean: {:?}",
        al.problems
    );
    assert!(al.entries.len() <= MAX_ENTRIES);
    for ns in ['L', 'A'] {
        let n = al.entries.iter().filter(|e| e.rule.starts_with(ns)).count();
        assert!(
            n <= MAX_PER_NAMESPACE,
            "{n} `{ns}*` entries exceed the per-namespace cap"
        );
    }
    // Every entry names a rule the checker emits.
    for e in &al.entries {
        assert!(
            cool_lint::RULES.contains(&e.rule.as_str()),
            "entry `{} {}` names no rule",
            e.path,
            e.rule
        );
    }
    // The hang-freedom, state-machine and attribution rules take no
    // file-level entries at all: their exemptions are inline allows (with
    // reasons) or the §8.5 registry, both of which carry their own
    // justification.
    for banned in ["A008", "A009", "A010"] {
        assert!(
            !al.entries.iter().any(|e| e.rule == banned),
            "{banned} must not be allowlisted file-wide; use an inline \
             allow with a reason or the §8.5 registry"
        );
    }
}
