//! cool-lint: the static checker for the MULTE workspace.
//!
//! The binary (`cargo run -p cool-lint`) lexes every `.rs` file once and
//! feeds the same token scan to two rule families:
//!
//! - the token-level L-rules in [`rules`]: sleep polling, unwrap policy,
//!   GIOP version agreement, error-variant test coverage, retry loops and
//!   buffer copies;
//! - the whole-workspace A-rules in [`semantic`], which lift the scans
//!   into a fact base ([`parse`], [`facts`]) and an intra-crate call graph
//!   ([`callgraph`]) to prove lock ranks, hang-freedom, channel topology,
//!   state-machine tables and error attribution.
//!
//! Exemptions are applied once, after every rule has run: inline
//! `// lint: allow(RULE, reason)` annotations, then the checked-in
//! `lint-allow.txt` ([`allowlist`]). Findings print as
//! `file:line RULE message` and are also written as `cool-report/v1` JSON
//! and optionally SARIF ([`report`]). See DESIGN.md §7.1.
//!
//! The crate has zero dependencies — it must stay buildable before
//! anything else in the workspace (including the vendored shims it
//! deliberately does not lint) so the gate itself can never be broken by
//! the code it checks.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod callgraph;
pub mod facts;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod semantic;

use report::{Finding, Report};
use rules::VersionSite;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Name of the checked-in allowlist at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allow.txt";

/// Every rule the checker can emit. L003 (unbounded data-path channels)
/// was folded into A005, which flags the same sites.
pub const RULES: &[&str] = &[
    "L000", "L001", "L002", "L004", "L005", "L006", "L007", "A001", "A002", "A003", "A004", "A005",
    "A006", "A007", "A008", "A009", "A010",
];

/// Directories never descended into. `shims/` holds vendored stand-ins
/// for crates.io dependencies — third-party API surface, not our code —
/// and fixture trees contain deliberate violations for the self-tests.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "fixtures", ".claude"];

/// Recursively collects files with `ext` under `root`, skipping
/// [`SKIP_DIRS`]. Paths come back sorted for deterministic reports.
pub fn collect_files(root: &Path, ext: &str) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(ext) {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Checks the workspace rooted at `root`: one lexing pass feeding the
/// per-file L-rules and the parser, the L004/L005 cross-artifact checks,
/// the A-rules over the fact base and call graph, then the inline
/// annotations and the allowlist, each applied once to every finding.
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut raw: Vec<Finding> = Vec::new();

    let mut truth_standard: Option<VersionSite> = None;
    let mut truth_qos: Option<VersionSite> = None;
    let mut codegen_sites: Vec<VersionSite> = Vec::new();
    let mut orb_error_decl: Option<(String, Vec<rules::Variant>)> = None;
    let mut orb_error_used: HashSet<String> = HashSet::new();
    let mut parsed = Vec::new();

    for path in collect_files(root, ".rs")? {
        let rel_path = rel(root, &path);
        let src =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let scan = lexer::scan(&src);
        report.files_scanned += 1;

        raw.extend(rules::check_file(&rel_path, &scan));

        if rel_path == "crates/cool-giop/src/version.rs" {
            let (s, q) = rules::giop_versions(&rel_path, &scan);
            truth_standard = s;
            truth_qos = q;
        }
        // Version templates only live in the code generator; scanning
        // everything would trip on test fixtures that mention the const.
        if rel_path.starts_with("crates/chic/src/") {
            codegen_sites.extend(rules::codegen_versions(&rel_path, &scan));
        }
        if rel_path == "crates/cool-orb/src/error.rs" {
            orb_error_decl = Some((rel_path.clone(), rules::orb_error_variants(&scan)));
        }
        orb_error_used.extend(rules::orb_error_uses(&rel_path, &scan));
        parsed.push(parse::parse_file(&rel_path, &scan));
    }

    let mut idl_sites: Vec<(String, VersionSite)> = Vec::new();
    let idl_root = root.join("idl");
    if idl_root.is_dir() {
        for path in collect_files(&idl_root, ".idl")? {
            let rel_path = rel(root, &path);
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            idl_sites.extend(rules::idl_versions(&rel_path, &text));
        }
    }
    raw.extend(rules::check_l004(
        truth_standard.as_ref(),
        truth_qos.as_ref(),
        &codegen_sites,
        &idl_sites,
    ));
    if let Some((decl_path, variants)) = &orb_error_decl {
        raw.extend(rules::check_l005(decl_path, variants, &orb_error_used));
    }

    let design = fs::read_to_string(root.join("DESIGN.md")).ok();
    let ws = facts::Workspace::build(parsed);
    let graph = callgraph::Graph::build(&ws);
    raw.extend(semantic::run_all(&semantic::Ctx {
        ws: &ws,
        graph: &graph,
        design: design.as_deref(),
    }));

    let allows: HashMap<&str, &allowlist::InlineAllows> = ws
        .files
        .iter()
        .map(|f| (f.rel.as_str(), &f.allows))
        .collect();
    raw.retain(|f| {
        !allows
            .get(f.file.as_str())
            .is_some_and(|a| allowlist::inline_allowed(a, f))
    });

    let allow_path = root.join(ALLOWLIST_FILE);
    let allowlist = if allow_path.is_file() {
        let text = fs::read_to_string(&allow_path)
            .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
        allowlist::parse(ALLOWLIST_FILE, &text)
    } else {
        allowlist::Allowlist::default()
    };
    let mut used = vec![false; allowlist.entries.len()];
    let (kept, suppressed) = allowlist.apply(raw, &mut used);
    report.findings = kept;
    report.allowlisted = suppressed;
    report
        .findings
        .extend(allowlist.unused(ALLOWLIST_FILE, &used));
    report.findings.extend(allowlist.problems);

    report.finish();
    Ok(report)
}

/// Locates the workspace root: explicit argument, else two levels up from
/// this crate's manifest (`crates/cool-lint` -> workspace root).
pub fn workspace_root(arg: Option<&str>) -> PathBuf {
    match arg {
        Some(p) => PathBuf::from(p),
        None => {
            let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
            manifest
                .parent()
                .and_then(Path::parent)
                .unwrap_or(manifest)
                .to_path_buf()
        }
    }
}
