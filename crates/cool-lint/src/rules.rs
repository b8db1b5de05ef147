//! The token-level L-rules.
//!
//! | Rule | Invariant                                                        |
//! |------|------------------------------------------------------------------|
//! | L001 | no `thread::sleep` polling in non-test library code              |
//! | L002 | no `.unwrap()` / `.expect()` in non-test, non-bench library code |
//! | L004 | GIOP version constants agree across cool-giop, chic and the IDL  |
//! | L005 | every `OrbError` variant is exercised somewhere in tests         |
//! | L006 | invocation-path retry loops in cool-orb reference `RetryPolicy`  |
//! | L007 | no buffer copies (`.to_vec()`/`.clone()`) on the zero-copy path  |
//!
//! L001, L002, L006 and L007 are per-file token scans; L004/L005 are
//! workspace-level cross-artifact checks. (L003, unbounded data-path
//! channels, is A005's first check.) Rules report raw findings; inline
//! `// lint: allow(RULE, reason)` annotations are applied afterwards, once
//! for every rule (see [`crate::allowlist`]).

use crate::lexer::{Scan, Tok, TokKind};
use crate::parse::match_close;
use crate::report::Finding;
use std::collections::HashSet;

/// How a file participates in linting, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library source: all rules apply outside `#[cfg(test)]` regions.
    LibSrc,
    /// Integration tests, benches, examples: exempt from L001/L002 but
    /// scanned for L005 usage.
    TestLike,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileRole {
    let test_dirs = ["tests/", "benches/", "examples/"];
    for part in test_dirs {
        if rel_path.starts_with(part) || rel_path.contains(&format!("/{part}")) {
            return FileRole::TestLike;
        }
    }
    FileRole::LibSrc
}

/// True for files on the ORB / Da CaPo data path (A005, A008).
pub fn on_data_path(rel_path: &str) -> bool {
    rel_path.starts_with("crates/cool-orb/src/") || rel_path.starts_with("crates/dacapo/src/")
}

/// True for files on the zero-copy buffer path, where L007 applies: the
/// data path plus the GIOP codec (whose frames feed it).
pub fn on_buffer_path(rel_path: &str) -> bool {
    rel_path.starts_with("crates/cool-giop/src/") || on_data_path(rel_path)
}

/// Receiver identifiers L007 treats as `Bytes`/`Packet` values. The lexer
/// has no types, so the rule keys off the workspace's buffer-naming
/// conventions; a copy hidden behind another name escapes, a cheap clone
/// of something merely *named* `frame` needs an annotation — both are the
/// price of a token-level scan.
const L007_RECEIVERS: &[&str] = &[
    "frame", "frames", "body", "payload", "pkt", "packet", "batch", "buf", "bytes", "storage",
    "sub",
];

/// Line spans (1-based, inclusive) covered by `#[cfg(test)]` items.
///
/// This is a token-level approximation, deliberately conservative: a cfg
/// whose predicate mentions `test` without `not` marks the following item
/// (attribute-to-closing-brace, or to the terminating `;`) as test code.
pub fn test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 4 < tokens.len() {
        if !(tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].kind == TokKind::Ident
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "(")
        {
            i += 1;
            continue;
        }
        // Collect the predicate tokens up to the matching `]`.
        let start_line = tokens[i].line;
        let mut depth = 1usize; // we are past `(`
        let mut j = i + 4;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                "test" if tokens[j].kind == TokKind::Ident => saw_test = true,
                "not" if tokens[j].kind == TokKind::Ident => saw_not = true,
                _ => {}
            }
            j += 1;
        }
        // Skip the closing `]`.
        if tokens.get(j).map(|t| t.text.as_str()) == Some("]") {
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Find the extent of the item the attribute decorates: either a
        // braced body (match braces) or a `;`-terminated statement.
        let mut brace_depth = 0usize;
        let mut entered = false;
        let mut end_line = start_line;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => {
                    brace_depth += 1;
                    entered = true;
                }
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if entered && brace_depth == 0 {
                        end_line = tokens[j].line;
                        j += 1;
                        break;
                    }
                }
                ";" if !entered => {
                    end_line = tokens[j].line;
                    j += 1;
                    break;
                }
                _ => {}
            }
            end_line = tokens[j].line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j;
    }
    regions
}

pub(crate) fn in_regions(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Runs the per-file rules (L001, L002, L006, L007) over one scanned file.
pub fn check_file(rel_path: &str, scan: &Scan) -> Vec<Finding> {
    let mut findings = Vec::new();
    if classify(rel_path) == FileRole::TestLike {
        return findings;
    }
    let regions = test_regions(&scan.tokens);
    let toks = &scan.tokens;

    for i in 0..toks.len() {
        // L001: `thread :: sleep`
        if i + 3 < toks.len()
            && toks[i].kind == TokKind::Ident
            && toks[i].text == "thread"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].text == "sleep"
        {
            let line = toks[i + 3].line;
            if !in_regions(line, &regions) {
                findings.push(Finding::new(
                    rel_path,
                    line,
                    "L001",
                    "thread::sleep polling in library code; use a condvar/park-based \
                     wait, or annotate `// lint: allow(L001, reason)` for a \
                     legitimate timed wait",
                ));
            }
        }
        // L002: `. unwrap (` / `. expect (`
        if i + 2 < toks.len()
            && toks[i].text == "."
            && toks[i + 1].kind == TokKind::Ident
            && (toks[i + 1].text == "unwrap" || toks[i + 1].text == "expect")
            && toks[i + 2].text == "("
        {
            let line = toks[i + 1].line;
            if !in_regions(line, &regions) {
                findings.push(Finding::new(
                    rel_path,
                    line,
                    "L002",
                    &format!(
                        ".{}() in library code; propagate an error instead, or \
                         annotate `// lint: allow(L002, reason)` if provably \
                         infallible",
                        toks[i + 1].text
                    ),
                ));
            }
        }
        // L007: `<buffer>.to_vec()` / `<buffer>.clone()` on the zero-copy
        // path. Copies of shared buffers belong behind the Packet
        // copy-on-write or an annotated, justified site.
        if on_buffer_path(rel_path)
            && i + 3 < toks.len()
            && toks[i].kind == TokKind::Ident
            && L007_RECEIVERS.contains(&toks[i].text.as_str())
            && toks[i + 1].text == "."
            && toks[i + 2].kind == TokKind::Ident
            && (toks[i + 2].text == "to_vec" || toks[i + 2].text == "clone")
            && toks[i + 3].text == "("
        {
            let line = toks[i + 2].line;
            if !in_regions(line, &regions) {
                findings.push(Finding::new(
                    rel_path,
                    line,
                    "L007",
                    &format!(
                        "`{}.{}()` copies a buffer on the zero-copy data path; \
                         borrow a `Bytes` view (slice/split_to) instead, or \
                         annotate `// lint: allow(L007, reason)` if the copy \
                         is required (retransmit buffer, corruption injection)",
                        toks[i].text,
                        toks[i + 2].text
                    ),
                ));
            }
        }
    }
    if rel_path.starts_with("crates/cool-orb/src/") {
        findings.extend(check_l006(rel_path, toks, &regions));
    }
    findings
}

// ---------------------------------------------------------------------------
// L006: unbounded retry loops on the invocation path
// ---------------------------------------------------------------------------

/// Method names whose presence inside a loop marks it as an
/// invocation-path retry loop. Exact ident match: `.invoke_once(` does
/// *not* trip on `invoke`.
const L006_CALLS: &[&str] = &["call", "send", "send_frame", "invoke"];

/// L006: a `loop`/`while` in cool-orb library code whose body performs an
/// invocation-path call (`.call(`, `.send(`, `.send_frame(`, `.invoke(`)
/// must be governed by a bounded [`RetryPolicy`] — detected as the ident
/// `RetryPolicy` appearing anywhere between the enclosing `fn` and the end
/// of the loop. Bare retry-forever loops are how calls hang instead of
/// failing attributed.
fn check_l006(rel_path: &str, toks: &[Tok], regions: &[(u32, u32)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "loop" && t.text != "while") {
            continue;
        }
        let line = t.line;
        if in_regions(line, regions) {
            continue;
        }
        // Body extent: first `{` after the keyword to its matching `}`.
        // (A `while let` pattern brace would end the scan early — a
        // conservative under-approximation this codebase never hits.)
        let Some(body_start) = (i + 1..toks.len()).find(|&j| toks[j].text == "{") else {
            continue;
        };
        let body_end = match_close(toks, body_start);
        let is_retry_call = (body_start..body_end).any(|k| {
            toks[k].text == "."
                && k + 2 < toks.len()
                && toks[k + 1].kind == TokKind::Ident
                && L006_CALLS.contains(&toks[k + 1].text.as_str())
                && toks[k + 2].text == "("
        });
        if !is_retry_call {
            continue;
        }
        let fn_start = (0..i)
            .rev()
            .find(|&k| toks[k].kind == TokKind::Ident && toks[k].text == "fn")
            .unwrap_or(0);
        let governed = toks[fn_start..=body_end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "RetryPolicy");
        if governed {
            continue;
        }
        findings.push(Finding::new(
            rel_path,
            line,
            "L006",
            "retry loop around an invocation-path call without a bounded \
             RetryPolicy; thread OrbConfig::retry through it, or annotate \
             `// lint: allow(L006, reason)` with the termination argument",
        ));
    }
    findings
}

// ---------------------------------------------------------------------------
// L004: GIOP version agreement
// ---------------------------------------------------------------------------

/// A `(major, minor)` pair with provenance for error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionSite {
    pub file: String,
    pub line: u32,
    pub major: u8,
    pub minor: u8,
}

/// Extracts `STANDARD` / `QOS_EXTENDED` from `cool-giop`'s version module.
/// Returns (standard, qos_extended) when both parse.
pub fn giop_versions(rel_path: &str, scan: &Scan) -> (Option<VersionSite>, Option<VersionSite>) {
    let mut standard = None;
    let mut qos = None;
    let toks = &scan.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let slot = match toks[i].text.as_str() {
            "STANDARD" => &mut standard,
            "QOS_EXTENDED" => &mut qos,
            _ => continue,
        };
        if slot.is_some() {
            continue; // first definition wins; later mentions are uses
        }
        // Scan forward for `major : <num>` and `minor : <num>` within the
        // initializer (bounded window keeps this from running away).
        let mut major = None;
        let mut minor = None;
        for j in i..toks.len().min(i + 40) {
            if toks[j].kind == TokKind::Ident && j + 2 < toks.len() && toks[j + 1].text == ":" {
                let field = toks[j].text.as_str();
                if let Ok(v) = toks[j + 2].text.parse::<u8>() {
                    match field {
                        "major" => major = Some(v),
                        "minor" => minor = Some(v),
                        _ => {}
                    }
                }
            }
            if major.is_some() && minor.is_some() {
                break;
            }
        }
        if let (Some(ma), Some(mi)) = (major, minor) {
            *slot = Some(VersionSite {
                file: rel_path.to_owned(),
                line: toks[i].line,
                major: ma,
                minor: mi,
            });
        }
    }
    (standard, qos)
}

/// Finds `QOS_GIOP_VERSION: (u8, u8) = (X, Y)` inside string templates —
/// this is how `chic`'s code generator stamps the wire version into
/// generated stubs, and how generated fixtures carry it.
pub fn codegen_versions(rel_path: &str, scan: &Scan) -> Vec<VersionSite> {
    let mut out = Vec::new();
    // The constant appears either inside a codegen string template (chic)
    // or as a real const in generated code; cover both token shapes.
    for t in &scan.tokens {
        if t.kind == TokKind::Str && t.text.contains("QOS_GIOP_VERSION") {
            if let Some((ma, mi)) = parse_pair_after_eq(&t.text) {
                out.push(VersionSite {
                    file: rel_path.to_owned(),
                    line: t.line,
                    major: ma,
                    minor: mi,
                });
            }
        }
    }
    let toks = &scan.tokens;
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "QOS_GIOP_VERSION" {
            // const QOS_GIOP_VERSION: (u8, u8) = (X, Y);
            let window: String = toks[i..toks.len().min(i + 16)]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            if let Some((ma, mi)) = parse_pair_after_eq(&window) {
                out.push(VersionSite {
                    file: rel_path.to_owned(),
                    line: toks[i].line,
                    major: ma,
                    minor: mi,
                });
            }
        }
    }
    out
}

fn parse_pair_after_eq(s: &str) -> Option<(u8, u8)> {
    let rhs = s.split('=').nth(1)?;
    let open = rhs.find('(')?;
    let close = rhs[open..].find(')')? + open;
    let mut nums = rhs[open + 1..close]
        .split(',')
        .filter_map(|n| n.trim().parse::<u8>().ok());
    Some((nums.next()?, nums.next()?))
}

/// Parses `giop-versions: standard=1.0 qos=9.9` pragmas out of IDL text.
pub fn idl_versions(rel_path: &str, idl_text: &str) -> Vec<(String, VersionSite)> {
    let mut out = Vec::new();
    for (idx, line) in idl_text.lines().enumerate() {
        let Some(pos) = line.find("giop-versions:") else {
            continue;
        };
        for part in line[pos + "giop-versions:".len()..].split_whitespace() {
            let Some((name, ver)) = part.split_once('=') else {
                continue;
            };
            let Some((ma, mi)) = ver.split_once('.') else {
                continue;
            };
            if let (Ok(ma), Ok(mi)) = (ma.parse::<u8>(), mi.parse::<u8>()) {
                out.push((
                    name.to_owned(),
                    VersionSite {
                        file: rel_path.to_owned(),
                        line: (idx + 1) as u32,
                        major: ma,
                        minor: mi,
                    },
                ));
            }
        }
    }
    out
}

/// Cross-checks every collected version site against the `cool-giop`
/// source of truth and the protocol's fixed values (1.0 standard, 9.9
/// QoS-extended).
pub fn check_l004(
    truth_standard: Option<&VersionSite>,
    truth_qos: Option<&VersionSite>,
    codegen: &[VersionSite],
    idl: &[(String, VersionSite)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(std_site) = truth_standard else {
        return vec![Finding::new(
            "crates/cool-giop/src/version.rs",
            1,
            "L004",
            "could not locate the STANDARD GIOP version constant",
        )];
    };
    let Some(qos_site) = truth_qos else {
        return vec![Finding::new(
            "crates/cool-giop/src/version.rs",
            1,
            "L004",
            "could not locate the QOS_EXTENDED GIOP version constant",
        )];
    };
    if (std_site.major, std_site.minor) != (1, 0) {
        findings.push(Finding::new(
            &std_site.file,
            std_site.line,
            "L004",
            &format!(
                "STANDARD GIOP version is {}.{}, protocol requires 1.0",
                std_site.major, std_site.minor
            ),
        ));
    }
    if (qos_site.major, qos_site.minor) != (9, 9) {
        findings.push(Finding::new(
            &qos_site.file,
            qos_site.line,
            "L004",
            &format!(
                "QOS_EXTENDED GIOP version is {}.{}, protocol requires 9.9",
                qos_site.major, qos_site.minor
            ),
        ));
    }
    for site in codegen {
        if (site.major, site.minor) != (qos_site.major, qos_site.minor) {
            findings.push(Finding::new(
                &site.file,
                site.line,
                "L004",
                &format!(
                    "QOS_GIOP_VERSION ({}, {}) disagrees with cool-giop \
                     QOS_EXTENDED {}.{}",
                    site.major, site.minor, qos_site.major, qos_site.minor
                ),
            ));
        }
    }
    for (name, site) in idl {
        let truth = match name.as_str() {
            "standard" => std_site,
            "qos" => qos_site,
            _ => {
                findings.push(Finding::new(
                    &site.file,
                    site.line,
                    "L004",
                    &format!("unknown giop-versions key `{name}` (want standard/qos)"),
                ));
                continue;
            }
        };
        if (site.major, site.minor) != (truth.major, truth.minor) {
            findings.push(Finding::new(
                &site.file,
                site.line,
                "L004",
                &format!(
                    "IDL pragma {}={}.{} disagrees with cool-giop {}.{}",
                    name, site.major, site.minor, truth.major, truth.minor
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L005: OrbError variant coverage
// ---------------------------------------------------------------------------

/// A declared enum variant with its declaration site.
#[derive(Debug, Clone)]
pub struct Variant {
    pub name: String,
    pub line: u32,
}

/// Extracts the variants of `pub enum OrbError` from a scanned file.
pub fn orb_error_variants(scan: &Scan) -> Vec<Variant> {
    let toks = &scan.tokens;
    let mut i = 0usize;
    // Find `enum OrbError {`.
    let start = loop {
        if i + 2 >= toks.len() {
            return Vec::new();
        }
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "enum"
            && toks[i + 1].text == "OrbError"
        {
            break i + 2;
        }
        i += 1;
    };
    let mut j = start;
    while j < toks.len() && toks[j].text != "{" {
        j += 1;
    }
    j += 1;
    let mut depth = 1usize;
    let mut variants = Vec::new();
    let mut expect_variant = true;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        match t.text.as_str() {
            "{" | "(" | "[" => {
                depth += 1;
                j += 1;
            }
            "}" | ")" | "]" => {
                depth -= 1;
                j += 1;
            }
            "#" if depth == 1 => {
                // Skip attribute `#[ ... ]`.
                j += 1;
                if toks.get(j).map(|t| t.text.as_str()) == Some("[") {
                    let mut adepth = 1usize;
                    j += 1;
                    while j < toks.len() && adepth > 0 {
                        match toks[j].text.as_str() {
                            "[" => adepth += 1,
                            "]" => adepth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                }
            }
            "," if depth == 1 => {
                expect_variant = true;
                j += 1;
            }
            _ => {
                if depth == 1 && expect_variant && t.kind == TokKind::Ident {
                    variants.push(Variant {
                        name: t.text.clone(),
                        line: t.line,
                    });
                    expect_variant = false;
                }
                j += 1;
            }
        }
    }
    variants
}

/// Collects `OrbError::<Variant>` references that appear in test code:
/// anywhere in a test-like file, or inside a `#[cfg(test)]` region of a
/// library file.
pub fn orb_error_uses(rel_path: &str, scan: &Scan) -> HashSet<String> {
    let mut uses = HashSet::new();
    let toks = &scan.tokens;
    let whole_file_is_test = classify(rel_path) == FileRole::TestLike;
    let regions = if whole_file_is_test {
        Vec::new()
    } else {
        test_regions(toks)
    };
    for i in 0..toks.len() {
        if i + 3 < toks.len()
            && toks[i].kind == TokKind::Ident
            && toks[i].text == "OrbError"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].kind == TokKind::Ident
        {
            let line = toks[i + 3].line;
            if whole_file_is_test || in_regions(line, &regions) {
                uses.insert(toks[i + 3].text.clone());
            }
        }
    }
    uses
}

/// Emits an L005 finding for every declared variant never referenced in
/// test code. `decl_path` is where the enum lives (for finding locations).
pub fn check_l005(decl_path: &str, variants: &[Variant], uses: &HashSet<String>) -> Vec<Finding> {
    // Helper constructors on the enum (e.g. `OrbError::timeout(..)`) start
    // lowercase and are not variants; the extractor only yields variant
    // positions, so no filtering is needed here.
    variants
        .iter()
        .filter(|v| !uses.contains(&v.name))
        .map(|v| {
            Finding::new(
                decl_path,
                v.line,
                "L005",
                &format!(
                    "OrbError::{} is never constructed or asserted in any test",
                    v.name
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f() { a.unwrap(); }";
        let f = check_file("crates/x/src/lib.rs", &scan(src));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn test_like_files_are_exempt() {
        let src = "fn f() { a.unwrap(); std::thread::sleep(d); }";
        assert!(check_file("crates/x/tests/e2e.rs", &scan(src)).is_empty());
        assert!(check_file("crates/x/benches/bench.rs", &scan(src)).is_empty());
        assert!(check_file("examples/demo.rs", &scan(src)).is_empty());
    }
}
