//! A009 — state-machine drift against the DESIGN.md §8.4 tables.
//!
//! PR 9's liveness story rests on three small state machines: replica
//! health (healthy → suspect → evicted → re-admitted), the per-replica
//! circuit breaker (closed → open → half-open), and the retry/degradation
//! ladder. §8.4 documents each as a transition table; this rule keeps the
//! tables and the code the same artifact, with the §7.4-style both-ways
//! reconciliation:
//!
//! 1. **code → table**: every non-test *construction* of a machine's enum
//!    in its declared file (pattern positions — match arms, `matches!`,
//!    `if let`, comparisons — don't transition anything) must match a row
//!    by target variant and constructing function;
//! 2. **table → code**: every row must be backed by at least one such
//!    construction — delete the transition and the table turns stale;
//! 3. **from-column sanity**: the source state is `—`/`any` or a variant
//!    the file actually mentions;
//! 4. **emissions are real**: every row names what the transition emits,
//!    and each item resolves against the observability vocabulary —
//!    a bare name must be a `cool_telemetry::names` constant's value
//!    (closing the loop with A004), `flight:kind` a
//!    `cool_telemetry::flight` event-kind constant's value, and
//!    `error:Variant` an error variant — *and* the machine's file must
//!    reference that constant/variant, so deleting the emission site
//!    breaks the build even though the metric name still exists.
//!
//! Machines are declared as `#### `Enum` — `crates/.../file.rs`` headings
//! inside §8.4, each followed by a `| from | to | on | site | emits |`
//! table. Like A001/A005, everything degrades to skipped when the tree
//! has no DESIGN.md or no §8.4 (fixture roots keep their own DESIGN.md).

use super::a005::backticked;
use super::{subsection_lines, Ctx};
use crate::parse::ParsedFile;
use crate::report::Finding;

/// One documented machine: the enum, the file that owns it, its rows.
struct Machine {
    enum_name: String,
    path: String,
    line: u32,
    rows: Vec<Row>,
}

/// One transition row: `| from | to | on | site | emits |`.
struct Row {
    line: u32,
    from: String,
    to: String,
    site: String,
    emits: Vec<String>,
}

/// Parses the `### 8.4` state-machine tables, absolute line numbers.
fn parse_machines(design: &str) -> Vec<Machine> {
    let mut machines: Vec<Machine> = Vec::new();
    for (line_no, line) in subsection_lines(design, "### 8.4") {
        if line.starts_with("#### ") {
            let ticks = backticked(line);
            if ticks.len() >= 2 {
                machines.push(Machine {
                    enum_name: ticks[0].clone(),
                    path: ticks[1].clone(),
                    line: line_no,
                    rows: Vec::new(),
                });
            }
            continue;
        }
        let Some(m) = machines.last_mut() else {
            continue;
        };
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 5 {
            continue;
        }
        let Some(to) = backticked(cells[1]).into_iter().next() else {
            continue; // header or |---| separator
        };
        let Some(site) = backticked(cells[3]).into_iter().next() else {
            continue;
        };
        let from = backticked(cells[0])
            .into_iter()
            .next()
            .unwrap_or_else(|| cells[0].to_owned());
        m.rows.push(Row {
            line: line_no,
            from,
            to,
            site,
            emits: backticked(cells[4]),
        });
    }
    machines
}

/// The non-test construction sites of `enum_name` in `file`, with their
/// constructing function.
fn constructions<'a>(file: &'a ParsedFile, enum_name: &str) -> Vec<(&'a str, &'a str, u32)> {
    file.variant_uses
        .iter()
        .filter(|v| v.ty == enum_name && !v.is_pattern && !v.in_test)
        .filter_map(|v| v.fn_name.as_deref().map(|f| (v.name.as_str(), f, v.line)))
        .collect()
}

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;
    let Some(design) = ctx.design else {
        return out;
    };
    let machines = parse_machines(design);

    // The observability vocabulary the emits column resolves against.
    let metric_values: Vec<(&str, &str)> = ws
        .files
        .iter()
        .flat_map(|f| f.metric_consts.iter())
        .map(|(name, value, _)| (name.as_str(), value.as_str()))
        .collect();
    let flight_values: Vec<(&str, &str)> = ws
        .files
        .iter()
        .flat_map(|f| f.flight_consts.iter())
        .map(|(name, value, _)| (name.as_str(), value.as_str()))
        .collect();

    for m in &machines {
        let Some(file) = ws.files.iter().find(|f| f.rel == m.path) else {
            out.push(Finding::new(
                "DESIGN.md",
                m.line,
                "A009",
                &format!(
                    "state-machine table `{}` points at `{}`, which is not in the \
                     workspace",
                    m.enum_name, m.path
                ),
            ));
            continue;
        };
        let cons = constructions(file, &m.enum_name);
        if cons.is_empty() {
            out.push(Finding::new(
                "DESIGN.md",
                m.line,
                "A009",
                &format!(
                    "state machine `{}` is documented but `{}` never constructs it \
                     outside tests",
                    m.enum_name, m.path
                ),
            ));
            continue;
        }
        let seen: Vec<&str> = file
            .variant_uses
            .iter()
            .filter(|v| v.ty == m.enum_name)
            .map(|v| v.name.as_str())
            .collect();

        // 1. code -> table.
        for &(variant, func, line) in &cons {
            if !m.rows.iter().any(|r| r.to == variant && r.site == func) {
                out.push(Finding::new(
                    &file.rel,
                    line,
                    "A009",
                    &format!(
                        "transition to `{}::{variant}` in `{func}` has no row in the \
                         DESIGN.md §8.4 `{}` table; document the transition (and what \
                         it emits) or remove it",
                        m.enum_name, m.enum_name
                    ),
                ));
            }
        }
        for r in &m.rows {
            // 2. table -> code.
            if !cons.iter().any(|&(v, f, _)| r.to == v && r.site == f) {
                out.push(Finding::new(
                    "DESIGN.md",
                    r.line,
                    "A009",
                    &format!(
                        "`{}` table row `{} -> {}` matches no construction of \
                         `{}::{}` in `{}` (fn `{}`); the code moved on — update or \
                         delete the row",
                        m.enum_name, r.from, r.to, m.enum_name, r.to, m.path, r.site
                    ),
                ));
            }
            // 3. from-column sanity.
            if !matches!(r.from.as_str(), "—" | "-" | "any" | "") && !seen.contains(&r.from.as_str())
            {
                out.push(Finding::new(
                    "DESIGN.md",
                    r.line,
                    "A009",
                    &format!(
                        "`{}` table row names source state `{}`, which `{}` never \
                         mentions",
                        m.enum_name, r.from, m.path
                    ),
                ));
            }
            // 4. emissions.
            if r.emits.is_empty() {
                out.push(Finding::new(
                    "DESIGN.md",
                    r.line,
                    "A009",
                    &format!(
                        "`{}` table row `{} -> {}` names no emission; every transition \
                         must emit a telemetry counter (`name`), a flight event \
                         (`flight:kind`) or an attributed error (`error:Variant`)",
                        m.enum_name, r.from, r.to
                    ),
                ));
            }
            for e in &r.emits {
                let (ok_vocab, referenced) = if let Some(kind) = e.strip_prefix("flight:") {
                    let hit = flight_values.iter().find(|&&(_, v)| v == kind);
                    (
                        hit.is_some(),
                        hit.is_some_and(|&(n, v)| {
                            file.lib_idents.contains(n) || file.lib_strs.contains(v)
                        }),
                    )
                } else if let Some(variant) = e.strip_prefix("error:") {
                    (true, file.lib_idents.contains(variant))
                } else {
                    let hit = metric_values.iter().find(|&&(_, v)| v == e.as_str());
                    (
                        hit.is_some(),
                        hit.is_some_and(|&(n, v)| {
                            file.lib_idents.contains(n) || file.lib_strs.contains(v)
                        }),
                    )
                };
                if !ok_vocab {
                    out.push(Finding::new(
                        "DESIGN.md",
                        r.line,
                        "A009",
                        &format!(
                            "`{}` table row `{} -> {}` emits `{e}`, which is not in the \
                             telemetry vocabulary (cool_telemetry::names / flight \
                             event kinds)",
                            m.enum_name, r.from, r.to
                        ),
                    ));
                } else if !referenced {
                    out.push(Finding::new(
                        "DESIGN.md",
                        r.line,
                        "A009",
                        &format!(
                            "`{}` table row `{} -> {}` emits `{e}` but `{}` never \
                             references it; the emission site is gone — restore it or \
                             fix the row",
                            m.enum_name, r.from, r.to, m.path
                        ),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_and_rows_parse_with_absolute_lines() {
        let design = "# t\n## 8. Failure\n### 8.4 State machines\n\
                      #### `Health` — `crates/cool-orb/src/replica.rs`\n\
                      | From | To | On | Site | Emits |\n\
                      |---|---|---|---|---|\n\
                      | — | `Healthy` | registration | `bind_resolved` | `replicas_healthy` |\n\
                      | `Suspect` | `Evicted` | threshold | `note_failure` | `replica_evictions_total` + `flight:replica_evicted` |\n\
                      #### `Breaker` — `crates/cool-orb/src/replica.rs`\n\
                      | From | To | On | Site | Emits |\n\
                      |---|---|---|---|---|\n\
                      | `Closed` | `Open` | failures | `note_failure` | `flight:breaker_open` |\n\
                      ### 8.5 Drains\n";
        let ms = parse_machines(design);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].enum_name, "Health");
        assert_eq!(ms[0].path, "crates/cool-orb/src/replica.rs");
        assert_eq!(ms[0].rows.len(), 2);
        assert_eq!(ms[0].rows[0].from, "—");
        assert_eq!(ms[0].rows[0].to, "Healthy");
        assert_eq!(ms[0].rows[0].site, "bind_resolved");
        assert_eq!(ms[0].rows[0].emits, ["replicas_healthy"]);
        assert_eq!(ms[0].rows[1].line, 8);
        assert_eq!(
            ms[0].rows[1].emits,
            ["replica_evictions_total", "flight:replica_evicted"]
        );
        assert_eq!(ms[1].rows.len(), 1);
    }
}
