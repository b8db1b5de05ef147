//! A001 — static lock-rank verification.
//!
//! Two halves. The interprocedural half propagates held ranks along
//! resolved call edges and flags any acquisition of a rank less than or
//! equal to one already held (the runtime checker's strict-increase rule,
//! checked before the code ever runs). The documentation half parses the
//! DESIGN.md §7.2 rank table and cross-checks it against the `mod rank`
//! constants and the actual `OrderedMutex`/`OrderedRwLock` construction
//! sites — drift in either direction is a finding.

use super::{section, walk_fn, Ctx};
use crate::parse::{EventKind, RankExpr};
use crate::report::Finding;

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;
    for (fi, file) in ws.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            walk_fn(ws, fi, gi, |e, held| match &e.kind {
                EventKind::Acquire { recv, .. } => {
                    let Some(info) = ws.resolve_guard(file, recv) else {
                        return;
                    };
                    for h in held {
                        if info.rank <= h.rank {
                            out.push(Finding::new(
                                &file.rel,
                                e.line,
                                "A001",
                                &format!(
                                    "acquires `{}` (rank {}) while holding `{}` (rank {}, \
                                     locked at line {}); ranks must strictly increase",
                                    info.name, info.rank, h.name, h.rank, h.line
                                ),
                            ));
                        }
                    }
                }
                EventKind::Call { name, .. } => {
                    let Some(target) = ctx.graph.resolve_call((fi, gi), e.tok) else {
                        return;
                    };
                    let Some(sum) = ctx.graph.summaries.get(&target) else {
                        return;
                    };
                    // Sorted for deterministic report order.
                    let mut acquires: Vec<_> = sum.acquires.iter().collect();
                    acquires.sort_by_key(|(&r, _)| r);
                    for (&rank, origin) in acquires {
                        for h in held {
                            if rank <= h.rank {
                                out.push(Finding::new(
                                    &file.rel,
                                    e.line,
                                    "A001",
                                    &format!(
                                        "call to `{}` may acquire rank {} ({}) while \
                                         holding `{}` (rank {}, locked at line {})",
                                        name,
                                        rank,
                                        origin.describe(),
                                        h.name,
                                        h.rank,
                                        h.line
                                    ),
                                ));
                            }
                        }
                    }
                }
                EventKind::Block { .. } => {}
            });
        }
    }
    out.extend(rank_table_drift(ctx));
    out
}

/// A parsed rank-table row: `| 31–33 | \`a\` / \`b\` | ... |`.
struct Row {
    line: u32,
    lo: u32,
    hi: u32,
    names: Vec<String>,
}

/// Cross-checks the DESIGN.md §7.2 rank table against the code. Skipped
/// when the tree has no DESIGN.md or the section has no table (fixture
/// roots exercising only the interprocedural half).
fn rank_table_drift(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;

    // Unresolvable rank constants are drift regardless of the table.
    for file in &ws.files {
        for c in &file.lock_ctors {
            if c.in_test {
                continue;
            }
            if let RankExpr::Const(name) = &c.rank {
                if !ws.rank_consts.contains_key(name) {
                    out.push(Finding::new(
                        &file.rel,
                        c.line,
                        "A001",
                        &format!("lock constructed with unknown rank constant `{name}`"),
                    ));
                }
            }
        }
    }

    let Some(design) = ctx.design else {
        return out;
    };
    let Some(sect) = section(design, "## 7") else {
        return out;
    };
    let rows = parse_rows(design, sect);
    if rows.is_empty() {
        return out;
    }

    // 1. Every rank constant is covered by some row.
    for (name, (value, file, line)) in &ws.rank_consts {
        if !rows.iter().any(|r| *value >= r.lo && *value <= r.hi) {
            out.push(Finding::new(
                file,
                *line,
                "A001",
                &format!(
                    "rank constant `{name}` = {value} is missing from the DESIGN.md §7.2 \
                     rank table"
                ),
            ));
        }
    }
    // 2. Every row covers at least one constant.
    for r in &rows {
        if !ws
            .rank_consts
            .values()
            .any(|(v, _, _)| *v >= r.lo && *v <= r.hi)
        {
            out.push(Finding::new(
                "DESIGN.md",
                r.line,
                "A001",
                &format!(
                    "rank table row {}–{} matches no rank constant in the code",
                    r.lo, r.hi
                ),
            ));
        }
    }
    // 3. Every non-test lock site's registered name appears in its row.
    let mut site_names: Vec<&str> = Vec::new();
    for file in &ws.files {
        for c in &file.lock_ctors {
            if c.in_test {
                continue;
            }
            let Some(name) = c.name_str.as_deref() else {
                continue;
            };
            site_names.push(name);
            let rank = match &c.rank {
                RankExpr::Lit(v) => Some(*v),
                RankExpr::Const(n) => ws.rank_consts.get(n).map(|&(v, _, _)| v),
            };
            let Some(rank) = rank else { continue };
            if let Some(row) = rows.iter().find(|r| rank >= r.lo && rank <= r.hi) {
                if !row.names.iter().any(|n| n == name) {
                    out.push(Finding::new(
                        &file.rel,
                        c.line,
                        "A001",
                        &format!(
                            "lock `{name}` (rank {rank}) is not named in its DESIGN.md \
                             §7.2 rank-table row (line {})",
                            row.line
                        ),
                    ));
                }
            }
        }
    }
    // 4. Every name the table lists is registered by some constructor.
    for r in &rows {
        for n in &r.names {
            if !site_names.iter().any(|s| s == n) {
                out.push(Finding::new(
                    "DESIGN.md",
                    r.line,
                    "A001",
                    &format!("rank table names lock `{n}` but no constructor registers it"),
                ));
            }
        }
    }
    out
}

/// Extracts table rows with a numeric first cell from the §7 slice.
/// Ranges use an en-dash or hyphen (`31–33`); lock names are the
/// backticked strings of the second cell, `/`-separated, with leading-dot
/// abbreviations (`` `connection.stack` / `.endpoint` ``) expanded using
/// the first name's head segment.
fn parse_rows(design: &str, sect: &str) -> Vec<Row> {
    // Line numbers must be absolute within DESIGN.md.
    let sect_start_line = {
        let off = sect.as_ptr() as usize - design.as_ptr() as usize;
        design[..off].lines().count() as u32
    };
    let mut rows = Vec::new();
    for (i, line) in sect.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 2 {
            continue;
        }
        let Some((lo, hi)) = parse_range(cells[0]) else {
            continue; // header or separator row
        };
        let mut names: Vec<String> = Vec::new();
        let mut rest = cells[1];
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            let Some(end) = after.find('`') else { break };
            names.push(after[..end].to_owned());
            rest = &after[end + 1..];
        }
        // Expand `.suffix` abbreviations from the first full name's head.
        if let Some(prefix) = names
            .first()
            .filter(|n| !n.starts_with('.'))
            .and_then(|n| n.split('.').next())
            .map(str::to_owned)
        {
            for n in &mut names {
                if n.starts_with('.') {
                    *n = format!("{prefix}{n}");
                }
            }
        }
        rows.push(Row {
            line: sect_start_line + i as u32 + 1,
            lo,
            hi,
            names,
        });
    }
    rows
}

fn parse_range(cell: &str) -> Option<(u32, u32)> {
    let norm = cell.replace('–', "-");
    if let Some((a, b)) = norm.split_once('-') {
        let lo = a.trim().parse::<u32>().ok()?;
        let hi = b.trim().parse::<u32>().ok()?;
        Some((lo, hi))
    } else {
        let v = norm.trim().parse::<u32>().ok()?;
        Some((v, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_abbreviated_names_parse() {
        let design = "# x\n## 7. Corr\ntext\n| rank | lock | guards |\n|---|---|---|\n\
                      | 10 | `orb.bindings` | cache |\n\
                      | 31–33 | `server.acceptor` / `server.dispatchers` | handles |\n\
                      | 60-68 | `connection.stack` / `.endpoint` / `.grant` | conn |\n\
                      ## 8. Next\n";
        let sect = section(design, "## 7").expect("§7 exists");
        let rows = parse_rows(design, sect);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].lo, rows[0].hi), (10, 10));
        assert_eq!((rows[1].lo, rows[1].hi), (31, 33));
        assert_eq!(
            rows[2].names,
            vec!["connection.stack", "connection.endpoint", "connection.grant"]
        );
        assert_eq!(rows[0].line, 6, "absolute DESIGN.md line");
    }

    #[test]
    fn range_cell_forms() {
        assert_eq!(parse_range("10"), Some((10, 10)));
        assert_eq!(parse_range("31–33"), Some((31, 33)));
        assert_eq!(parse_range("31-33"), Some((31, 33)));
        assert_eq!(parse_range("rank"), None);
        assert_eq!(parse_range("---"), None);
    }
}
