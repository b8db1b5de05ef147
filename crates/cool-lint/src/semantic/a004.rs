//! A004 — telemetry name discipline.
//!
//! Every constant in a `src/names.rs` metric-name catalogue must be
//! *live* (referenced by library code somewhere outside the catalogue
//! itself, by constant name or by literal value) and *documented* (its
//! string value appears in DESIGN.md §6). An orphan constant is dead
//! observability surface; an undocumented one is a dashboard nobody can
//! find. The documentation half degrades to skipped when the tree has no
//! DESIGN.md (fixture roots).

use super::{section, Ctx};
use crate::report::Finding;

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;
    let doc = ctx.design.and_then(|d| section(d, "## 6"));

    for file in &ws.files {
        for (name, value, line) in &file.metric_consts {
            let emitted = ws.files.iter().any(|other| {
                !std::ptr::eq(other, file)
                    && (other.lib_idents.contains(name) || other.lib_strs.contains(value))
            });
            if !emitted {
                out.push(Finding::new(
                    &file.rel,
                    *line,
                    "A004",
                    &format!(
                        "metric name constant `{name}` (\"{value}\") is never emitted by \
                         library code"
                    ),
                ));
            }
            if let Some(doc) = doc {
                if !doc.contains(value) {
                    out.push(Finding::new(
                        &file.rel,
                        *line,
                        "A004",
                        &format!(
                            "metric `{value}` is not documented in the DESIGN.md §6 \
                             catalogue"
                        ),
                    ));
                }
            }
        }
    }
    out
}
