//! A006 — condvar wait-graph analysis.
//!
//! For every condvar wait site (a `.wait*` call whose receiver binds a
//! `Condvar` somewhere in the crate) three ingredients of the classic
//! missed-wakeup/convoy hangs are checked:
//!
//! (a) no *other* ordered lock is held across the wait — the wait
//!     releases only its own mutex, so anything else held blocks every
//!     thread that needs it until the wakeup arrives (convoy), and by
//!     repo convention condvar mutexes are plain `parking_lot`/`std`
//!     mutexes, so any `OrderedMutex` guard live at the wait is foreign;
//! (b) at least one non-test `notify_one`/`notify_all` on the same
//!     receiver exists in the crate — a condvar nobody notifies is a
//!     hang, not a synchronization;
//! (c) the wait is guarded by a predicate loop (lexically inside
//!     `loop`/`while`/`for`, or a `*_while` variant that re-checks
//!     internally) — bare waits miss wakeups that arrive early and
//!     return spuriously.
//!
//! Wait sites are collected whole-file, so waits inside spawned-thread
//! closures are checked even though closure bodies are excluded from the
//! per-function event streams; check (a) alone relies on those streams
//! and therefore sees only non-closure waits.

use super::{walk_fn, Ctx};
use crate::parse::EventKind;
use crate::report::Finding;
use std::collections::{HashMap, HashSet};

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;

    // Crate-wide condvar binders and non-test notify receivers.
    let mut binders: HashMap<&str, HashSet<&str>> = HashMap::new();
    let mut notified: HashMap<&str, HashSet<&str>> = HashMap::new();
    for file in &ws.files {
        let b = binders.entry(file.krate.as_str()).or_default();
        for name in &file.condvar_binders {
            b.insert(name.as_str());
        }
        if file.test_like {
            continue;
        }
        let n = notified.entry(file.krate.as_str()).or_default();
        for site in &file.notifies {
            if !site.in_test {
                n.insert(site.recv.as_str());
            }
        }
    }

    for (fi, file) in ws.files.iter().enumerate() {
        if file.test_like {
            continue;
        }
        let is_condvar = |recv: &str| {
            binders
                .get(file.krate.as_str())
                .is_some_and(|b| b.contains(recv))
        };
        for w in &file.waits {
            if w.in_test || !is_condvar(&w.recv) {
                continue;
            }
            // (b) a notify site must exist for this condvar.
            if !notified
                .get(file.krate.as_str())
                .is_some_and(|n| n.contains(w.recv.as_str()))
            {
                out.push(Finding::new(
                    &file.rel,
                    w.line,
                    "A006",
                    &format!(
                        "condvar `{}` is waited on here but crate `{}` has no \
                         notify_one/notify_all site for it — nothing can wake this thread",
                        w.recv, file.krate
                    ),
                ));
            }
            // (c) predicate loop (or a *_while variant).
            if !w.in_loop && !w.method.ends_with("_while") {
                out.push(Finding::new(
                    &file.rel,
                    w.line,
                    "A006",
                    &format!(
                        "condvar wait on `{}` is not guarded by a predicate loop; spurious \
                         wakeups and early notifies are lost — wrap it in `while !cond` or \
                         use a `*_while` variant",
                        w.recv
                    ),
                ));
            }
        }
        // (a) no ordered lock held across a wait.
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            walk_fn(ws, fi, gi, |e, held| {
                if let EventKind::Block { what } = &e.kind {
                    if what.starts_with("wait") {
                        for h in held {
                            out.push(Finding::new(
                                &file.rel,
                                e.line,
                                "A006",
                                &format!(
                                    "condvar-style `{what}` while holding ordered lock `{}` \
                                     (rank {}, locked at line {}); the wait releases only \
                                     its own mutex, so `{}` stays held until the wakeup",
                                    h.name, h.rank, h.line, h.name
                                ),
                            ));
                        }
                    }
                }
            });
        }
    }
    out
}
