//! The whole-workspace fact base: parsed files plus the resolution maps
//! that turn a guard acquisition's receiver ident back into a lock rank.

use crate::parse::{ParsedFile, RankExpr};
use std::collections::HashMap;

/// A lock identity an acquisition site resolved to.
#[derive(Debug, Clone)]
pub struct LockInfo {
    pub rank: u32,
    /// The registered lock name (constructor's second argument), when known.
    pub name: String,
}

/// All parsed files plus derived lookup tables.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
    /// `rank::NAME` constant values: name -> (value, file, line).
    pub rank_consts: HashMap<String, (u32, String, u32)>,
    /// (file, binder) -> locks constructed under that binder in that file.
    by_file_binder: HashMap<(String, String), Vec<LockInfo>>,
    /// (crate, binder) -> same, crate-wide (fallback for cross-file fields).
    by_crate_binder: HashMap<(String, String), Vec<LockInfo>>,
    /// (crate, NAME) -> integer-constant value, for A005 capacity
    /// resolution. Conflicting re-definitions within a crate are dropped.
    int_consts: HashMap<(String, String), u64>,
}

impl Workspace {
    pub fn build(files: Vec<ParsedFile>) -> Self {
        let mut rank_consts = HashMap::new();
        for f in &files {
            for (name, value, line) in &f.rank_consts {
                rank_consts.insert(name.clone(), (*value, f.rel.clone(), *line));
            }
        }

        let mut by_file_binder: HashMap<(String, String), Vec<LockInfo>> = HashMap::new();
        let mut by_crate_binder: HashMap<(String, String), Vec<LockInfo>> = HashMap::new();
        for f in &files {
            for c in &f.lock_ctors {
                let rank = match &c.rank {
                    RankExpr::Lit(v) => Some(*v),
                    RankExpr::Const(name) => rank_consts.get(name).map(|&(v, _, _)| v),
                };
                let (Some(rank), Some(binder)) = (rank, c.binder.as_ref()) else {
                    continue;
                };
                let info = LockInfo {
                    rank,
                    name: c.name_str.clone().unwrap_or_else(|| binder.clone()),
                };
                by_file_binder
                    .entry((f.rel.clone(), binder.clone()))
                    .or_default()
                    .push(info.clone());
                by_crate_binder
                    .entry((f.krate.clone(), binder.clone()))
                    .or_default()
                    .push(info);
            }
        }

        let mut int_consts: HashMap<(String, String), u64> = HashMap::new();
        let mut conflicting: Vec<(String, String)> = Vec::new();
        for f in &files {
            for (name, value, _) in &f.int_consts {
                let key = (f.krate.clone(), name.clone());
                match int_consts.get(&key) {
                    Some(v) if v != value => conflicting.push(key),
                    Some(_) => {}
                    None => {
                        int_consts.insert(key, *value);
                    }
                }
            }
        }
        for key in conflicting {
            int_consts.remove(&key);
        }

        Workspace {
            files,
            rank_consts,
            by_file_binder,
            by_crate_binder,
            int_consts,
        }
    }

    /// Resolves a SCREAMING_CASE capacity constant within a crate. `None`
    /// when the name is undefined there or defined with conflicting values.
    pub fn resolve_int_const(&self, krate: &str, name: &str) -> Option<u64> {
        self.int_consts
            .get(&(krate.to_owned(), name.to_owned()))
            .copied()
    }

    /// Resolves an acquisition receiver (`self.<recv>.lock()` or a local
    /// named `recv`) to a lock. File-local constructor sites win; otherwise
    /// the binder must be unambiguous across the crate — `conn` naming a
    /// rank-36 lock in server.rs and a rank-38 lock in binding.rs resolves
    /// in neither file's neighbours.
    pub fn resolve_guard(&self, file: &ParsedFile, recv: &str) -> Option<LockInfo> {
        let key = (file.rel.clone(), recv.to_owned());
        if let Some(infos) = self.by_file_binder.get(&key) {
            if unambiguous(infos) {
                return Some(infos[0].clone());
            }
            return None;
        }
        let key = (file.krate.clone(), recv.to_owned());
        let infos = self.by_crate_binder.get(&key)?;
        if unambiguous(infos) {
            Some(infos[0].clone())
        } else {
            None
        }
    }
}

fn unambiguous(infos: &[LockInfo]) -> bool {
    infos
        .iter()
        .all(|i| i.rank == infos[0].rank && i.name == infos[0].name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parse::parse_file;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(rel, src)| parse_file(rel, &scan(src)))
                .collect(),
        )
    }

    #[test]
    fn resolves_file_local_then_crate_unique_binders() {
        let w = ws(&[
            (
                "crates/app/src/a.rs",
                "mod rank { pub const LOW: u32 = 10; pub const HIGH: u32 = 20; }\n\
                 struct A { conn: OrderedMutex<u32> }\n\
                 fn mk() -> A { A { conn: OrderedMutex::new(rank::LOW, \"a.conn\", 0) } }",
            ),
            (
                "crates/app/src/b.rs",
                "struct B { peers: OrderedMutex<u32> }\n\
                 fn mk() -> B { B { peers: OrderedMutex::new(rank::HIGH, \"b.peers\", 0) } }",
            ),
        ]);
        let a = &w.files[0];
        let got = w.resolve_guard(a, "conn").expect("file-local binder");
        assert_eq!(got.rank, 10);
        assert_eq!(got.name, "a.conn");
        // `peers` is constructed only in b.rs but is crate-unique, so a.rs
        // code that locks a `peers` field still resolves.
        let got = w.resolve_guard(a, "peers").expect("crate-unique binder");
        assert_eq!(got.rank, 20);
    }

    #[test]
    fn ambiguous_crate_binders_do_not_resolve() {
        let w = ws(&[
            (
                "crates/app/src/a.rs",
                "mod rank { pub const LOW: u32 = 10; pub const HIGH: u32 = 20; }\n\
                 struct A { conn: OrderedMutex<u32> }\n\
                 fn mk() -> A { A { conn: OrderedMutex::new(rank::LOW, \"a.conn\", 0) } }",
            ),
            (
                "crates/app/src/b.rs",
                "struct B { conn: OrderedMutex<u32> }\n\
                 fn mk() -> B { B { conn: OrderedMutex::new(rank::HIGH, \"b.conn\", 0) } }",
            ),
            ("crates/app/src/c.rs", "fn other() {}"),
        ]);
        // From c.rs, `conn` could be either lock: must not resolve.
        let c = &w.files[2];
        assert!(w.resolve_guard(c, "conn").is_none());
        // From a.rs itself, the file-local site wins.
        let a = &w.files[0];
        assert_eq!(w.resolve_guard(a, "conn").map(|i| i.rank), Some(10));
    }
}
