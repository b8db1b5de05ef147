//! The cool-lint binary.
//!
//! ```text
//! cargo run -q --release -p cool-lint [WORKSPACE_ROOT] [--json-out FILE] [--sarif-out FILE]
//! ```
//!
//! Runs every L- and A-rule and prints the findings. The `cool-report/v1`
//! JSON report defaults to `lint-report.json` at the workspace root;
//! `--sarif-out` also writes SARIF 2.1.0 for GitHub PR annotations. Exit
//! codes: 0 clean, 1 findings, 2 I/O or usage error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cool-lint [WORKSPACE_ROOT] [--json-out FILE] [--sarif-out FILE]";

fn main() -> ExitCode {
    let mut root_arg: Option<String> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut sarif_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--json-out" => &mut json_out,
            "--sarif-out" => &mut sarif_out,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if root_arg.is_none() && !other.starts_with('-') => {
                root_arg = Some(other.to_owned());
                continue;
            }
            other => {
                eprintln!("cool-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        match args.next() {
            Some(p) => *slot = Some(PathBuf::from(p)),
            None => {
                eprintln!("cool-lint: {arg} needs a path");
                return ExitCode::from(2);
            }
        }
    }

    let root = cool_lint::workspace_root(root_arg.as_deref());
    let report = match cool_lint::check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cool-lint: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_text());

    let json_path = json_out.unwrap_or_else(|| root.join("lint-report.json"));
    let mut outputs = vec![(json_path, report.render_json())];
    if let Some(path) = sarif_out {
        outputs.push((path, report.render_sarif()));
    }
    for (path, doc) in outputs {
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cool-lint: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
