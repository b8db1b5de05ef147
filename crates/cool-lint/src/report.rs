//! Findings and report rendering: `file:line RULE message` text, the
//! `cool-report/v1` JSON document and a SARIF 2.1.0 subset for PR
//! annotations, all hand-rolled (the crate is dependency-free by design,
//! so no serde).

/// The tool label every rendering carries.
pub const TOOL: &str = "cool-lint";

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`L001`..`L007`, `A001`..`A010`, or `L000` for problems with
    /// the checker's own configuration).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, rule: &'static str, message: &str) -> Self {
        Finding {
            file: file.to_owned(),
            line,
            rule,
            message: message.to_owned(),
        }
    }

    /// The canonical one-line text form.
    pub fn render(&self) -> String {
        format!("{}:{} {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// The full lint result for a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived both inline annotations and the allowlist,
    /// sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by the checked-in allowlist.
    pub allowlisted: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings into the canonical order. Call once after collection.
    pub fn finish(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{TOOL}: {} finding(s), {} allowlisted, {} file(s) scanned\n",
            self.findings.len(),
            self.allowlisted,
            self.files_scanned
        ));
        out
    }

    /// Machine-readable report (stable key order), schema
    /// `cool-report/v1`. A golden-file test pins the byte-exact shape.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"tool\": {},\n  \"schema\": \"cool-report/v1\",\n  \"findings\": [",
            json_str(TOOL)
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"allowlisted\": {},\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.allowlisted,
            self.files_scanned,
            self.is_clean()
        ));
        out
    }

    /// The minimal SARIF 2.1.0 subset GitHub code scanning ingests for PR
    /// annotations at `file:line`: one run, one driver declaring every
    /// distinct rule id, one `result` per finding. Stable key order.
    pub fn render_sarif(&self) -> String {
        let mut rules: Vec<&str> = self.findings.iter().map(|f| f.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
             \"driver\": {\n",
        );
        out.push_str(&format!("          \"name\": {},\n", json_str(TOOL)));
        out.push_str("          \"rules\": [");
        for (i, r) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n            {{\"id\": {}}}", json_str(r)));
        }
        if !rules.is_empty() {
            out.push_str("\n          ");
        }
        out.push_str("]\n        }\n      },\n      \"results\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": \
                 {}}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
                json_str(f.rule),
                json_str(&f.message),
                json_str(&f.file),
                f.line.max(1)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_json_shapes() {
        let mut r = Report::default();
        r.findings.push(Finding::new("b.rs", 2, "L002", "two"));
        r.findings.push(Finding::new("a.rs", 9, "L001", "one \"quoted\""));
        r.files_scanned = 2;
        r.finish();
        assert_eq!(r.findings[0].file, "a.rs", "sorted by file");
        let text = r.render_text();
        assert!(text.contains("a.rs:9 L001 one \"quoted\""));
        assert!(text.contains("2 finding(s)"));
        let json = r.render_json();
        assert!(json.contains("\"rule\": \"L001\""));
        assert!(json.contains("one \\\"quoted\\\""));
        assert!(json.contains("\"clean\": false"));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.render_json().contains("\"clean\": true"));
        assert!(r.render_sarif().contains("\"results\": []"));
    }

    #[test]
    fn sarif_has_the_subset_github_ingests() {
        let mut r = Report::default();
        r.findings.push(Finding::new("a.rs", 3, "A008", "msg"));
        let s = r.render_sarif();
        for needle in [
            "\"version\": \"2.1.0\"",
            "\"name\": \"cool-lint\"",
            "{\"id\": \"A008\"}",
            "\"ruleId\": \"A008\"",
            "\"uri\": \"a.rs\"",
            "\"startLine\": 3",
            "\"level\": \"error\"",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
