//! Findings and their renderings: human-readable code frames and the
//! `--json` machine format.

use std::fmt;

use super::rules::RuleMeta;
use super::Severity;

/// One diagnostic, span-accurate: `line:col` point at the first offending
/// token, `underline` covers the matched token run on that line.
#[derive(Clone)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    /// 1-based column (in characters) of the match start.
    pub col: u32,
    pub rule: &'static RuleMeta,
    /// The full source line the match starts on (tabs preserved).
    pub excerpt: String,
    /// Character count to underline, ≥ 1, clipped to the excerpt line.
    pub underline_len: u32,
}

impl Finding {
    /// Build a finding from a byte span into `src`.
    pub fn from_span(
        file: &str,
        src: &str,
        span: (usize, usize),
        rule: &'static RuleMeta,
    ) -> Finding {
        let (start, end) = span;
        let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
        let line_end = src[start..].find('\n').map_or(src.len(), |i| start + i);
        let line = src[..start].matches('\n').count() as u32 + 1;
        let col = src[line_start..start].chars().count() as u32 + 1;
        let visible_end = end.min(line_end).max(start);
        let underline_len = (src[start..visible_end].chars().count() as u32).max(1);
        Finding {
            file: file.to_string(),
            line,
            col,
            rule,
            excerpt: src[line_start..line_end].to_string(),
            underline_len,
        }
    }

    /// Sort key for deterministic output.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str) {
        (self.file.clone(), self.line, self.col, self.rule.name)
    }
}

/// Code-frame rendering, one finding per block:
///
/// ```text
/// warning[hash-container]: randomized-iteration hash container …
///   --> crates/net/src/foo.rs:12:16
///    |
/// 12 |     let live: HashMap<u32, Flow> = HashMap::new();
///    |               ^^^^^^^
///    = help: iteration order is randomized per process; …
/// ```
impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}[{}]: {}",
            self.rule.severity, self.rule.name, self.rule.summary
        )?;
        writeln!(f, "  --> {}:{}:{}", self.file, self.line, self.col)?;
        let gutter = self.line.to_string().len().max(2);
        writeln!(f, "{:gutter$} |", "")?;
        writeln!(f, "{:>gutter$} | {}", self.line, self.excerpt)?;
        // Reproduce the excerpt's leading layout (tabs stay tabs) so the
        // carets line up in any terminal.
        let mut pad = String::new();
        for (i, c) in self.excerpt.chars().enumerate() {
            if i + 1 >= self.col as usize {
                break;
            }
            pad.push(if c == '\t' { '\t' } else { ' ' });
        }
        writeln!(
            f,
            "{:gutter$} | {}{}",
            "",
            pad,
            "^".repeat(self.underline_len as usize)
        )?;
        write!(f, "{:gutter$} = help: {}", "", self.rule.suggestion)
    }
}

// ---------------------------------------------------------------------------
// JSON report (hand-rolled: the vendored serde is a no-op stub)
// ---------------------------------------------------------------------------

/// Escape a string for JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the full machine-readable report. Deterministic: findings are
/// pre-sorted by the caller, keys are emitted in a fixed order.
pub fn json_report(files_scanned: usize, findings: &[Finding]) -> String {
    let errors = findings
        .iter()
        .filter(|f| f.rule.severity == Severity::Error)
        .count();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"errors\": {errors},\n"));
    out.push_str(&format!("  \"warnings\": {},\n", findings.len() - errors));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"severity\": \"{}\", \"summary\": \"{}\", \"excerpt\": \"{}\"}}",
            esc(&f.file),
            f.line,
            f.col,
            f.rule.name,
            f.rule.severity,
            esc(f.rule.summary),
            esc(f.excerpt.trim()),
        ));
    }
    if findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::super::rules::HASH_CONTAINER;
    use super::*;

    #[test]
    fn from_span_computes_line_col_and_excerpt() {
        let src = "fn main() {\n    let m = HashMap::new();\n}\n";
        let start = src.find("HashMap").unwrap();
        let f = Finding::from_span("a.rs", src, (start, start + 7), &HASH_CONTAINER);
        assert_eq!((f.line, f.col), (2, 13));
        assert_eq!(f.excerpt, "    let m = HashMap::new();");
        assert_eq!(f.underline_len, 7);
    }

    #[test]
    fn multiline_span_is_clipped_to_first_line() {
        let src = "let x = foo(\n  bar);\n";
        let f = Finding::from_span("a.rs", src, (8, src.len()), &HASH_CONTAINER);
        assert_eq!(f.line, 1);
        assert_eq!(f.excerpt, "let x = foo(");
        assert_eq!(f.underline_len, 4); // "foo(" — clipped at line end
    }

    #[test]
    fn display_renders_code_frame() {
        let src = "    let m = HashMap::new();\n";
        let start = src.find("HashMap").unwrap();
        let f = Finding::from_span("crates/x.rs", src, (start, start + 7), &HASH_CONTAINER);
        let rendered = f.to_string();
        assert!(
            rendered.starts_with("warning[hash-container]:"),
            "{rendered}"
        );
        assert!(rendered.contains("--> crates/x.rs:1:13"), "{rendered}");
        assert!(rendered.contains("^^^^^^^"), "{rendered}");
        assert!(rendered.contains("= help:"), "{rendered}");
        // Caret column: the underline line pads 12 chars then carets.
        let caret_line = rendered
            .lines()
            .find(|l| l.contains('^'))
            .expect("caret line");
        assert_eq!(
            caret_line.find('^').unwrap() - caret_line.find('|').unwrap(),
            14
        );
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let src = "let s = \"x\";\tHashMap::new();\n";
        let start = src.find("HashMap").unwrap();
        let f = Finding::from_span("a\\b.rs", src, (start, start + 7), &HASH_CONTAINER);
        let json = json_report(3, &[f]);
        assert!(json.contains("\"files_scanned\": 3"), "{json}");
        assert!(json.contains("\"a\\\\b.rs\""), "{json}");
        assert!(json.contains("\\\"x\\\""), "{json}");
        // Empty-findings report stays valid.
        let empty = json_report(0, &[]);
        assert!(empty.contains("\"findings\": []"), "{empty}");
    }
}
