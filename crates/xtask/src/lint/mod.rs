//! Determinism / robustness static analysis for the simulator workspace.
//!
//! The simulator's headline guarantee is bit-exact replay for a fixed seed
//! (ROADMAP "determinism" pillar). That property is easy to lose through a
//! single stray `HashMap` iteration, wall-clock read, or — as the engine
//! gets sharded and allocation-free — a reordered float sum or a heap
//! allocation on the dispatch path. This framework enforces the policy
//! mechanically:
//!
//! * [`lexer`] — a hand-rolled Rust lexer producing byte-spanned tokens
//!   (comments, raw strings, char-vs-lifetime all handled exactly);
//! * [`scope`] — a brace tree over the tokens: `#[cfg(test)]` regions,
//!   enclosing-`fn` names, `lint:allow` resolution;
//! * [`rules`] — the rule set; each rule is a visitor over the token
//!   stream (`cargo xtask lint --list-rules` / `--explain <rule>`);
//! * [`diag`] — span-accurate findings, code frames, `--json` output.
//!
//! Scope policy (unchanged from the line-scanner era): `vendor/` and
//! `target/` are never scanned; `crates/bench` and `crates/xtask` are
//! exempt from everything (they time, explore, and embed rule-triggering
//! fixtures); `#[cfg(test)]` regions and `tests/` files are exempt from
//! warning-severity rules but still subject to error-severity ones. A
//! `// lint:allow(<rule>)` comment on the same line — or a comment line
//! above, looking through further comments and attributes — suppresses a
//! rule where the hazard is deliberate.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use diag::Finding;
use lexer::{Token, TokenKind};
use rules::{RuleMeta, ALL_RULES};

// ---------------------------------------------------------------------------
// Shared policy types
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// What kind of file is being scanned — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code of the deterministic core crates: all rules.
    CoreLib,
    /// Other simulator code (binaries, metrics, workloads): everything
    /// except the core-lib-only rules.
    Sim,
    /// Integration-test code: error-severity rules only.
    Test,
    /// `crates/bench` and `crates/xtask`: exempt.
    Bench,
}

/// Classify a workspace-relative path.
pub fn classify(rel: &Path) -> FileClass {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy());
    let first = comps.next().unwrap_or_default();
    if first == "tests" {
        return FileClass::Test;
    }
    if first == "crates" {
        let krate = comps.next().unwrap_or_default();
        // bench measures wall-clock by design; xtask is developer tooling
        // and embeds rule-triggering snippets in its fixtures.
        if krate == "bench" || krate == "xtask" {
            return FileClass::Bench;
        }
        if rel.components().any(|c| c.as_os_str() == "tests") {
            return FileClass::Test;
        }
        if matches!(&*krate, "engine" | "net" | "core" | "transport" | "lb") {
            // The crate's binaries (src/bin) are tools, not library code.
            if rel.components().any(|c| c.as_os_str() == "bin") {
                return FileClass::Sim;
            }
            return FileClass::CoreLib;
        }
    }
    FileClass::Sim
}

// ---------------------------------------------------------------------------
// Per-file rule context
// ---------------------------------------------------------------------------

/// Everything a rule sees while visiting one file: the comment-free token
/// stream (with byte spans into `src`) plus scope lookups. Findings are
/// emitted as token ranges; the engine applies test-gating and
/// `lint:allow` suppression afterwards, centrally.
pub struct FileCx<'a> {
    pub file: &'a str,
    pub class: FileClass,
    pub src: &'a str,
    /// Code tokens only (comments stripped).
    pub code: Vec<Token>,
    /// Map from `code` index to index in the full lexed stream.
    orig: Vec<usize>,
    scope: &'a scope::ScopeMap,
    /// (first, last, rule) token ranges, inclusive.
    emitted: Vec<(usize, usize, &'static RuleMeta)>,
}

impl FileCx<'_> {
    /// Token text, or `""` past the end (so sequence probes can overrun
    /// safely).
    pub fn text(&self, i: usize) -> &str {
        self.code.get(i).map_or("", |t| t.text(self.src))
    }

    pub fn kind(&self, i: usize) -> Option<TokenKind> {
        self.code.get(i).map(|t| t.kind)
    }

    pub fn is(&self, i: usize, s: &str) -> bool {
        self.text(i) == s
    }

    /// Do the tokens starting at `from` spell out `texts` exactly?
    pub fn seq(&self, from: usize, texts: &[&str]) -> bool {
        texts.iter().enumerate().all(|(k, s)| self.is(from + k, s))
    }

    /// Innermost enclosing `fn` name at token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&str> {
        self.orig.get(i).and_then(|&o| self.scope.enclosing_fn(o))
    }

    /// Report a finding covering code tokens `first..=last`.
    pub fn emit(&mut self, first: usize, last: usize, rule: &'static RuleMeta) {
        let last = last.min(self.code.len().saturating_sub(1));
        self.emitted.push((first, last, rule));
    }
}

/// Run every applicable rule over one file's source. `file` is the
/// workspace-relative path used for diagnostics and path-scoped rules.
pub fn lint_source(file: &str, src: &str, class: FileClass) -> Vec<Finding> {
    if class == FileClass::Bench {
        return Vec::new();
    }
    let lexed = lexer::lex(src);
    let scope_map = scope::analyze(src, &lexed);
    let (code, orig): (Vec<Token>, Vec<usize>) = lexed.code_tokens().map(|(i, t)| (*t, i)).unzip();
    let mut cx = FileCx {
        file,
        class,
        src,
        code,
        orig,
        scope: &scope_map,
        emitted: Vec::new(),
    };
    for rule in ALL_RULES {
        if rule.enabled(file, class) {
            rule.check(&mut cx);
        }
    }

    let mut findings = Vec::new();
    for (first, last, rule) in cx.emitted {
        let Some(tok) = cx.code.get(first) else {
            continue;
        };
        let anchor = cx.orig[first];
        // Warning-severity rules are exempt in test code (a test-local
        // HashSet or unwrap cannot hurt replay); errors always apply.
        if rule.severity == Severity::Warning
            && (class == FileClass::Test || scope_map.in_test(anchor))
        {
            continue;
        }
        if scope_map.allowed(tok.line, rule.name) {
            continue;
        }
        let span = (tok.start, cx.code[last].end.max(tok.end));
        findings.push(Finding::from_span(file, src, span, rule));
    }
    findings.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    findings.dedup_by(|a, b| a.sort_key() == b.sort_key());
    findings
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(&*name, "vendor" | "target" | ".git" | ".github") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort(); // deterministic diagnostic order
    out
}

/// Lint the whole workspace: `(files scanned, findings sorted)`.
pub fn scan_workspace(root: &Path) -> (usize, Vec<Finding>) {
    let files = collect_rs_files(root);
    let mut findings = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let class = classify(rel);
        if class == FileClass::Bench {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(path) else {
            eprintln!("warning: could not read {}", path.display());
            continue;
        };
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        findings.extend(lint_source(&rel_str, &source, class));
    }
    findings.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    (files.len(), findings)
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// CLI-level options for a lint run.
#[derive(Debug, Default)]
pub struct Options {
    /// Fail on any unsuppressed finding (CI mode). A finding is fixed or
    /// carries a justified `lint:allow`; nothing is grandfathered.
    pub deny: bool,
    /// Write the JSON report: `Some(None)` → stdout, `Some(Some(p))` → file.
    pub json: Option<Option<PathBuf>>,
}

pub fn run(root: &Path, opts: &Options) -> ExitCode {
    let (files_scanned, findings) = scan_workspace(root);
    for f in &findings {
        println!("{f}\n");
    }
    let errors = findings
        .iter()
        .filter(|f| f.rule.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;
    println!("lint: scanned {files_scanned} files: {errors} error(s), {warnings} warning(s)");

    if let Some(dest) = &opts.json {
        let report = diag::json_report(files_scanned, &findings);
        match dest {
            None => print!("{report}"),
            Some(path) => {
                if let Err(e) = std::fs::write(path, &report) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if errors > 0 || (opts.deny && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_workspace_layout() {
        let p = |s: &str| classify(Path::new(s));
        assert_eq!(p("crates/engine/src/queue.rs"), FileClass::CoreLib);
        assert_eq!(p("crates/net/src/sim/mod.rs"), FileClass::CoreLib);
        assert_eq!(p("crates/metrics/src/counters.rs"), FileClass::Sim);
        assert_eq!(p("crates/bench/src/bin/bench.rs"), FileClass::Bench);
        assert_eq!(p("crates/xtask/src/lint/mod.rs"), FileClass::Bench);
        assert_eq!(p("tests/cross_crate_props.rs"), FileClass::Test);
        assert_eq!(p("crates/net/tests/pfc.rs"), FileClass::Test);
        assert_eq!(p("src/bin/rlbsim.rs"), FileClass::Sim);
        assert_eq!(p("crates/engine/src/bin/tool.rs"), FileClass::Sim);
    }

    #[test]
    fn engine_masks_strings_comments_and_raw_strings() {
        let src = "\
//! Talks about HashMap iteration order in docs.
/// Mentions Instant::now in a doc comment.
// plain comment: thread_rng
fn f() { let s = \"HashMap and Instant::now and .unwrap()\"; }
/* block comment: SystemTime::now
   spanning lines with HashSet */
fn g() { let r = r#\"raw with \"HashMap\" inside\"#; }
";
        assert!(lint_source("t.rs", src, FileClass::CoreLib).is_empty());
    }

    #[test]
    fn engine_applies_allow_and_test_gating_centrally() {
        let src = "\
fn f() {
    let t = Instant::now(); // lint:allow(wall-clock) CLI timing
    let m: HashMap<u8, u8> = HashMap::new();
}
#[cfg(test)]
mod tests {
    fn t() { let s: HashSet<u32> = HashSet::new(); }
}
";
        let found = lint_source("t.rs", src, FileClass::Sim);
        let names: Vec<&str> = found.iter().map(|f| f.rule.name).collect();
        assert_eq!(names, ["hash-container", "hash-container"]);
        assert!(found.iter().all(|f| f.line == 3));
    }

    #[test]
    fn findings_are_span_accurate_and_sorted() {
        let src = "fn f() {\n    let a: HashSet<u8> = HashSet::new();\n}\n";
        let found = lint_source("t.rs", src, FileClass::Sim);
        assert_eq!(found.len(), 2);
        assert_eq!((found[0].line, found[0].col), (2, 12));
        assert_eq!((found[1].line, found[1].col), (2, 26));
        assert_eq!(found[0].underline_len, 7); // "HashSet"
        assert_eq!(found[0].excerpt, "    let a: HashSet<u8> = HashSet::new();");
    }

    #[test]
    fn multiline_attribute_gating_and_allow_interplay() {
        // lint:allow reaches code through a multi-line attribute; the
        // attribute itself gates nothing.
        let src = "\
// lint:allow(hash-container)
#[derive(
    Debug,
    Clone,
)]
struct S { m: HashMap<u8, u8> }
";
        assert!(lint_source("t.rs", src, FileClass::Sim).is_empty());
    }
}
