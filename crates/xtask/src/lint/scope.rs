//! Scope analysis over the token stream: a real brace tree instead of the
//! old per-line brace counting.
//!
//! Three questions the rules need answered per token:
//!
//! 1. **Is it test-gated?** `#[cfg(test)]` (and `#[test]`) attributes gate
//!    the next item; the gate covers the attribute itself, survives
//!    intervening attributes, extends through the item's whole brace tree,
//!    and expires at a braceless item's `;`.
//! 2. **Which `fn` encloses it?** The innermost named function — the
//!    `hot-alloc` rule scopes itself to the dispatch call graph by name.
//! 3. **Is the finding suppressed?** `// lint:allow(rule)` on the same
//!    line, or on a comment line above — where "above" is allowed to look
//!    through further comment lines *and attribute lines* (the old scanner
//!    lost the marker when a `#[derive(...)]` sat in between).

use std::collections::{BTreeMap, BTreeSet};

use super::lexer::{Lexed, Token, TokenKind};

/// Per-token scope facts for one file.
pub struct ScopeMap {
    in_test: Vec<bool>,
    fn_of: Vec<Option<u32>>,
    fn_names: Vec<String>,
    /// line → rule names suppressed on that line.
    allows: BTreeMap<u32, BTreeSet<String>>,
}

impl ScopeMap {
    /// Is the token at `tok_idx` inside (or on the attribute line of) a
    /// test-gated region?
    pub fn in_test(&self, tok_idx: usize) -> bool {
        self.in_test[tok_idx]
    }

    /// Name of the innermost enclosing `fn`, if any.
    pub fn enclosing_fn(&self, tok_idx: usize) -> Option<&str> {
        self.fn_of[tok_idx].map(|i| self.fn_names[i as usize].as_str())
    }

    /// Is `rule` suppressed by a `lint:allow` marker targeting `line`?
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allows.get(&line).is_some_and(|set| set.contains(rule))
    }
}

#[derive(Clone, Copy)]
struct Scope {
    test: bool,
    fn_idx: Option<u32>,
}

/// Analyze `lexed` (over `src`) into a [`ScopeMap`].
pub fn analyze(src: &str, lexed: &Lexed) -> ScopeMap {
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut in_test = vec![false; n];
    let mut fn_of: Vec<Option<u32>> = vec![None; n];
    let mut fn_names: Vec<String> = Vec::new();
    let mut is_attr = vec![false; n];

    let mut stack: Vec<Scope> = Vec::new();
    // Attribute gate seen, waiting for the item it decorates.
    let mut pending_test = false;
    // `fn name` seen, waiting for the body's `{`.
    let mut pending_fn: Option<u32> = None;
    // Bracket/paren depth since a pending started — a `;` only cancels a
    // pending item at depth 0 (`fn f(x: [u8; 3])` must not cancel).
    let mut pending_depth: i32 = 0;

    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        // Record current scope for this token before mutating state.
        let cur_test = pending_test || stack.iter().any(|s| s.test);
        let cur_fn = stack.iter().rev().find_map(|s| s.fn_idx);
        in_test[i] = cur_test;
        fn_of[i] = cur_fn;

        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            i += 1;
            continue;
        }
        match t.text(src) {
            "#" if next_code_is(src, toks, i + 1, "[") => {
                // Consume the whole attribute `#[ … ]` (nesting-aware) so
                // its internal braces/semicolons don't perturb the tree.
                let (end, gates_test) = scan_attribute(src, toks, i);
                for (j, flag) in is_attr.iter_mut().enumerate().take(end).skip(i) {
                    *flag = true;
                    in_test[j] = cur_test || pending_test || gates_test;
                    fn_of[j] = cur_fn;
                }
                if gates_test {
                    pending_test = true;
                }
                i = end;
                continue;
            }
            "fn" => {
                if let Some((j, name)) = next_code_ident(src, toks, i + 1) {
                    let idx = fn_names.len() as u32;
                    fn_names.push(name.to_string());
                    pending_fn = Some(idx);
                    pending_depth = 0;
                    in_test[j] = cur_test;
                    fn_of[j] = cur_fn;
                    i = j + 1;
                    continue;
                }
            }
            "(" | "[" => pending_depth += 1,
            ")" | "]" => pending_depth -= 1,
            ";" if pending_depth <= 0 => {
                // Braceless item (`#[cfg(test)] use …;`, trait method sig):
                // whatever was pending is over.
                pending_test = false;
                pending_fn = None;
            }
            "{" => {
                stack.push(Scope {
                    test: pending_test,
                    fn_idx: pending_fn.take(),
                });
                pending_test = false;
                pending_depth = 0;
            }
            "}" => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }

    let allows = resolve_allows(src, toks, &is_attr);
    ScopeMap {
        in_test,
        fn_of,
        fn_names,
        allows,
    }
}

/// Is the next code (non-comment) token exactly `text`?
fn next_code_is(src: &str, toks: &[Token], from: usize, text: &str) -> bool {
    toks[from..]
        .iter()
        .find(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .is_some_and(|t| t.text(src) == text)
}

/// The next code token if it is an identifier: (index, text).
fn next_code_ident<'s>(src: &'s str, toks: &[Token], from: usize) -> Option<(usize, &'s str)> {
    for (off, t) in toks[from..].iter().enumerate() {
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => continue,
            TokenKind::Ident => return Some((from + off, t.text(src))),
            _ => return None,
        }
    }
    None
}

/// Starting at the `#` of `#[ … ]`, find the token index one past the
/// closing `]` and whether the attribute gates a test-only item.
fn scan_attribute(src: &str, toks: &[Token], hash_idx: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut inner: Vec<&str> = Vec::new();
    let mut j = hash_idx + 1;
    while j < toks.len() {
        let t = &toks[j];
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            j += 1;
            continue;
        }
        match t.text(src) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, attr_gates_test(&inner));
                }
            }
            s => {
                if depth >= 1 {
                    inner.push(s);
                }
            }
        }
        j += 1;
    }
    (j, attr_gates_test(&inner)) // unterminated attribute: EOF
}

/// Does the attribute body (tokens between the outer brackets) gate
/// compilation to test builds? Recognized: `test`, `cfg(test)`, and
/// `cfg(any(test, …))` / `cfg(all(test, …))`; `cfg(not(test))` does not
/// gate (it is the *non*-test side), and `cfg_attr(test, …)` only tweaks
/// attributes, not compilation.
fn attr_gates_test(inner: &[&str]) -> bool {
    match inner.first() {
        Some(&"test") => inner.len() == 1,
        Some(&"cfg") => {
            inner.contains(&"test") && !inner.windows(2).any(|w| w[0] == "not" && w[1] == "(")
        }
        _ => false,
    }
}

/// Collect `lint:allow(rule)` markers from comment tokens and resolve each
/// to the code line it suppresses.
fn resolve_allows(src: &str, toks: &[Token], is_attr: &[bool]) -> BTreeMap<u32, BTreeSet<String>> {
    // Per-line classification. A token's text can span lines (block
    // comments, raw strings); charge every spanned line so a multi-line
    // string still counts as code on its continuation lines.
    let mut real_code: BTreeSet<u32> = BTreeSet::new(); // non-attribute code
    let mut skippable: BTreeSet<u32> = BTreeSet::new(); // comment or attr-only
    let mut max_line = 0u32;
    for (i, t) in toks.iter().enumerate() {
        let span_lines = t.text(src).matches('\n').count() as u32;
        let comment = matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment);
        for line in t.line..=t.line + span_lines {
            max_line = max_line.max(line);
            if comment || is_attr[i] {
                skippable.insert(line);
            } else {
                real_code.insert(line);
            }
        }
    }

    let mut out: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for t in toks {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        for (offset_lines, rule) in markers_in(t.text(src)) {
            let marker_line = t.line + offset_lines;
            // Same-line code → suppress that line. Otherwise walk down,
            // looking through comment-only and attribute-only lines, to
            // the first line with real code; a blank line breaks the walk
            // (the marker is dangling prose, not a suppression).
            let target = if real_code.contains(&marker_line) {
                Some(marker_line)
            } else {
                let mut line = marker_line + 1;
                loop {
                    if line > max_line {
                        break None;
                    }
                    if real_code.contains(&line) {
                        break Some(line);
                    }
                    if !skippable.contains(&line) {
                        break None; // blank line
                    }
                    line += 1;
                }
            };
            if let Some(line) = target {
                out.entry(line).or_default().insert(rule);
            }
        }
    }
    out
}

/// `lint:allow(rule)` markers inside a comment's text, with the marker's
/// line offset from the comment's first line (block comments span lines).
fn markers_in(comment: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (offset, line) in comment.lines().enumerate() {
        let mut rest = line;
        while let Some(i) = rest.find("lint:allow(") {
            rest = &rest[i + "lint:allow(".len()..];
            if let Some(j) = rest.find(')') {
                out.push((offset as u32, rest[..j].trim().to_string()));
                rest = &rest[j..];
            } else {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn scopes(src: &str) -> (ScopeMap, Vec<(String, usize)>) {
        let lexed = lex(src);
        let map = analyze(src, &lexed);
        // (text, token index) for every code ident, for easy lookups.
        let idents = lexed
            .code_tokens()
            .filter(|(_, t)| t.kind == TokenKind::Ident)
            .map(|(i, t)| (t.text(src).to_string(), i))
            .collect();
        (map, idents)
    }

    fn idx(idents: &[(String, usize)], name: &str) -> usize {
        idents
            .iter()
            .find(|(t, _)| t == name)
            .unwrap_or_else(|| panic!("no {name}"))
            .1
    }

    #[test]
    fn cfg_test_module_gates_its_brace_tree_only() {
        let src = "\
struct Before;
#[cfg(test)]
mod tests {
    fn inner() { let gated = 1; }
}
fn after() { let live = 1; }
";
        let (map, ids) = scopes(src);
        assert!(!map.in_test(idx(&ids, "Before")));
        assert!(map.in_test(idx(&ids, "gated")));
        assert!(!map.in_test(idx(&ids, "live")));
    }

    #[test]
    fn cfg_test_survives_intervening_attributes() {
        let src = "\
#[cfg(test)]
#[allow(dead_code)]
mod tests { fn t() { let gated = 1; } }
fn live() {}
";
        let (map, ids) = scopes(src);
        assert!(map.in_test(idx(&ids, "gated")));
        assert!(!map.in_test(idx(&ids, "live")));
    }

    #[test]
    fn braceless_gated_item_does_not_swallow_rest_of_file() {
        let src = "\
#[cfg(test)]
use std::collections::HashSet;
fn live() { let x = 1; }
";
        let (map, ids) = scopes(src);
        assert!(map.in_test(idx(&ids, "HashSet")));
        assert!(!map.in_test(idx(&ids, "live")));
    }

    #[test]
    fn semicolon_inside_brackets_does_not_cancel_pending_fn() {
        let src = "fn f(x: [u8; 3]) { let inside = x; } fn g() { let other = 1; }";
        let (map, ids) = scopes(src);
        assert_eq!(map.enclosing_fn(idx(&ids, "inside")), Some("f"));
        assert_eq!(map.enclosing_fn(idx(&ids, "other")), Some("g"));
    }

    #[test]
    fn enclosing_fn_tracks_nesting() {
        let src = "\
fn outer() {
    let a = 1;
    fn inner() { let b = 2; }
    let c = 3;
}
let top = 4;
";
        let (map, ids) = scopes(src);
        assert_eq!(map.enclosing_fn(idx(&ids, "a")), Some("outer"));
        assert_eq!(map.enclosing_fn(idx(&ids, "b")), Some("inner"));
        assert_eq!(map.enclosing_fn(idx(&ids, "c")), Some("outer"));
        assert_eq!(map.enclosing_fn(idx(&ids, "top")), None);
    }

    #[test]
    fn plain_test_attribute_gates_the_fn() {
        let src = "#[test]\nfn check() { let gated = 1; }\nfn live() { let x = 1; }";
        let (map, ids) = scopes(src);
        assert!(map.in_test(idx(&ids, "gated")));
        assert!(!map.in_test(idx(&ids, "x")));
    }

    #[test]
    fn cfg_not_test_and_cfg_attr_do_not_gate() {
        let src = "#[cfg(not(test))]\nfn live() { let a = 1; }";
        let (map, ids) = scopes(src);
        assert!(!map.in_test(idx(&ids, "a")));
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn live() { let a = 1; }";
        let (map, ids) = scopes(src);
        assert!(!map.in_test(idx(&ids, "a")));
    }

    #[test]
    fn cfg_any_including_test_gates() {
        let src = "#[cfg(any(test, feature = \"slow\"))]\nmod helpers { fn h() { let g = 1; } }";
        let (map, ids) = scopes(src);
        assert!(map.in_test(idx(&ids, "g")));
    }

    #[test]
    fn allow_same_line_and_next_line() {
        let src = "\
let a = f(); // lint:allow(wall-clock) timing only
// lint:allow(hash-container)
let b = g();
let c = h();
";
        let (map, _) = scopes(src);
        assert!(map.allowed(1, "wall-clock"));
        assert!(!map.allowed(1, "hash-container"));
        assert!(map.allowed(3, "hash-container"));
        assert!(!map.allowed(4, "hash-container"));
    }

    #[test]
    fn allow_looks_through_attributes_and_comments() {
        let src = "\
// lint:allow(hash-container)
// more prose about why
#[derive(Debug, Default)]
#[allow(dead_code)]
struct S { m: u32 }
";
        let (map, _) = scopes(src);
        assert!(map.allowed(5, "hash-container"));
    }

    #[test]
    fn allow_in_block_comment_and_multiline_attribute() {
        let src = "\
/* lint:allow(time-arith) */
#[rustfmt::skip]
let x = t_ps + 1;
";
        let (map, _) = scopes(src);
        assert!(map.allowed(3, "time-arith"));
        // Marker inside a multi-line block comment resolves from its own
        // line, not the comment's first line.
        let src = "/* prose\n   lint:allow(lib-unwrap)\n*/\nlet y = o.unwrap();\n";
        let (map, _) = scopes(src);
        assert!(map.allowed(4, "lib-unwrap"));
    }

    #[test]
    fn dangling_allow_at_eof_is_inert() {
        let src = "let a = 1;\n// lint:allow(wall-clock)\n";
        let (map, _) = scopes(src);
        assert!(!map.allowed(1, "wall-clock"));
        assert!(!map.allowed(2, "wall-clock"));
        assert!(!map.allowed(3, "wall-clock"));
    }
}
