//! Spec text in and out: the tokenizer, one reader loop and one writer loop,
//! both over the rows of [`SPEC_REFERENCE`].

use super::grammar::{Doc, Field, KeyDoc, SectionDoc, Staged, SPEC_REFERENCE};
use super::{ScenarioSpec, WorkloadEntry};

/// A parse error with the span it points at. `Display` renders a caret
/// frame; keep the fields public so tools can re-render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Length of the underline (at least 1).
    pub len: usize,
    pub msg: String,
    /// The full source line, for the frame.
    pub src_line: String,
    /// Optional hint printed under the carets.
    pub help: Option<String>,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "error: {}", self.msg)?;
        let num = self.line.to_string();
        let pad = " ".repeat(num.len());
        writeln!(f, "{pad}--> scenario spec, line {num}")?;
        writeln!(f, "{pad} |")?;
        writeln!(f, "{num} | {}", self.src_line)?;
        let carets = "^".repeat(self.len.max(1));
        write!(
            f,
            "{pad} | {}{carets}",
            " ".repeat(self.col.saturating_sub(1))
        )?;
        if let Some(h) = &self.help {
            write!(f, " {h}")?;
        }
        Ok(())
    }
}

/// A scalar value with its source span.
#[derive(Debug, Clone, Copy)]
struct Val<'a> {
    kind: ValKind<'a>,
    col: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
enum ValKind<'a> {
    Int(u64),
    Bool(bool),
    Str(&'a str),
}

/// Keys per section the reader's "seen" table has room for.
pub(super) const MAX_KEYS: usize = 16;

/// The table a header opened, until the next header or the end of the text
/// closes it.
struct OpenTable {
    sect: &'static SectionDoc,
    header_line: usize,
    /// For each key of the section, the 1-based line that gave it (0: not
    /// given).
    seen: [usize; MAX_KEYS],
}

struct Reader<'a> {
    lines: Vec<&'a str>,
}

/// Parse spec text: a header opens the section row it names, a key is
/// type-checked against its row and stored through the row's accessor, and
/// the next header (or the end of the text) closes the open table.
pub(super) fn read(text: &str) -> Result<ScenarioSpec, SpecError> {
    let r = Reader {
        lines: text.lines().collect(),
    };
    let mut spec = ScenarioSpec {
        workloads: Vec::new(),
        ..ScenarioSpec::default()
    };
    let mut doc = Doc {
        spec: &mut spec,
        open: Staged::default(),
    };
    let mut open: Option<OpenTable> = None;
    // 1-based header line of each section opened so far (0: not yet).
    let mut opened = [0usize; SPEC_REFERENCE.len()];

    for i in 0..r.lines.len() {
        let raw = r.lines[i];
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed.starts_with('[') {
            r.close(open.take(), &mut doc)?;
            let sect = r.header(i, raw, trimmed, &mut opened)?;
            doc.open = Staged::default();
            open = Some(OpenTable {
                sect,
                header_line: i,
                seen: [0; MAX_KEYS],
            });
            continue;
        }
        let (key, key_col, val) = r.parse_kv(i)?;
        let key_err = |msg: String, help: &str| r.err(i, key_col, key.len(), msg, Some(help));
        let Some(table) = &mut open else {
            let msg = format!("key `{key}` before any section header");
            return Err(key_err(msg, "start with [scenario]"));
        };
        let sect = table.sect;
        let Some(k) = sect.keys.iter().position(|kd| kd.key == key) else {
            let known: Vec<&str> = sect.keys.iter().map(|kd| kd.key).collect();
            let msg = format!("unknown key `{key}` in {}", sect.header);
            return Err(key_err(msg, &format!("known keys: {}", known.join(", "))));
        };
        if table.seen[k] != 0 {
            let msg = format!("key `{key}` given twice in {}", sect.header);
            return Err(key_err(
                msg,
                &format!("first given on line {}", table.seen[k]),
            ));
        }
        table.seen[k] = i + 1;
        r.store(i, sect, &sect.keys[k], val, &mut doc)?;
    }
    r.close(open, &mut doc)?;
    if spec.workloads.is_empty() {
        spec.workloads.push(WorkloadEntry::default());
    }
    Ok(spec)
}

/// Emit the canonical text: every section row in order, every instance of
/// it the spec holds, every key of the instance through the row's accessor.
pub(super) fn write(spec: &ScenarioSpec) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("# rlb-net scenario spec\n");
    let title = out.len();
    let mut doc = Doc {
        spec,
        open: Staged::default(),
    };
    for sect in SPEC_REFERENCE {
        let mut n = 0;
        while (sect.stage)(&mut doc, n) {
            // A blank line between tables; the first sits under the title.
            if out.len() > title {
                out.push('\n');
            }
            out.push_str(sect.header);
            out.push('\n');
            let needs = sect.needs.map(|needs| needs(&doc.open).1);
            for k in sect.keys {
                if needs.is_some_and(|needs| !needs.contains(&k.key)) {
                    continue;
                }
                out.push_str(k.key);
                out.push_str(" = ");
                k.field.write(&doc, &mut out);
                out.push('\n');
            }
            n += 1;
        }
    }
    out
}

impl<'a> Reader<'a> {
    fn err(
        &self,
        line: usize,
        col: usize,
        len: usize,
        msg: impl Into<String>,
        help: Option<&str>,
    ) -> SpecError {
        SpecError {
            line: line + 1,
            col,
            len,
            msg: msg.into(),
            src_line: self.lines.get(line).unwrap_or(&"").to_string(),
            help: help.map(str::to_string),
        }
    }

    /// The section row a header line names. A `[section]` opens once.
    fn header(
        &self,
        i: usize,
        raw: &str,
        trimmed: &str,
        opened: &mut [usize],
    ) -> Result<&'static SectionDoc, SpecError> {
        let col = raw.find('[').map(|c| c + 1).unwrap_or(1);
        let err = |msg: String, help: &str| self.err(i, col, trimmed.len(), msg, Some(help));
        let inner = |open: &str, close: &str| {
            trimmed
                .strip_prefix(open)
                .and_then(|r| r.strip_suffix(close))
        };
        let repeatable = inner("[[", "]]").is_some();
        if !repeatable && inner("[", "]").is_none() {
            let msg = "malformed section header".to_string();
            return Err(err(msg, "expected [section] or [[table]]"));
        }
        let Some(s) = SPEC_REFERENCE.iter().position(|s| s.header == trimmed) else {
            let what = if repeatable { "table" } else { "section" };
            let known: Vec<&str> = SPEC_REFERENCE
                .iter()
                .filter(|s| s.repeatable() == repeatable)
                .map(|s| s.header)
                .collect();
            let msg = format!("unknown {what} `{trimmed}`");
            return Err(err(msg, &format!("known {what}s: {}", known.join(", "))));
        };
        let sect = &SPEC_REFERENCE[s];
        if !sect.repeatable() && opened[s] != 0 {
            let msg = format!("section `{trimmed}` opened twice");
            return Err(err(msg, &format!("first opened on line {}", opened[s])));
        }
        opened[s] = i + 1;
        Ok(sect)
    }

    /// Type-check `val` against the key's row and store it.
    fn store(
        &self,
        i: usize,
        sect: &SectionDoc,
        key: &KeyDoc,
        val: Val<'a>,
        doc: &mut Doc<&mut ScenarioSpec>,
    ) -> Result<(), SpecError> {
        match &key.field {
            Field::U32(_, set) => set(doc, self.as_u32(i, val)?),
            Field::Count(_, set) => {
                let n = self.as_u32(i, val)?;
                if n == 0 {
                    let section = sect.header.trim_matches(['[', ']']);
                    let msg = format!("{section} {} must be at least 1", key.key);
                    return Err(self.err(i, val.col, val.len, msg, None));
                }
                set(doc, n);
            }
            Field::U64(_, set) => set(doc, self.as_u64(i, val)?),
            Field::Bool(_, set) => set(doc, self.as_bool(i, val)?),
            Field::Str(_, set) => set(doc, self.as_str(i, val)?.to_string()),
            Field::Name {
                what, names, set, ..
            } => {
                let name = self.as_str(i, val)?;
                let Some(ix) = Field::names(*names).position(|n| n == name) else {
                    let known: Vec<&str> = Field::names(*names).collect();
                    let msg = format!("unknown {what} `{name}`");
                    let help = format!("known {what}s: {}", known.join(", "));
                    return Err(self.err(i, val.col, val.len, msg, Some(&help)));
                };
                set(doc, ix);
            }
        }
        Ok(())
    }

    /// Close the open table: check the keys it needs (errors point at its
    /// header line) and move it into the spec.
    fn close(
        &self,
        table: Option<OpenTable>,
        doc: &mut Doc<&mut ScenarioSpec>,
    ) -> Result<(), SpecError> {
        let Some(table) = table else {
            return Ok(());
        };
        let sect = table.sect;
        if let Some(needs) = sect.needs {
            let (variant, keys) = needs(&doc.open);
            let given = |key: &str| {
                let k = sect.keys.iter().position(|kd| kd.key == key);
                k.is_some_and(|k| table.seen[k] != 0)
            };
            if let Some(missing) = keys.iter().find(|key| !given(key)) {
                let variant = match variant {
                    "" => String::new(),
                    v => format!(" `{v}`"),
                };
                let msg = format!("{}{variant} is missing `{missing}`", sect.header);
                return Err(self.table_err(table.header_line, msg));
            }
        }
        (sect.store)(doc);
        Ok(())
    }

    fn table_err(&self, header_line: usize, msg: impl Into<String>) -> SpecError {
        let raw = self.lines.get(header_line).copied().unwrap_or("");
        let col = raw.find('[').map(|c| c + 1).unwrap_or(1);
        self.err(header_line, col, raw.trim().len(), msg, None)
    }

    /// Split `key = value`, returning the key, its 1-based column, and the
    /// parsed scalar value with its span.
    fn parse_kv(&self, i: usize) -> Result<(&'a str, usize, Val<'a>), SpecError> {
        let line: &'a str = self.lines[i];
        let eq = line.find('=').ok_or_else(|| {
            let col = line.len() - line.trim_start().len() + 1;
            self.err(i, col, line.trim().len(), "expected `key = value`", None)
        })?;
        let key_part = &line[..eq];
        let key = key_part.trim();
        if key.is_empty() {
            return Err(self.err(i, 1, eq.max(1), "missing key before `=`", None));
        }
        let key_col = key_part.len() - key_part.trim_start().len() + 1;
        let val_off = eq + 1;
        let rest = &line[val_off..];
        let lead = rest.len() - rest.trim_start().len();
        let vcol = val_off + lead + 1; // 1-based column of the value
        let tok = rest.trim();
        if tok.is_empty() {
            return Err(self.err(
                i,
                vcol.saturating_sub(1),
                1,
                format!("missing value for `{key}`"),
                None,
            ));
        }
        let kind = if let Some(inner) = tok.strip_prefix('"') {
            let Some(body) = inner.strip_suffix('"').filter(|_| tok.len() >= 2) else {
                return Err(self.err(i, vcol, tok.len(), "unterminated string", None));
            };
            if body.contains('\\') || body.contains('"') {
                return Err(self.err(
                    i,
                    vcol,
                    tok.len(),
                    "escape sequences are not supported in spec strings",
                    None,
                ));
            }
            ValKind::Str(body)
        } else if tok == "true" {
            ValKind::Bool(true)
        } else if tok == "false" {
            ValKind::Bool(false)
        } else if tok.bytes().all(|b| b.is_ascii_digit() || b == b'_') {
            // Canonical text has no separators: parse it where it lies.
            let digits = if tok.contains('_') {
                std::borrow::Cow::Owned(tok.replace('_', ""))
            } else {
                std::borrow::Cow::Borrowed(tok)
            };
            match digits.parse::<u64>() {
                Ok(n) => ValKind::Int(n),
                Err(_) => {
                    return Err(self.err(
                        i,
                        vcol,
                        tok.len(),
                        format!("integer `{tok}` does not fit in 64 bits"),
                        None,
                    ))
                }
            }
        } else {
            return Err(self.err(
                i,
                vcol,
                tok.len(),
                format!("cannot parse value `{tok}`"),
                Some("expected an integer, true/false, or a \"quoted string\""),
            ));
        };
        Ok((
            key,
            key_col,
            Val {
                kind,
                col: vcol,
                len: tok.len(),
            },
        ))
    }

    fn as_u64(&self, i: usize, v: Val<'a>) -> Result<u64, SpecError> {
        match v.kind {
            ValKind::Int(n) => Ok(n),
            _ => Err(self.err(i, v.col, v.len, "expected an integer", None)),
        }
    }

    fn as_u32(&self, i: usize, v: Val<'a>) -> Result<u32, SpecError> {
        let n = self.as_u64(i, v)?;
        u32::try_from(n).map_err(|_| {
            self.err(
                i,
                v.col,
                v.len,
                format!("{n} does not fit in 32 bits"),
                None,
            )
        })
    }

    fn as_bool(&self, i: usize, v: Val<'a>) -> Result<bool, SpecError> {
        match v.kind {
            ValKind::Bool(b) => Ok(b),
            _ => Err(self.err(i, v.col, v.len, "expected true or false", None)),
        }
    }

    fn as_str(&self, i: usize, v: Val<'a>) -> Result<&'a str, SpecError> {
        match v.kind {
            ValKind::Str(s) => Ok(s),
            _ => Err(self.err(i, v.col, v.len, "expected a \"quoted string\"", None)),
        }
    }
}
