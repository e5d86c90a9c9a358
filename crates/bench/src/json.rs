//! Minimal JSON tree: deterministic writer + parser for the runner's
//! result cache and `BENCH_*.json` reports.
//!
//! The vendored `serde` is an API-subset stub whose derives emit no impls
//! (see `vendor/serde`), so the harness carries its own value type. Design
//! constraints, in order:
//!
//! 1. **Byte determinism** — object members keep insertion order (no
//!    hashing anywhere), floats print via Rust's shortest-roundtrip
//!    `Display`, and non-finite floats become `null`. Two runs of the same
//!    experiment must serialize to identical bytes.
//! 2. **Lossless counters** — `u64` is a distinct variant so event counts
//!    above 2^53 never squeeze through an `f64`.
//! 3. **Round-trip** — whatever the writer emits, the parser reads back
//!    (the cache path is write → read → re-embed in a report).

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<rlb_metrics::Num> for Json {
    fn from(n: rlb_metrics::Num) -> Json {
        match n {
            rlb_metrics::Num::U64(v) => Json::U64(v),
            rlb_metrics::Num::F64(v) => Json::F64(v),
        }
    }
}

impl Json {
    /// Object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member names of an object, in order (none for other variants).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Nested lookup: `j.path(&["background", "p99_fct_ms"])`.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for k in keys {
            cur = cur.get(k)?;
        }
        Some(cur)
    }

    /// Append / replace a member on an object (no-op on other variants).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(m) = self {
            match m.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => m.push((key.to_string(), value)),
            }
        }
    }

    /// Remove a member from an object, returning it. Used by the report
    /// writer to strip wall-clock blocks under `--stable-json`.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        if let Json::Obj(m) = self {
            if let Some(i) = m.iter().position(|(k, _)| k == key) {
                return Some(m.remove(i).1);
            }
        }
        None
    }

    /// Numeric view: `U64` and `F64` coerce, `Null` reads as NaN (the
    /// writer turns NaN into `null`, so this inverts it).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Shorthand for required numeric members in reduce steps; the message
    /// names the key so a schema drift fails loudly, not with a 0.0.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metrics object missing numeric field `{key}`"))
    }

    pub fn str_of(&self, key: &str) -> &str {
        self.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("metrics object missing string field `{key}`"))
    }

    // -- writing ----------------------------------------------------------

    /// Pretty-printed (2-space indent), deterministic serialization.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested structures wrap.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if scalar {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, depth + 1);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        item.write(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                }
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// -- parsing ---------------------------------------------------------------

/// Parse a JSON document. Errors carry a byte offset for context.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs never appear in our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", *other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are guaranteed valid).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        let integral = !text.contains(['.', 'e', 'E']) && !text.starts_with('-');
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_variants() {
        let v = Json::obj([
            ("null", Json::Null),
            ("flag", Json::Bool(true)),
            ("count", Json::U64(u64::MAX)),
            ("ratio", Json::F64(0.125)),
            ("name", Json::Str("fig3 \"quick\"\n".into())),
            (
                "arr",
                Json::Arr(vec![Json::U64(1), Json::F64(2.5), Json::Null]),
            ),
            ("nested", Json::Arr(vec![Json::obj([("x", Json::U64(3))])])),
        ]);
        let text = v.pretty();
        let back = parse(&text).expect("parse");
        assert_eq!(back, v);
        // Determinism: serialize → parse → serialize is byte-stable.
        assert_eq!(back.pretty(), text);
    }

    #[test]
    fn u64_counters_do_not_lose_precision() {
        let big = u64::MAX - 1;
        let text = Json::U64(big).pretty();
        assert_eq!(parse(&text).expect("parse").as_u64(), Some(big));
    }

    #[test]
    fn nan_and_infinity_serialize_as_null() {
        assert_eq!(Json::F64(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::F64(f64::INFINITY).pretty(), "null\n");
        // ...and null reads back as NaN through the numeric view.
        assert!(parse("null")
            .expect("parse")
            .as_f64()
            .expect("num")
            .is_nan());
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = Json::obj([("z", Json::U64(1)), ("a", Json::U64(2))]);
        let text = v.pretty();
        assert!(text.find("\"z\"").expect("z") < text.find("\"a\"").expect("a"));
    }

    #[test]
    fn lookup_helpers() {
        let v = Json::obj([("background", Json::obj([("p99_fct_ms", Json::F64(1.5))]))]);
        assert_eq!(
            v.path(&["background", "p99_fct_ms"]).and_then(Json::as_f64),
            Some(1.5)
        );
        assert!(v.path(&["missing"]).is_none());
        let mut m = Json::obj([]);
        m.set("k", Json::U64(1));
        m.set("k", Json::U64(2));
        assert_eq!(m.get("k").and_then(Json::as_u64), Some(2));
        assert_eq!(m.remove("k"), Some(Json::U64(2)));
        assert_eq!(m.remove("k"), None);
        assert!(m.get("k").is_none());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
    }
}
