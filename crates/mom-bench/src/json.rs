//! A minimal JSON document builder.
//!
//! The sweep driver emits machine-readable `BENCH_*.json` reports; the
//! build environment has no network access for a serialisation crate, and
//! the documents are small, so this hand-rolled value tree (with correct
//! string escaping and non-finite-number handling) is all that is needed.
//! The matching parser lives in `mom-serve` (the daemon is the only reader
//! of wire JSON); the typed accessors here ([`Json::get`] and friends) are
//! what both sides use to walk a parsed tree.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str<S: Into<String>>(s: S) -> Json {
        Json::Str(s.into())
    }

    /// Builds an integer value.
    pub fn int<N: Into<i64>>(n: N) -> Json {
        Json::Num(n.into() as f64)
    }

    /// Looks a key up in an object (first match; emitted and parsed
    /// documents both have unique keys).  `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when the value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer, when the value
    /// is a number holding one below 2^53.  From 2^53 on, neighbouring
    /// integers share one `f64` (2^53 + 1 parses as 2^53), so a larger
    /// number cannot be trusted to be the integer that was written.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if *n >= 0.0 && *n == n.trunc() && *n < EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, when the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when the value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when the value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    // JSON has no NaN/Infinity.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, 0);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_formats() {
        let doc = Json::obj([
            ("name", Json::str("line\nbreak \"quoted\"")),
            ("count", Json::int(42)),
            ("ratio", Json::Num(2.5)),
            ("bad", Json::Num(f64::NAN)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let text = doc.pretty();
        assert!(text.contains("\\n"));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"count\": 42"));
        assert!(text.contains("\"ratio\": 2.5"));
        assert!(text.contains("\"bad\": null"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn integers_do_not_grow_decimal_points() {
        assert_eq!(Json::Num(1234.0).to_string(), "1234");
        assert_eq!(Json::Num(0.125).to_string(), "0.125");
    }

    #[test]
    fn accessors_walk_a_tree() {
        let doc = Json::obj([
            ("name", Json::str("idct")),
            ("count", Json::int(42)),
            ("ratio", Json::Num(2.5)),
            ("ok", Json::Bool(true)),
            ("rows", Json::Arr(vec![Json::Null])),
        ]);
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("idct"));
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get("ratio").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("ratio").and_then(Json::as_u64), None);
        let max_exact = (1u64 << 53) - 1;
        assert_eq!(Json::Num(max_exact as f64).as_u64(), Some(max_exact));
        assert_eq!(
            Json::Num((1u64 << 53) as f64).as_u64(),
            None,
            "may be 2^53 + 1"
        );
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("name"), None);
        assert_eq!(doc.as_obj().map(<[(String, Json)]>::len), Some(5));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::Obj(vec![]).to_string(), "{}");
    }
}
