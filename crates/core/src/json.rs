//! Minimal JSON document model, writer, and parser.
//!
//! The build environment is offline, so instead of `serde_json` the
//! schedule/diagnostics interchange formats are built on this small
//! hand-rolled module: a [`Value`] tree, a pretty printer, and a strict
//! recursive-descent parser. Objects preserve insertion order so that
//! exported documents are byte-stable across runs.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers are exact to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; pairs keep insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object node.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string node.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as `usize`, if integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The numeric payload, if this is a number node.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool node.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array node.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object node.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Value::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                let (k, v) = &pairs[i];
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, depth + 1);
            }),
        }
    }

    /// Parses a JSON document. Rejects trailing garbage.
    ///
    /// Size is unbounded (bundles and traces can be large); nesting is
    /// still capped at 512 levels (`MAX_PARSE_DEPTH`). Streaming consumers
    /// that face hostile input should use [`Value::parse_with_limits`]
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        Value::parse_with_limits(text, &ParseLimits::unbounded())
    }

    /// Parses a JSON document under explicit resource limits.
    ///
    /// The byte limit is checked before any parsing starts, and the node
    /// budget is enforced as the tree is built, so a hostile document is
    /// rejected with a structured error before it can exhaust memory —
    /// never a panic, never an allocation proportional to the attack.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error or
    /// exceeded limit.
    pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Value, String> {
        if text.len() > limits.max_bytes {
            return Err(format!(
                "document is {} bytes, above the {}-byte limit",
                text.len(),
                limits.max_bytes
            ));
        }
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            nodes: 0,
            max_depth: limits.max_depth,
            max_nodes: limits.max_nodes,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Resource limits for [`Value::parse_with_limits`].
///
/// Each field bounds one axis a hostile document could use to exhaust
/// the process: raw length (`max_bytes`), recursion (`max_depth`), and
/// total tree size (`max_nodes` — every scalar, array, and object
/// counts as one node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input length in bytes, checked before parsing starts.
    pub max_bytes: usize,
    /// Maximum container-nesting depth.
    pub max_depth: usize,
    /// Maximum number of nodes in the parsed tree.
    pub max_nodes: usize,
}

impl Default for ParseLimits {
    /// Streaming-friendly defaults: 1 MiB of input, the standard depth
    /// cap, and 256 Ki nodes (far above any legitimate request line).
    fn default() -> Self {
        ParseLimits {
            max_bytes: 1 << 20,
            max_depth: MAX_PARSE_DEPTH,
            max_nodes: 1 << 18,
        }
    }
}

impl ParseLimits {
    /// No byte/node limits; depth stays capped at 512 levels
    /// (`MAX_PARSE_DEPTH`) because the parser recursion would overflow the
    /// stack otherwise.
    pub fn unbounded() -> Self {
        ParseLimits {
            max_bytes: usize::MAX,
            max_depth: MAX_PARSE_DEPTH,
            max_nodes: usize::MAX,
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

/// Maximum container-nesting depth the parser accepts.
///
/// The parser is recursive-descent, so unbounded nesting in a malicious
/// or corrupt document (`[[[[…`) would overflow the stack. Real bundle
/// and trace documents nest a handful of levels deep; 512 is far above
/// anything legitimate while keeping recursion well inside stack limits.
const MAX_PARSE_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    nodes: usize,
    max_depth: usize,
    max_nodes: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            return Err(format!(
                "document has more than {} nodes at byte {}",
                self.max_nodes, self.pos
            ));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.descend()?;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'{') => {
                self.descend()?;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(format!(
                "nesting deeper than {} levels at byte {}",
                self.max_depth, self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape ending at byte {}", self.pos)
                            })?);
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid utf-8 in \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl<V: Into<Value>> From<Vec<V>> for Value {
    fn from(items: Vec<V>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<V: Into<Value>> From<BTreeMap<String, V>> for Value {
    fn from(map: BTreeMap<String, V>) -> Self {
        Value::Obj(map.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

/// Builds an object node from `(key, value)` pairs, preserving order.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(MAX_PARSE_DEPTH + 1);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Nesting at exactly the limit still parses.
        let ok = format!(
            "{}{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn oversized_input_rejected_before_parsing() {
        let limits = ParseLimits {
            max_bytes: 64,
            ..ParseLimits::default()
        };
        let big = format!("[{}]", "1,".repeat(200));
        let err = Value::parse_with_limits(&big, &limits).unwrap_err();
        assert!(
            err.contains("byte-limit") || err.contains("byte limit"),
            "{err}"
        );
        // At or under the byte limit, the same shape parses.
        assert!(Value::parse_with_limits("[1,2,3]", &limits).is_ok());
    }

    #[test]
    fn node_bomb_rejected_with_structured_error() {
        // A flat array with a huge element count attacks memory, not
        // depth; the node budget stops it mid-parse.
        let limits = ParseLimits {
            max_bytes: usize::MAX,
            max_nodes: 100,
            ..ParseLimits::default()
        };
        let bomb = format!("[{}0]", "0,".repeat(10_000));
        let err = Value::parse_with_limits(&bomb, &limits).unwrap_err();
        assert!(err.contains("more than 100 nodes"), "{err}");
        // Exactly at the budget parses: 99 elements + the array = 100.
        let ok = format!("[{}0]", "0,".repeat(98));
        assert!(Value::parse_with_limits(&ok, &limits).is_ok());
        let over = format!("[{}0]", "0,".repeat(99));
        assert!(Value::parse_with_limits(&over, &limits).is_err());
    }

    #[test]
    fn hostile_limit_inputs_never_panic() {
        let limits = ParseLimits {
            max_bytes: 4096,
            max_depth: 16,
            max_nodes: 256,
        };
        let cases = [
            "[".repeat(4096),
            format!("{}1{}", "[".repeat(17), "]".repeat(17)),
            format!("{{\"k\":{}}}", "9".repeat(4000)),
            "\"".to_string() + &"\\u0041".repeat(600),
            format!("[{}]", "{},".repeat(300)),
        ];
        for case in cases {
            // Errors are fine; panics or unbounded allocation are not.
            let _ = Value::parse_with_limits(&case, &limits);
        }
    }

    #[test]
    fn malformed_numbers_error_cleanly() {
        for bad in ["-", "1e", "1.2.3", "--4", "1e+"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn round_trips_structures() {
        let v = obj([
            ("name", "sched \"a\"\n".into()),
            ("layers", 12usize.into()),
            ("ratio", 0.25.into()),
            ("flags", Value::Arr(vec![true.into(), Value::Null])),
            ("empty", Value::Obj(vec![])),
        ]);
        for text in [v.to_pretty(), v.to_compact()] {
            assert_eq!(Value::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = Value::parse(r#"{"s": "a\u0041\n\\", "n": -2.5e2, "i": 90071992547}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "aA\n\\");
        assert_eq!(v.get("n").unwrap().as_f64().unwrap(), -250.0);
        assert_eq!(v.get("i").unwrap().as_u64().unwrap(), 90_071_992_547);
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\""] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn surrogate_pairs() {
        let v = Value::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
    }
}
