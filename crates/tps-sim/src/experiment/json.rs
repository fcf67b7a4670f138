//! Minimal in-tree JSON writer for experiment reports.
//!
//! The workspace is offline (no serde), and the determinism contract of
//! [`crate::experiment`] needs byte-stable output anyway, so the report
//! serializer is a small value tree with insertion-ordered objects and a
//! fixed pretty-printing scheme. Floats use Rust's shortest-round-trip
//! formatting, which is a pure function of the bit pattern; non-finite
//! values (which JSON cannot represent) render as `null`.

/// One JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer number.
    U64(u64),
    /// A floating-point number (`null` when not finite).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub(crate) fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a key/value pair. Debug-asserts that `self` is an object
    /// (a builder-time programming error, not a runtime input).
    pub(crate) fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Object(pairs) => pairs.push((key.to_string(), value)),
            other => debug_assert!(false, "set() on non-object {other:?}"),
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent, `\n`
    /// separators, no trailing newline). Byte-stable for equal values.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Renders the value on one line with no whitespace — the checkpoint
    /// journal format, where one entry must be one line. Byte-stable.
    pub(crate) fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    /// Parses one JSON document (the subset this writer emits: no
    /// exponents in integers it wrote, but general number syntax is
    /// accepted). Integral non-negative numbers parse as [`Json::U64`],
    /// everything else numeric as [`Json::F64`], so values written by
    /// [`Json::render_compact`] round-trip exactly.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// The value under `key`, when `self` is an object holding it.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An object of counters, `names[i]: values[i]` in table order — the
    /// shape a `counter_table!` group takes in journals and reports.
    pub(crate) fn counters(names: &[&str], values: &[u64]) -> Json {
        let pairs = names.iter().zip(values);
        Json::Object(pairs.map(|(k, v)| (k.to_string(), Json::U64(*v))).collect())
    }

    /// Reads back the counter group [`Json::counters`] wrote under `key`,
    /// in `names` order.
    pub(crate) fn counters_at<const N: usize>(
        &self,
        key: &str,
        names: &[&str; N],
    ) -> Result<[u64; N], String> {
        let group = self.get(key).ok_or_else(|| format!("missing {key}"))?;
        let mut values = [0; N];
        for (value, name) in values.iter_mut().zip(names) {
            *value = group
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing u64 field {name:?}"))?;
        }
        Ok(values)
    }

    /// The value as a u64, accepting an integral `F64` (a parser that saw
    /// `1` where a float was written emits `U64(1)` and vice versa).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as an f64 (any number).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl From<Option<f64>> for Json {
    fn from(v: Option<f64>) -> Json {
        match v {
            Some(x) => Json::F64(x),
            None => Json::Null,
        }
    }
}

/// Recursive-descent parser over the writer's own output (plus standard
/// JSON it happens not to emit, like signed and exponent numbers).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // The writer only emits \u for control bytes, so
                            // surrogate pairs never appear in our own output.
                            out.push(
                                char::from_u32(code).ok_or_else(|| format!("invalid \\u{hex}"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes `s` as a JSON string literal with the mandatory escapes.
fn write_escaped(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(1.0).render(), "1");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn nested_structure_is_stable() {
        let mut obj = Json::object();
        obj.set("b", Json::U64(2));
        obj.set("a", Json::Array(vec![Json::U64(1), Json::Null]));
        obj.set("empty", Json::Object(Vec::new()));
        let rendered = obj.render();
        assert_eq!(
            rendered,
            "{\n  \"b\": 2,\n  \"a\": [\n    1,\n    null\n  ],\n  \"empty\": {}\n}"
        );
        // Insertion order, not sorted: "b" stays before "a".
        assert!(rendered.find("\"b\"").unwrap() < rendered.find("\"a\"").unwrap());
    }

    #[test]
    fn option_conversion() {
        assert_eq!(Json::from(Some(2.5)).render(), "2.5");
        assert_eq!(Json::from(None).render(), "null");
    }

    #[test]
    fn compact_rendering_is_one_line() {
        let mut obj = Json::object();
        obj.set("a", Json::U64(1));
        obj.set("b", Json::Array(vec![Json::Null, Json::Str("x y".into())]));
        assert_eq!(obj.render_compact(), "{\"a\":1,\"b\":[null,\"x y\"]}");
    }

    #[test]
    fn parse_round_trips_compact_output() {
        let mut obj = Json::object();
        obj.set("u", Json::U64(u64::MAX));
        obj.set("f", Json::F64(1.5));
        obj.set("whole", Json::F64(2.0)); // renders "2", parses back U64(2)
        obj.set("s", Json::Str("quote \" slash \\ tab \t".into()));
        obj.set("ctl", Json::Str("\u{1}".into()));
        obj.set("arr", Json::Array(vec![Json::Bool(false), Json::Null]));
        obj.set("empty", Json::Object(Vec::new()));
        let compact = obj.render_compact();
        let parsed = Json::parse(&compact).unwrap();
        // Whole floats collapse to U64 on reparse; every accessor still
        // reads them either way, and re-rendering is byte-identical.
        assert_eq!(parsed.render_compact(), compact);
        assert_eq!(parsed.get("u").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parsed.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(parsed.get("whole").unwrap().as_u64(), Some(2));
        assert_eq!(
            parsed.get("s").unwrap().as_str(),
            Some("quote \" slash \\ tab \t")
        );
        assert_eq!(parsed.get("ctl").unwrap().as_str(), Some("\u{1}"));
        assert_eq!(parsed.get("arr").unwrap(), &obj.get("arr").unwrap().clone());
        // Pretty output parses too.
        assert_eq!(Json::parse(&obj.render()).unwrap().render(), obj.render());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_accepts_general_numbers() {
        assert_eq!(Json::parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
    }
}
