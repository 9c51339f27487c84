//! The workspace's one JSON reader, plus the single-line object writer.
//!
//! The build is offline (no serde), so both directions are hand-rolled:
//!
//! * **Writing.** [`JsonObj`] renders a flat, single-line object in
//!   insertion order, which keeps golden-file tests byte-stable.
//!   [`escape_into`] is the one JSON string escaper every renderer uses.
//! * **Reading.** [`parse`] reads one complete document into a
//!   [`JsonValue`]: retained traces for `dr_traceview`, relation bodies
//!   for `dr-serve`, reports for `dr-perf`. Request bodies are hostile
//!   input, so every failure is a typed [`JsonError`] at a byte offset,
//!   nesting stops at [`MAX_DEPTH`], and strings decode in one linear
//!   pass.

use std::fmt;

/// Escape `s` into `out` as the body of a JSON string literal (no quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Builder for one single-line JSON object. Fields render in insertion
/// order; [`JsonObj::finish`] closes the object and returns the line
/// (without a trailing newline).
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Start a new object: `{`.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Append a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Append an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Close the object and return the rendered line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The reader recurses
/// once per level, so the cap is what keeps a hostile body of repeated
/// `[` from overflowing a server thread's stack. The workspace's own
/// documents nest at most 4 deep (a `/v1/traces/{id}` body).
pub const MAX_DEPTH: usize = 128;

/// A JSON read failure: the byte offset where reading stopped (never past
/// the end of the input) and what was wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value. Objects keep their fields in document order (the
/// renderers in this crate are insertion-ordered, so round trips are
/// stable); duplicate keys keep the first occurrence on lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as its source text: relation cells load it
    /// verbatim (`1e400`, big integers), and the accessors convert it.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first occurrence); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is written as a non-negative integer
    /// that fits. Parsed exactly, not through `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`, if this is a number whose value is finite.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => n.parse().ok().filter(|x: &f64| x.is_finite()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (RFC 8259; trailing non-whitespace is an
/// error). Nesting beyond [`MAX_DEPTH`] is an error, not a stack overflow.
///
/// # Errors
/// Malformed or over-deep JSON, with the byte offset of the failure.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut reader = Reader {
        text,
        pos: 0,
        depth: 0,
    };
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(reader.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Recursive-descent state: the input, the read position, and the number
/// of arrays/objects currently open.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Reader<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.nested(b']', |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.nested(b'}', |r| {
                    r.skip_ws();
                    let key = r.string()?;
                    r.skip_ws();
                    r.expect(b':')?;
                    fields.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(JsonValue::Object(fields))
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads the comma-separated members of the array or object opening
    /// at the current byte, through its `close` byte, one level deeper.
    fn nested(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                member(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err(format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits("expected digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected digit after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected exponent digit")?;
        }
        Ok(JsonValue::Num(self.text[start..self.pos].to_owned()))
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self, missing: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(missing));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy each run of plain characters as one slice. A run starts
            // and stops only at ASCII bytes (or the end of input), so both
            // ends are char boundaries, and the whole string is one pass.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash, including a `\u` surrogate
    /// pair; lone surrogates are errors.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let code = match self.hex4()? {
                    hi @ 0xD800..=0xDBFF => {
                        if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                            return Err(self.err("lone high surrogate"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(self.err("lone low surrogate")),
                    code => code,
                };
                return char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Exactly four hex digits (no sign, no shorter form).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("\\u takes four hex digits"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_in_insertion_order() {
        let line = JsonObj::new().str("ev", "tuple").num("row", 3).finish();
        assert_eq!(line, r#"{"ev":"tuple","row":3}"#);
    }

    #[test]
    fn escapes_quotes_and_control_chars() {
        let line = JsonObj::new().str("name", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(line, "{\"name\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn parses_builder_output() {
        let line = JsonObj::new().str("ev", "tuple").num("row", 3).finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ev").and_then(JsonValue::as_str), Some("tuple"));
        assert_eq!(v.get("row").and_then(JsonValue::as_u64), Some(3));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#" {"a":[1,2.5,-3],"b":{"c":null,"d":true},"e":"x\nA"} "#).unwrap();
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_u64(), None, "negative is not u64");
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&JsonValue::Null));
        assert_eq!(
            v.get("b").and_then(|b| b.get("d")),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(v.get("e").and_then(JsonValue::as_str), Some("x\nA"));
    }

    #[test]
    fn escaped_strings_round_trip() {
        let original = "a\"b\\c\nd\u{1}é";
        let line = JsonObj::new().str("s", original).finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some(original));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        assert_eq!(
            parse("1e999").expect("valid grammar").as_f64(),
            None,
            "non-finite number"
        );
    }

    #[test]
    fn grammar_is_strict_where_relation_bodies_need_it() {
        for bad in [
            "-",
            "-x",
            "1e",
            "1e+",
            "1.",
            "01",
            "\"\\u+041\"",
            "\"\\u04\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"a\nb\"",
            "\"\\q\"",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.offset <= bad.len(), "{bad:?}: {err}");
        }
        assert_eq!(
            parse(r#""\u0041\ud83d\ude00""#).unwrap(),
            JsonValue::Str("A\u{1F600}".into())
        );
    }

    #[test]
    fn numbers_keep_their_text_and_convert_exactly() {
        let v = parse("[1e400, 9007199254740993, -0, 2.5e-3]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0], JsonValue::Num("1e400".into()));
        assert_eq!(items[0].as_f64(), None, "not finite");
        assert_eq!(items[1].as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(items[2].as_u64(), None);
        assert_eq!(items[3].as_f64(), Some(0.0025));
    }
}
