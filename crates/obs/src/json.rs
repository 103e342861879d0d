//! A minimal, dependency-free JSON writer/parser: objects, arrays, strings,
//! numbers, booleans and null — exactly the subset [`crate::RunReport`] and
//! the `dcf-serve` wire format need. Hand-rolled so the whole pipeline stays
//! free of serialization dependencies.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep their raw token so integer counters
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Raw number token, e.g. `42` or `1.5e3`.
    Number(String),
    /// A string literal (unescaped).
    String(String),
    /// An array of values.
    Array(Vec<Value>),
    /// Key/value pairs in file order (order is significant for round-trips).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as a `u64`, if it is an integral number token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (`null` maps to NaN, the writer's encoding of
    /// non-finite floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up `key`, if the value is an object.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value's key/value pairs in file order, if it is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Writes a JSON string literal with escaping.
pub fn write_string(out: &mut String, s: &str) {
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

/// Writes an `f64` as a JSON number (`null` for non-finite values).
/// Rust's shortest-round-trip float formatting guarantees `parse` recovers
/// the exact value.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Parse error: a message plus the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input such as
/// 10,000 `[` from overflowing the stack; 64 is far above anything the
/// repo writes.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON value (RFC 8259 grammar), rejecting trailing garbage,
/// duplicate object keys, and nesting deeper than [`MAX_DEPTH`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, failing past
    /// [`MAX_DEPTH`] before recursing.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.error("leading zero in number"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                self.digits();
            }
            _ => return Err(self.error("malformed number: expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("malformed number: expected a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("malformed number: expected an exponent digit"));
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            // Exactly four hex digits: `from_str_radix` alone
                            // would also take a sign.
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(self.error("bad \\u escape"));
                            }
                            let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: the input is a &str and
                    // `pos` sits on a char boundary, so this is O(1).
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty rest");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.error(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for ok in [
            "0", "-0", "7", "-12", "1.5", "0.25", "1e3", "1E+3", "2.5e-7",
        ] {
            assert_eq!(parse(ok), Ok(Value::Number(ok.to_string())), "{ok}");
        }
        for bad in [
            "1e", "1e+", "-.", "1.", "01", "-", "-01", ".5", "+1", "1.e3",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#), Ok(Value::String("A".into())));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u04""#, r#""\u004g""#] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }
}
