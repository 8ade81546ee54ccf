//! Offline stand-in for `serde_json`: a JSON writer/parser over the serde
//! shim's [`serde::Value`] tree. Handles everything the workspace
//! serialises — numbers (integers emitted without a fractional part), strings
//! with escapes, null/bool, arrays, and objects — plus non-finite floats,
//! which are emitted as `null` like the real serde_json.

use serde::{DeError, Deserialize, Serialize};

// Real serde_json exposes its own `Value`; the shim's tree lives in `serde`,
// so re-export it under the name callers expect.
pub use serde::Value;

/// JSON error (serialization or parsing).
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serialises a value as compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serialises a value as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

/// Parses JSON text into a raw [`Value`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(v)
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Shortest round-trippable representation Rust offers.
        out.push_str(&format!("{n}"));
    }
}

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

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!("expected `{}` at offset {}", b as char, self.pos)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error("unexpected end of input".into())),
            Some(b'n') => {
                if self.literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error(format!("invalid literal at offset {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error(format!("invalid literal at offset {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error(format!("invalid literal at offset {}", self.pos)))
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(Error(format!("expected `,` or `]` at offset {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(Error(format!("expected `,` or `}}` at offset {}", self.pos))),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
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
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(Error("truncated \\u escape".into()));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| Error("invalid \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| Error("invalid \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error("invalid escape".into())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run of plain bytes up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a code
                    // point boundary and validating it keeps the parse linear.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    let text =
                        std::str::from_utf8(&self.bytes[self.pos..self.pos + run]).map_err(|_| Error("invalid utf-8".into()))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(Error(format!("expected a value at offset {start}")));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| Error("invalid utf-8".into()))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = Value::Map(vec![
            ("a".into(), Value::Num(1.0)),
            ("b".into(), Value::Str("x\"y\n".into())),
            ("c".into(), Value::Seq(vec![Value::Bool(true), Value::Null, Value::Num(2.5)])),
            ("empty".into(), Value::Seq(vec![])),
        ]);
        for pretty in [false, true] {
            let mut out = String::new();
            write_value(&v, if pretty { Some(2) } else { None }, 0, &mut out);
            assert_eq!(parse_value(&out).unwrap(), v);
        }
    }

    #[test]
    fn multi_byte_and_escaped_strings_round_trip() {
        let s = "é—😀é\"\\";
        let json = to_string(&s).unwrap();
        assert_eq!(parse_value(&json).unwrap(), Value::Str(s.into()));
        assert_eq!(parse_value(r#""é—😀\n""#).unwrap(), Value::Str("é—😀\n".into()));
        assert!(parse_value("\"é—😀").is_err(), "an unterminated string must be rejected");
    }

    #[test]
    fn integers_are_written_without_fraction() {
        assert_eq!(to_string(&42usize).unwrap(), "42");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn invalid_json_is_rejected() {
        assert!(parse_value("not json").is_err());
        assert!(parse_value("{\"a\": }").is_err());
        assert!(parse_value("[1, 2").is_err());
        assert!(parse_value("{} extra").is_err());
    }

    #[test]
    fn typed_round_trip() {
        let v: Vec<f64> = vec![1.0, -2.25, 1e-9];
        let json = to_string_pretty(&v).unwrap();
        let back: Vec<f64> = from_str(&json).unwrap();
        assert_eq!(back, v);
        let opt: Option<f64> = from_str("null").unwrap();
        assert_eq!(opt, None);
    }
}
