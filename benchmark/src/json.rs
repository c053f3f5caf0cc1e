//! The little JSON the benchmark needs: it writes its own results and
//! `BENCHMARK.json`, and reads back the result line of the child process it
//! runs per workload. No dependency resolves offline, so this is by hand.

use std::fmt::Write;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Keys keep their insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// One line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces; arrays of scalars and objects without nested
    /// containers stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_flat(&self) -> bool {
        match self {
            Value::Arr(items) => items
                .iter()
                .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_))),
            Value::Obj(fields) => fields
                .iter()
                .all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_))),
            _ => true,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let indent = indent.filter(|_| !self.is_flat());
        let (open_sep, sep, close_sep) = match indent {
            Some(n) => (
                format!("\n{}", " ".repeat(n * (depth + 1))),
                format!(",\n{}", " ".repeat(n * (depth + 1))),
                format!("\n{}", " ".repeat(n * depth)),
            ),
            None => (String::new(), ", ".into(), String::new()),
        };
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() && n.fract() == 0.0 && n.abs() < 9e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            // `{}` prints the shortest decimal that reads back as the same
            // f64: every digit measured, none invented.
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i == 0 { &open_sep } else { &sep });
                    v.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    out.push_str(&close_sep);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { &open_sep } else { &sep });
                    Value::Str(k.clone()).write(out, None, 0);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    out.push_str(&close_sep);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one JSON value (no `null`, no escapes beyond `\" \\ \n \uXXXX` —
/// exactly what [`Value`] writes).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    let Value::Str(key) = self.string()? else {
                        unreachable!("string() returns Str")
                    };
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Value::Obj(fields));
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        self.eat(b']')?;
                        return Ok(Value::Arr(items));
                    }
                }
            }
            b'"' => self.string(),
            b't' | b'f' => {
                let word = if self.bytes[self.pos] == b't' {
                    "true"
                } else {
                    "false"
                };
                if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                    self.pos += word.len();
                    Ok(Value::Bool(word == "true"))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<Value, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match *self.bytes.get(self.pos).ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map(Value::Str)
                        .map_err(|_| "string is not UTF-8".into());
                }
                b'\\' => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(code.to_string().as_bytes());
                            self.pos += 4;
                        }
                        other => out.push(other),
                    }
                }
                b => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_reads_back_what_it_writes() {
        let v = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            (
                "metrics",
                Value::obj([(
                    "latency_ms",
                    Value::obj([("value", Value::Num(1.2034)), ("unit", Value::str("ms"))]),
                )]),
            ),
            ("why", Value::str("a \"quoted\" µ\nline")),
            (
                "list",
                Value::Arr(vec![Value::str("a"), Value::Num(-2.5e-7)]),
            ),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, "));
        assert_eq!(parse(&line).unwrap(), v);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
        assert!(parse("{\"a\": 1} x").is_err());
    }
}
