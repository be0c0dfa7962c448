//! Minimal validating JSON reader — just enough for tests to check
//! that an emitted document (the Chrome trace-event exports) parses
//! and to look inside it, without serde.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document. Arrays and objects nested deeper than
    /// [`MAX_DEPTH`] are an `Err`, not a stack overflow.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// How deep arrays and objects may nest. The reader recurses once per
/// level; the documents it checks nest three or four deep.
pub const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
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

    /// The value at the cursor, inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self
                                .hex4(self.pos + 1)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // A high surrogate followed by an escaped low
                            // one is a single scalar; a lone half is U+FFFD.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos + 1..].starts_with(b"\\u")
                            {
                                if let Some(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one piece: neither byte occurs inside a multi-byte
                    // scalar, so the run ends on a boundary — and the
                    // document is read once, not once per character.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]);
                    out.push_str(run.map_err(|e| e.to_string())?);
                }
            }
        }
    }

    /// The value of exactly four hex digits at `at`, if they are there.
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.bytes.get(at..at + 4)?;
        digits.iter().try_fold(0, |code, &b| {
            Some((code << 4) | char::from(b).to_digit(16)?)
        })
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_hand_written_json() {
        let v = Value::parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("hello").is_err());
        assert!(Value::parse("{} trailing").is_err());
    }

    #[test]
    fn unicode_survives() {
        let v = Value::parse("[\"ns/iter — médiane ✓\", \"\\u00e9\\\"\"]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("ns/iter — médiane ✓"));
        assert_eq!(items[1].as_str(), Some("é\""));
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_overflow() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // Used to abort the whole test process with "stack overflow".
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let s = |doc: &str| Value::parse(doc).map(|v| v.as_str().map(str::to_owned));
        assert_eq!(s(r#""\u0041\u00E9""#), Ok(Some("Aé".into())));
        // `from_str_radix` took a sign: this read as "A".
        assert!(s(r#""\u+041""#).is_err());
        assert!(s(r#""\u-041""#).is_err());
        assert!(s(r#""\u004""#).is_err());
        assert!(s(r#""\u00g1""#).is_err());
        assert!(s(r#""\u00"#).is_err());
    }

    #[test]
    fn surrogate_pairs_join() {
        let s = |doc: &str| Value::parse(doc).map(|v| v.as_str().map(str::to_owned));
        assert_eq!(s(r#""\ud83d\ude00""#), Ok(Some("😀".into())));
        assert_eq!(s(r#""\uD83D\uDE00!""#), Ok(Some("😀!".into())));
        // A half without its partner stays one replacement character,
        // and whatever follows it is read as usual.
        assert_eq!(s(r#""\ud83d""#), Ok(Some("\u{FFFD}".into())));
        assert_eq!(s(r#""\ude00\ud83d""#), Ok(Some("\u{FFFD}\u{FFFD}".into())));
        assert_eq!(s(r#""\ud83d\u0041""#), Ok(Some("\u{FFFD}A".into())));
        assert_eq!(s(r#""\ud83dx""#), Ok(Some("\u{FFFD}x".into())));
    }

    /// Hostile input: documents built from JSON's own tokens, arbitrary
    /// characters and long runs of open brackets. Every one is `Ok` or
    /// `Err`; a panic fails the property, and an overflow would abort it.
    #[test]
    fn arbitrary_text_never_panics() {
        let tokens: Vec<&str> = r#"[|]|{|}|"|\|\u|:|,| |-|0|7|.|e|+|true|null|fa|d83d|\ude00|😀"#
            .split('|')
            .collect();
        crate::Checker::new("json_parse_never_panics")
            .cases(256)
            .run(|g| {
                let mut text = String::new();
                for _ in 0..g.usize(0..64) {
                    match g.u32(0..8) {
                        0 => text.push_str(
                            &g.choose(&["[", "{\"k\":"])
                                .repeat(g.usize(0..50 * MAX_DEPTH)),
                        ),
                        1 => text.push(char::from_u32(g.u32(0..0x11_0000)).unwrap_or('\u{FFFD}')),
                        _ => text.push_str(g.choose::<&str>(&tokens)),
                    }
                }
                let _ = Value::parse(&text);
            });
    }
}
