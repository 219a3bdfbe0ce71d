//! A minimal JSON value type with a recursive-descent parser and an
//! emitter — the wire format of the service protocol. Hand-rolled because
//! the build environment vendors no serde; the subset implemented is the
//! full JSON grammar (objects, arrays, strings with escapes incl.
//! `\uXXXX`, numbers, booleans, null), which is all a line-delimited
//! protocol needs.
//!
//! Numbers are carried as `f64`. Every counter the protocol transports is
//! far below 2⁵³, so round-trips are exact; 128-bit fingerprints travel
//! as hex *strings* for the same reason.
//!
//! The parser recurses once per array or object, so it refuses documents
//! nested deeper than [`MAX_NESTING_DEPTH`]: an untrusted line of
//! brackets is a parse error, not a stack overflow.

/// Deepest array/object nesting [`Json::parse`] accepts. Request lines
/// are one level deep and `stats` replies four.
pub const MAX_NESTING_DEPTH: usize = 64;

/// A JSON value. Object member order is preserved (emission is
/// deterministic, which the protocol tests rely on).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered members).
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`]: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Emits compact JSON (no whitespace).
    pub fn emit(&self) -> String {
        let mut s = String::new();
        self.emit_into(&mut s);
        s
    }

    fn emit_into(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => emit_number(*v, s),
            Json::Str(t) => emit_string(t, s),
            Json::Arr(items) => {
                s.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    it.emit_into(s);
                }
                s.push(']');
            }
            Json::Obj(members) => {
                s.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    emit_string(k, s);
                    s.push(':');
                    v.emit_into(s);
                }
                s.push('}');
            }
        }
    }

    /// Object member lookup (None for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractional
    /// and negative values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9.007_199_254_740_992e15 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience constructor: an object from `(key, value)` pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor: a number from a `u64` counter.
    pub fn num_u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Convenience constructor: a string.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }
}

/// Integers emit without a decimal point (counters, ids); everything else
/// uses Rust's shortest-roundtrip float formatting.
fn emit_number(v: f64, s: &mut String) {
    use std::fmt::Write as _;
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9.2e18 {
        let _ = write!(s, "{}", v as i64);
    } else if v.is_finite() {
        let _ = write!(s, "{v}");
    } else {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        s.push_str("null");
    }
}

fn emit_string(t: &str, s: &mut String) {
    use std::fmt::Write as _;
    s.push('"');
    for ch in t.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_NESTING_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        // lint:allow(panic-path, pos is clamped to bytes.len() by the scanner)
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                // lint:allow(panic-path, start..pos only advances past peek()-checked bytes)
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
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
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        c => return Err(self.err(format!("bad escape '\\{}'", c as char))),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // lint:allow(panic-path, pos+4 <= len checked immediately above)
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // lint:allow(panic-path, start..pos only advances past peek()-checked bytes)
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let src = r#"{"id":7,"op":"compile","qasm":"qubits 2\ncx 0 1\n","pri":0.5,"flags":[true,false,null],"nested":{"k":"v\u00e9"}}"#;
        let v = Json::parse(src).expect("parse");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("qasm").and_then(Json::as_str), Some("qubits 2\ncx 0 1\n"));
        assert_eq!(v.get("pri").and_then(Json::as_f64), Some(0.5));
        let back = Json::parse(&v.emit()).expect("reparse");
        assert_eq!(v, back, "emit → parse must be the identity");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "{\"a\":1}x", "01x",
            "\"bad \\q escape\"", "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Json::num_u64(12345).emit(), "12345");
        assert_eq!(Json::Num(1.5).emit(), "1.5");
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
    }

    /// `depth` nested containers around a `1`: arrays, objects, or
    /// alternating from an array.
    fn nested_doc(depth: usize, shape: &str) -> String {
        let (mut open, mut close) = (String::new(), String::new());
        for level in 0..depth {
            let array = match shape {
                "arrays" => true,
                "objects" => false,
                _ => level % 2 == 0,
            };
            open.push_str(if array { "[" } else { "{\"k\":" });
            close.insert(0, if array { ']' } else { '}' });
        }
        format!("{open}1{close}")
    }

    fn depth_of(v: &Json) -> usize {
        match v {
            Json::Arr(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
            Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn nesting_is_capped_at_the_limit() {
        for shape in ["arrays", "objects", "mixed"] {
            let at = Json::parse(&nested_doc(MAX_NESTING_DEPTH, shape)).expect(shape);
            assert_eq!(depth_of(&at), MAX_NESTING_DEPTH, "{shape}");
            assert_eq!(Json::parse(&at.emit()).as_ref(), Ok(&at), "{shape} round-trips");
            let past = Json::parse(&nested_doc(MAX_NESTING_DEPTH + 1, shape)).unwrap_err();
            assert!(past.message.contains("nesting deeper than 64 levels"), "{shape}: {past}");
        }
        // The limit is on nesting, not on size: siblings do not add up.
        let wide = format!("[{}]", vec![nested_doc(MAX_NESTING_DEPTH - 1, "mixed"); 50].join(","));
        assert!(Json::parse(&wide).is_ok());
        // The error points at the first bracket past the limit, long
        // before the end of a huge line.
        let deep = "[".repeat(1 << 20);
        assert_eq!(Json::parse(&deep).unwrap_err().offset, MAX_NESTING_DEPTH);
    }

    proptest::proptest! {
        /// Random bracket/brace/value strings never panic; a document
        /// nested past the limit is an error, and a parsed one round-trips.
        #[test]
        fn random_nesting_never_panics(
            opens in 0usize..2 * MAX_NESTING_DEPTH,
            kinds in 0u64..u64::MAX,
            tokens in proptest::collection::vec(0usize..12, 0..600),
        ) {
            const TOKENS: [&str; 12] = [
                "[", "]", "{", "}", "\"k\":", ",", "1", "null", " ", "\"s\"",
                "[[[[[[[[", "]]]]]]]]",
            ];
            // A well-formed run of opening brackets and braces first, so
            // cases reach the limit before the random tail breaks them.
            let mut text: String = (0..opens)
                .map(|i| if kinds >> (i % 64) & 1 == 0 { "[" } else { "{\"k\":" })
                .collect();
            text.extend(tokens.iter().map(|&t| TOKENS[t]));
            let (mut depth, mut deepest) = (0i64, 0i64);
            for b in text.bytes() {
                match b {
                    b'[' | b'{' => depth += 1,
                    b']' | b'}' => depth -= 1,
                    _ => {}
                }
                deepest = deepest.max(depth);
            }
            match Json::parse(&text) {
                Ok(v) => {
                    proptest::prop_assert!(depth_of(&v) <= MAX_NESTING_DEPTH);
                    proptest::prop_assert_eq!(Json::parse(&v.emit()), Ok(v));
                }
                Err(e) => proptest::prop_assert!(e.offset <= text.len()),
            }
            if deepest > MAX_NESTING_DEPTH as i64 {
                proptest::prop_assert!(Json::parse(&text).is_err(), "{text}");
            }
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\ud83d\\ude00\"").expect("parse");
        assert_eq!(v.as_str(), Some("😀"));
    }
}
