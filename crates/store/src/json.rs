//! A minimal JSON value type with a hand-rolled parser and emitter.
//!
//! The workspace has no serde; this module is the whole story for every
//! textual format — the serving layer's request/response bodies and the
//! sharded graph layout's manifest both go through it. It lives here (the
//! bottom of the dependency graph) so there is exactly one
//! float-formatting policy: a recursive-descent parser with a depth
//! limit, and an emitter whose floats use Rust's shortest round-trip
//! formatting so scores survive an emit → parse cycle bit-for-bit.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON text.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        emit_value(&mut out, self);
        out
    }
}

/// Builds an object from key/value pairs — the handlers' response builder.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn emit_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(x) => emit_num(out, *x),
        Json::Str(s) => emit_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_str(out, k);
                out.push(':');
                emit_value(out, item);
            }
            out.push('}');
        }
    }
}

fn emit_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // Strict JSON has no NaN/inf; scores are always finite, so this
        // only guards against a future caller's mistake.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        // `{:?}` is Rust's shortest representation that parses back to
        // the same f64 bits.
        let _ = write!(out, "{x:?}");
    }
}

fn emit_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

/// Nesting deeper than this is rejected (the service parses untrusted
/// bodies; unbounded recursion would let a client overflow the stack).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The input, for slicing validated runs of string text.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected {:?} at byte {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or escape
            // in one slice: both delimiters are ASCII, so the run ends on
            // a char boundary of the already-validated input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err("unterminated escape".into());
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                    self.pos += 4;
                    // Surrogate pairs are not reassembled; lone
                    // surrogates map to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => {
                    return Err(format!("bad escape \\{}", char::from(other)));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -2.5e3 ").unwrap(), Json::Num(-2500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"members":[1,2,3],"opts":{"damping":0.85},"t":true}"#).unwrap();
        let members: Vec<u64> = v
            .get("members")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|j| j.as_u64().unwrap())
            .collect();
        assert_eq!(members, vec![1, 2, 3]);
        assert_eq!(
            v.get("opts").unwrap().get("damping").unwrap().as_f64(),
            Some(0.85)
        );
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }

    #[test]
    fn floats_round_trip_bitwise() {
        let values = [0.1 + 0.2, 1.0 / 3.0, 6.02e23, 5e-324, 0.85];
        for &x in &values {
            let text = Json::Num(x).emit();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::Num(42.0).emit(), "42");
        assert_eq!(Json::Num(-3.0).emit(), "-3");
        assert_eq!(Json::Num(0.5).emit(), "0.5");
    }

    #[test]
    fn emit_escapes_strings() {
        let v = Json::Str("a\"b\\c\nd".into());
        assert_eq!(parse(&v.emit()).unwrap(), v);
    }

    #[test]
    fn object_roundtrip() {
        let v = obj(vec![
            ("id", Json::Num(7.0)),
            ("scores", Json::Arr(vec![Json::Num(0.25), Json::Num(0.75)])),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(parse(&v.emit()).unwrap(), v);
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn unicode_strings() {
        let v = parse("\"héllo → Λ\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → Λ"));
        let v = parse(r#""Aλ""#).unwrap();
        assert_eq!(v.as_str(), Some("Aλ"));
    }

    /// Builds arbitrary [`Json`] trees deterministically from a word
    /// stream (the compat proptest shim has no recursive strategies, so
    /// the recursion lives here, depth-capped well under the parser's
    /// [`MAX_DEPTH`]).
    struct TreeBuilder<'a> {
        words: &'a [u64],
        pos: usize,
    }

    impl TreeBuilder<'_> {
        fn next(&mut self) -> u64 {
            let word = self.words[self.pos % self.words.len()];
            self.pos += 1;
            // Decorrelate wraparound passes so cycling the stream does
            // not repeat the same subtree forever.
            word ^ (self.pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }

        fn number(&mut self) -> f64 {
            // Awkward values the emitter must not mangle: accumulated
            // rounding error, the smallest subnormal, the largest finite,
            // huge magnitudes, and plain integers.
            const POOL: [f64; 10] = [
                0.1 + 0.2,
                5e-324,
                f64::MAX,
                6.02e23,
                -1.0 / 3.0,
                0.85,
                1e-12,
                -42.0,
                0.0,
                9_007_199_254_740_992.0, // 2^53
            ];
            let w = self.next();
            if w.is_multiple_of(3) {
                // Arbitrary bit patterns, skipping the values the emitter
                // documents as lossy: non-finite maps to null, and -0.0's
                // integer formatting drops the sign.
                let f = f64::from_bits(self.next());
                if f.is_finite() && f.to_bits() != (-0.0f64).to_bits() {
                    return f;
                }
            }
            POOL[(w % POOL.len() as u64) as usize]
        }

        fn string(&mut self) -> String {
            const POOL: [char; 12] = [
                'a', 'Z', '"', '\\', '\n', '\t', '\r', '\u{1}', 'λ', '→', '🙂', ' ',
            ];
            let len = (self.next() % 8) as usize;
            (0..len)
                .map(|_| POOL[(self.next() % POOL.len() as u64) as usize])
                .collect()
        }

        fn value(&mut self, depth: usize) -> Json {
            let leaf_only = depth >= 5;
            match self.next() % if leaf_only { 4 } else { 6 } {
                0 => Json::Null,
                1 => Json::Bool(self.next().is_multiple_of(2)),
                2 => Json::Num(self.number()),
                3 => Json::Str(self.string()),
                4 => {
                    let n = (self.next() % 4) as usize;
                    Json::Arr((0..n).map(|_| self.value(depth + 1)).collect())
                }
                _ => {
                    let n = (self.next() % 4) as usize;
                    Json::Obj(
                        (0..n)
                            .map(|_| (self.string(), self.value(depth + 1)))
                            .collect(),
                    )
                }
            }
        }
    }

    /// Collects every number in the tree, in traversal order.
    fn numbers(v: &Json, out: &mut Vec<f64>) {
        match v {
            Json::Num(x) => out.push(*x),
            Json::Arr(items) => items.iter().for_each(|item| numbers(item, out)),
            Json::Obj(pairs) => pairs.iter().for_each(|(_, item)| numbers(item, out)),
            _ => {}
        }
    }

    proptest! {
        /// `parse ∘ emit` is the identity on arbitrary trees — structure,
        /// duplicate object keys, pathological strings, and every f64
        /// down to the bit.
        #[test]
        fn emit_parse_round_trips(words in proptest::collection::vec(any::<u64>(), 1..64)) {
            let tree = TreeBuilder { words: &words, pos: 0 }.value(0);
            let text = tree.emit();
            let back = parse(&text).unwrap_or_else(|e| panic!("emit produced unparseable {text:?}: {e}"));
            prop_assert_eq!(&back, &tree);
            let (mut sent, mut got) = (Vec::new(), Vec::new());
            numbers(&tree, &mut sent);
            numbers(&back, &mut got);
            prop_assert_eq!(sent.len(), got.len());
            for (a, b) in sent.iter().zip(&got) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} reparsed as {}", a, b);
            }
        }
    }
}
