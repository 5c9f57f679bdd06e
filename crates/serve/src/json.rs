//! Minimal JSON for the request loop (the workspace is offline — no serde).
//!
//! Covers the subset a line-oriented query protocol needs: objects,
//! arrays, strings with standard escapes (including `\uXXXX` and surrogate
//! pairs), `f64` numbers, booleans, null. Parsing is recursive descent with
//! a depth cap (untrusted input must not overflow the stack); duplicate
//! object keys are a **parse error** — RFC 8259 leaves their semantics
//! undefined, and in a serving protocol that ambiguity is exploitable:
//! with first-occurrence-wins, `{"commit":…,"commit":…}` could be
//! validated against one value while a byte-level fast path detects the
//! other. The writer emits compact JSON with round-trippable `f64`
//! formatting.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document, rejecting trailing garbage.
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (keys are unique — the parser rejects
    /// duplicates).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional parts).
    pub fn as_usize(&self) -> Option<usize> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= u32::MAX as f64 {
            Some(x as usize)
        } else {
            None
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as the object's field list.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => write_obj(out, fields),
        }
    }
}

/// Renders an object with borrowed keys: [`Json::obj`] plus
/// [`Json::render`] without copying a key.
pub(crate) fn render_obj(fields: &[(&str, Json)]) -> String {
    let mut out = String::with_capacity(128);
    write_obj(&mut out, fields);
    out
}

fn write_obj<K: AsRef<str>>(out: &mut String, fields: &[(K, Json)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k.as_ref());
        out.push(':');
        v.render_into(out);
    }
    out.push('}');
}

/// Writes a JSON string literal with escaping.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Writes a number: shortest `f64` representation; non-finite becomes
/// `null` (JSON has no Inf/NaN).
fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        out.push_str(&format!("{}", x as i64));
    } else {
        out.push_str(&format!("{x}"));
    }
}

struct Parser<'a> {
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

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth + 1)?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate object key {key:?}"));
            }
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
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

    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(s).map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).ok_or("invalid codepoint")?);
                        }
                        _ => return Err(format!("invalid escape \\{}", esc as char)),
                    }
                }
                Some(b) if b < 0x20 => return Err("control character in string".into()),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8; find the char boundary). The
                    // re-validation can only fail if that invariant breaks,
                    // and even then it degrades to a parse error, not a
                    // panic on the serve path.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
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
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {s:?}"))
    }
}

/// Convenience constructors for response building.
impl Json {
    /// An object from key/value pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of numbers.
    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shapes() {
        let v = Json::parse(
            r#"{"id": 3, "op": "fold_in", "links": [["nn", "s0", 1.5]], "values": {"reading": [1.0, -2.5e-1]}}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("op").unwrap().as_str(), Some("fold_in"));
        let links = v.get("links").unwrap().as_arr().unwrap();
        assert_eq!(links[0].as_arr().unwrap()[2].as_f64(), Some(1.5));
        let values = v.get("values").unwrap().as_obj().unwrap();
        assert_eq!(values[0].0, "reading");
        assert_eq!(values[0].1.as_arr().unwrap()[1].as_f64(), Some(-0.25));
    }

    #[test]
    fn as_bool_accepts_only_booleans() {
        let v = Json::parse(r#"{"wait": true, "n": 1, "s": "true"}"#).unwrap();
        assert_eq!(v.get("wait").unwrap().as_bool(), Some(true));
        assert_eq!(Json::Bool(false).as_bool(), Some(false));
        assert_eq!(v.get("n").unwrap().as_bool(), None);
        assert_eq!(v.get("s").unwrap().as_bool(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\n\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA😀"));
        let rendered = Json::str("x\"y\n\u{1}").render();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str(),
            Some("x\"y\n\u{1}")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1.2.3",
            "{\"a\":1} trailing",
            "\"\\ud800\"", // lone surrogate
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // Depth bomb stays an error, not a stack overflow.
        let bomb = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn renderer_is_compact_and_parseable() {
        let v = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("theta", Json::nums(&[0.25, 0.75])),
            ("name", Json::str("s0")),
            ("n", Json::Num(3.0)),
            ("x", Json::Num(0.1)),
            ("inf", Json::Num(f64::INFINITY)),
        ]);
        let s = v.render();
        assert_eq!(
            s,
            r#"{"ok":true,"theta":[0.25,0.75],"name":"s0","n":3,"x":0.1,"inf":null}"#
        );
        assert!(Json::parse(&s).is_ok());
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, -2.5e17, 123456789.123] {
            let s = Json::Num(x).render();
            assert_eq!(Json::parse(&s).unwrap().as_f64(), Some(x), "{s}");
        }
    }

    #[test]
    fn duplicate_keys_are_a_parse_error() {
        // Regression for the commit-sniffing ambiguity: `get` used to keep
        // the first occurrence while byte-level fast paths (refresh.rs's
        // mutation check) scan the raw line, so `{"commit":…,"commit":…}`
        // could be validated against one value and detected via another.
        for bad in [
            r#"{"a": 1, "a": 2}"#,
            r#"{"op":"fold_in","commit":"x","commit":"y"}"#,
            r#"{"a": {"b": 1, "b": 2}}"#,
            r#"{"\u0061": 1, "a": 2}"#, // escaped spelling of the same key
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("duplicate object key"), "{bad} → {err}");
        }
        // Same key at different nesting levels is fine.
        assert!(Json::parse(r#"{"a": {"a": 1}, "b": 2}"#).is_ok());
    }

    #[test]
    fn as_usize_edge_cases() {
        // Documented behavior with no direct regression tests until now:
        // negative zero is a valid 0, fractional and out-of-u32-range
        // values are rejected, and the boundary itself is accepted.
        assert_eq!(Json::parse("-0").unwrap().as_usize(), Some(0));
        assert_eq!(Json::parse("-0.0").unwrap().as_usize(), Some(0));
        assert_eq!(Json::Num(-0.0).as_usize(), Some(0));
        assert_eq!(Json::Num(0.5).as_usize(), None);
        assert_eq!(Json::Num(3.0000001).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(
            Json::Num(u32::MAX as f64).as_usize(),
            Some(u32::MAX as usize)
        );
        assert_eq!(Json::Num(u32::MAX as f64 + 1.0).as_usize(), None);
        assert_eq!(Json::Num(1e300).as_usize(), None);
        assert_eq!(Json::Num(f64::NAN).as_usize(), None);
        assert_eq!(Json::Num(f64::INFINITY).as_usize(), None);
        assert_eq!(Json::Str("3".into()).as_usize(), None);
    }

    #[test]
    fn depth_cap_is_an_error_not_an_overflow() {
        // Comfortably inside the cap parses; past it errors cleanly.
        let deep_ok = "[".repeat(60) + "0" + &"]".repeat(60);
        assert!(Json::parse(&deep_ok).is_ok());
        for n in [70usize, 200, 5000] {
            let bomb = "[".repeat(n) + "0" + &"]".repeat(n);
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.contains("nesting too deep"), "depth {n}: {err}");
            // Objects nest through the same budget.
            let obj_bomb = "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
            assert!(Json::parse(&obj_bomb).is_err(), "object depth {n}");
        }
    }

    mod fuzz {
        //! Randomized robustness and round-trip properties, via the
        //! vendored proptest: the parser is fed untrusted serving input,
        //! so arbitrary garbage must come back as `Err`, never a panic,
        //! and valid documents must survive parse → render → parse
        //! exactly (with render ∘ parse idempotent — the normalizer).

        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// A random scalar-or-container value, depth-bounded, with only
        /// finite numbers (JSON cannot carry non-finite ones).
        fn arbitrary_json(rng: &mut StdRng, depth: usize) -> Json {
            let top = if depth == 0 { 4 } else { 6 };
            match rng.gen_range(0..top) {
                0 => Json::Null,
                1 => Json::Bool(rng.gen()),
                2 => {
                    if rng.gen_bool(0.5) {
                        Json::Num(rng.gen_range(-1.0e12f64..1.0e12).trunc())
                    } else {
                        Json::Num(rng.gen_range(-1.0e3f64..1.0e3))
                    }
                }
                3 => Json::Str(arbitrary_string(rng)),
                4 => Json::Arr(
                    (0..rng.gen_range(0..4))
                        .map(|_| arbitrary_json(rng, depth - 1))
                        .collect(),
                ),
                _ => {
                    let n = rng.gen_range(0..4);
                    let mut fields: Vec<(String, Json)> = Vec::with_capacity(n);
                    for i in 0..n {
                        // Unique keys: parsing drops duplicates, which is
                        // exercised separately.
                        let key = format!("{}{}", arbitrary_string(rng), i);
                        let value = arbitrary_json(rng, depth - 1);
                        fields.push((key, value));
                    }
                    Json::Obj(fields)
                }
            }
        }

        /// Strings mixing plain ASCII, escapes, control characters, and
        /// multi-byte scalars (including astral-plane, which the writer
        /// emits raw and the parser reads as surrogate-free UTF-8).
        fn arbitrary_string(rng: &mut StdRng) -> String {
            (0..rng.gen_range(0..8))
                .map(|_| match rng.gen_range(0..6) {
                    0 => rng.gen_range(b'a'..=b'z') as char,
                    1 => ['"', '\\', '/', '\n', '\r', '\t'][rng.gen_range(0usize..6)],
                    2 => char::from_u32(rng.gen_range(1..0x20)).unwrap(),
                    3 => ['é', 'Ж', '中', '😀', '𝕏'][rng.gen_range(0usize..5)],
                    _ => rng.gen_range(b' '..=b'~') as char,
                })
                .collect()
        }

        /// Bytes biased toward JSON's structural vocabulary, so random
        /// streams reach deep into the parser instead of failing on the
        /// first byte.
        const ALPHABET: &[u8] = br#"{}[]",:0123456789.eE+-\utrfanl "#;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary byte soup: parse may fail, must not panic.
            #[test]
            fn arbitrary_bytes_never_panic(
                bytes in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let text = String::from_utf8_lossy(&bytes);
                let _ = Json::parse(&text);
            }

            /// Structural soup: same property, far deeper coverage of the
            /// object/array/string/number state machine.
            #[test]
            fn structural_soup_never_panics(
                picks in proptest::collection::vec(0usize..31, 0..256),
            ) {
                let text: String = picks
                    .iter()
                    .map(|&i| ALPHABET[i] as char)
                    .collect();
                let _ = Json::parse(&text);
            }

            /// Valid documents round-trip exactly, and the renderer is a
            /// normalizer: render ∘ parse is idempotent even on messy
            /// (whitespace-padded) input — while a duplicated key anywhere
            /// turns the document into a parse error.
            #[test]
            fn valid_docs_round_trip(seed in any::<u64>()) {
                let mut rng = genclus_stats::seeded_rng(seed);
                let doc = arbitrary_json(&mut rng, 4);
                let rendered = doc.render();
                let parsed = Json::parse(&rendered).unwrap();
                prop_assert_eq!(&parsed, &doc, "parse(render(x)) != x for {}", rendered);
                prop_assert_eq!(parsed.render(), rendered.clone(), "render unstable");

                // A messy equivalent document: whitespace padding around
                // every token; and a duplicated first key must be rejected.
                let messy = match &doc {
                    Json::Obj(fields) if !fields.is_empty() => {
                        let mut m = String::from(" {\n");
                        for (i, (k, v)) in fields.iter().enumerate() {
                            let mut kv = String::new();
                            write_str(&mut kv, k);
                            kv.push_str(" :\t");
                            v.render_into(&mut kv);
                            m.push_str(&kv);
                            m.push_str(if i + 1 < fields.len() { " ,\n" } else { "\n" });
                        }
                        m.push_str("} \r\n");

                        // The same document with the first key repeated is
                        // a duplicate-key error, not a silent drop.
                        let mut dup = m.trim_end().trim_end_matches('}').to_string();
                        dup.push(',');
                        write_str(&mut dup, &fields[0].0);
                        dup.push_str(": null }");
                        let err = Json::parse(&dup).unwrap_err();
                        prop_assert!(
                            err.contains("duplicate object key"),
                            "{} → {}", dup, err
                        );
                        m
                    }
                    _ => format!("  {rendered}\t\n"),
                };
                let normalized = Json::parse(&messy).unwrap().render();
                prop_assert_eq!(&normalized, &rendered, "normalizer disagreed on {}", messy);
                let again = Json::parse(&normalized).unwrap().render();
                prop_assert_eq!(again, normalized, "normalizer not idempotent");
            }
        }
    }
}
