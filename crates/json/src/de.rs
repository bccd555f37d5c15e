//! A pull decoder over UTF-8 JSON text: the read-side mirror of
//! [`ToJsonBuf`](crate::ToJsonBuf).
//!
//! [`Parser`] is a cursor over the text and the only tokeniser in the crate.
//! [`FromJsonBuf`] decodes a typed value straight off it, so a record goes
//! from bytes to its struct without a [`Json`] tree in between; the tree
//! itself is just one more `FromJsonBuf` impl, and [`parse`] a wrapper over
//! it. Both routes — `read_json::<T>(text)` and
//! `T::from_json(&parse(text)?)` — accept and reject the same documents and
//! decode equal values (pinned type by type in `tests/roundtrip.rs`).
//!
//! Accepts exactly RFC 8259 JSON (no comments, no trailing commas). Errors
//! carry the byte offset of the offending token. Nesting depth is capped so
//! adversarial input cannot overflow the stack.

use crate::value::{Json, JsonError, Number};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

const MAX_DEPTH: usize = 128;

/// Decode a typed value straight from JSON text (the read-side mirror of
/// [`ToJsonBuf`](crate::ToJsonBuf)).
///
/// Implementations decode exactly what `FromJson::from_json` would decode
/// from the parsed tree; the [`json_struct!`](crate::json_struct) and
/// [`json_enum!`](crate::json_enum) macros generate conforming impls
/// alongside the tree-reading ones. Struct decode takes keys in any order,
/// skips unknown keys, keeps the first of duplicate keys and reads a missing
/// key as `null`; enum decode dispatches on the first key that names a
/// variant.
pub trait FromJsonBuf: Sized {
    /// Decode one value starting at the cursor, leaving the cursor right
    /// behind its last byte.
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError>;
}

/// Decode a complete document as `T` (the buffer-reading analog of
/// [`from_str`](crate::from_str)). Trailing whitespace is allowed; any other
/// trailing content is an error.
pub fn read_json<T: FromJsonBuf>(text: &str) -> Result<T, JsonError> {
    let mut p = Parser::new(text);
    let value = T::from_json_buf(&mut p)?;
    p.finish()?;
    Ok(value)
}

/// Parse a complete JSON document. Trailing whitespace is allowed; any other
/// trailing content is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    read_json(text)
}

/// A cursor over JSON text. Between calls it rests on the first byte of a
/// token: [`new`](Parser::new), [`key`](Parser::key) and [`Seq::next`] skip
/// the whitespace in front of the value they hand over.
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

/// An array or object being read: [`Parser::begin_array`] /
/// [`Parser::begin_object`] open it, [`next`](Seq::next) steps through it.
pub struct Seq {
    close: u8,
    first: bool,
}

impl Seq {
    /// Step to the next element (for an object: to its key). `false` once
    /// the closing bracket is consumed; do not call again after that.
    pub fn next(&mut self, p: &mut Parser<'_>) -> Result<bool, JsonError> {
        p.skip_ws();
        if std::mem::take(&mut self.first) {
            if p.peek() == Some(self.close) {
                p.pos += 1;
                return Ok(false);
            }
            p.depth += 1;
            if p.depth > MAX_DEPTH {
                return Err(JsonError::at("nesting too deep", p.pos));
            }
            return Ok(true);
        }
        match p.peek() {
            Some(b',') => {
                p.pos += 1;
                p.skip_ws();
                Ok(true)
            }
            Some(c) if c == self.close => {
                p.pos += 1;
                p.depth -= 1;
                Ok(false)
            }
            _ => Err(JsonError::at(
                format!("expected `,` or `{}`", self.close as char),
                p.pos,
            )),
        }
    }
}

impl<'a> Parser<'a> {
    /// A cursor at the first token of `text`.
    pub fn new(text: &'a str) -> Self {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    /// Byte offset of the cursor. Read before and after a decode, the two
    /// offsets delimit the value's stored bytes.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The byte under the cursor, `None` at the end of the text.
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Require the end of the document (trailing whitespace allowed).
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(JsonError::at("trailing content after document", self.pos));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(JsonError::at(format!("expected `{word}`"), self.pos))
        }
    }

    /// The error for a token that is not an `expected`: names the type found,
    /// or the stray byte when no value starts here.
    pub(crate) fn type_error(&self, expected: &str) -> JsonError {
        let got = match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(c) => return JsonError::at(format!("unexpected byte `{}`", c as char), self.pos),
            None => return JsonError::at("unexpected end of input", self.pos),
        };
        JsonError::at(format!("expected {expected}, got {got}"), self.pos)
    }

    /// The value a struct field takes when its key is absent: whatever `T`
    /// decodes from `null` (`None` for an `Option`), else an error naming
    /// the field.
    pub fn missing_field<T: FromJsonBuf>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json_buf(&mut Parser::new("null"))
            .map_err(|_| JsonError::at(format!("missing field `{key}`"), self.pos))
    }

    /// Consume `null`.
    pub(crate) fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Consume `true` or `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.type_error("bool")),
        }
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> Result<Seq, JsonError> {
        self.begin(b'[', b']', "array")
    }

    /// Open an object; read each member with [`key`](Parser::key) and then
    /// its value.
    pub fn begin_object(&mut self) -> Result<Seq, JsonError> {
        self.begin(b'{', b'}', "object")
    }

    fn begin(&mut self, open: u8, close: u8, name: &str) -> Result<Seq, JsonError> {
        if self.peek() != Some(open) {
            return Err(self.type_error(name));
        }
        self.pos += 1;
        Ok(Seq { close, first: true })
    }

    /// Consume an object key and its `:`, leaving the cursor on the value.
    pub fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.str_token()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(JsonError::at("expected `:`", self.pos));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(key)
    }

    /// Consume any one value, checking its syntax and building nothing.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'[') => {
                let mut items = self.begin_array()?;
                while items.next(self)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut fields = self.begin_object()?;
                while fields.next(self)? {
                    self.key()?;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.str_token().map(drop),
            Some(b'n') => self.null(),
            Some(b't' | b'f') => self.bool().map(drop),
            _ => self.number().map(drop),
        }
    }

    /// Consume any one value, checked as [`skip_value`](Parser::skip_value)
    /// checks it, and return its text as it stands in the input.
    pub(crate) fn raw_value(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        self.skip_value()?;
        Ok(&self.text[start..self.pos])
    }

    /// Consume a string into an owned `String`.
    pub(crate) fn string(&mut self) -> Result<String, JsonError> {
        self.str_token().map(Cow::into_owned)
    }

    /// Consume a string, borrowing it from the text when it holds no escape
    /// (every key and enum tag the writers emit) and decoding it otherwise.
    pub fn str_token(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.type_error("string"));
        }
        self.pos += 1;
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            let plain = &self.text[start..self.pos];
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::at("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(JsonError::at("raw control character in string", self.pos));
                }
                Some(_) => {
                    let start = self.pos;
                    self.plain_run();
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Advance over the bytes a string holds verbatim, up to the next `"`,
    /// `\` or control byte. All three are ASCII, so both ends of the run are
    /// char boundaries of the text.
    fn plain_run(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// Parse the 4 hex digits after `\u` (the `u` is already consumed),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.peek() == Some(b'\\') && self.text.as_bytes().get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(JsonError::at("invalid low surrogate", self.pos));
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(code)
                    .ok_or_else(|| JsonError::at("invalid surrogate pair", self.pos));
            }
            return Err(JsonError::at("unpaired high surrogate", self.pos));
        }
        if (0xDC00..0xE000).contains(&hi) {
            // A low surrogate can only legally follow a high surrogate (the
            // pair is consumed as a unit above). Reaching one here means the
            // input leads with the low half; name the defect instead of
            // falling through to `char::from_u32`, which would mask it as a
            // generic escape failure.
            return Err(JsonError::at("unpaired low surrogate", self.pos));
        }
        char::from_u32(hi).ok_or_else(|| JsonError::at("invalid \\u escape", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(JsonError::at("expected 4 hex digits", self.pos)),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Consume a number, keeping integers exact.
    pub(crate) fn number(&mut self) -> Result<Number, JsonError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.type_error("number"));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        Ok(if is_float {
            Number::F64(
                text.parse::<f64>()
                    .map_err(|_| JsonError::at("invalid number", start))?,
            )
        } else if let Some(stripped) = text.strip_prefix('-') {
            // Negative integer; `-0` normalizes to U64(0).
            if stripped == "0" {
                Number::U64(0)
            } else {
                Number::I64(
                    text.parse::<i64>()
                        .map_err(|_| JsonError::at("integer out of range", start))?,
                )
            }
        } else {
            Number::U64(
                text.parse::<u64>()
                    .map_err(|_| JsonError::at("integer out of range", start))?,
            )
        })
    }
}

/// The tree builder: what [`parse`] runs.
impl FromJsonBuf for Json {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        match p.peek() {
            Some(b'n') => p.null().map(|()| Json::Null),
            Some(b't' | b'f') => p.bool().map(Json::Bool),
            Some(b'"') => p.string().map(Json::Str),
            Some(b'[') => Vec::from_json_buf(p).map(Json::Array),
            Some(b'{') => {
                let mut fields = Vec::new();
                let mut members = p.begin_object()?;
                while members.next(p)? {
                    let key = p.key()?.into_owned();
                    fields.push((key, Json::from_json_buf(p)?));
                }
                Ok(Json::Object(fields))
            }
            _ => p.number().map(Json::Num),
        }
    }
}

impl FromJsonBuf for bool {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.bool()
    }
}

impl FromJsonBuf for String {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.string()
    }
}

impl FromJsonBuf for char {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        let at = p.pos;
        let s = p.str_token()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(JsonError::at("expected single-character string", at)),
        }
    }
}

/// Consume a number and narrow it with `pick`, exactly as the tree route
/// narrows a [`Number`] node.
fn narrow<T>(
    p: &mut Parser<'_>,
    expected: &str,
    pick: impl FnOnce(Number) -> Option<T>,
) -> Result<T, JsonError> {
    if !matches!(p.peek(), Some(b'-' | b'0'..=b'9')) {
        return Err(p.type_error(expected));
    }
    let at = p.pos;
    pick(p.number()?).ok_or_else(|| JsonError::at(format!("expected {expected}, got number"), at))
}

macro_rules! impl_pull_int {
    ($as:ident: $($ty:ty),+) => {$(
        impl FromJsonBuf for $ty {
            fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
                narrow(p, concat!(stringify!($ty), " integer"), |n| {
                    n.$as().and_then(|x| <$ty>::try_from(x).ok())
                })
            }
        }
    )+};
}
impl_pull_int!(as_u64: u8, u16, u32, u64, usize);
impl_pull_int!(as_i64: i8, i16, i32, i64, isize);

impl FromJsonBuf for f64 {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.number().map(Number::as_f64)
    }
}

impl FromJsonBuf for f32 {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        f64::from_json_buf(p).map(|f| f as f32)
    }
}

impl<T: FromJsonBuf> FromJsonBuf for Option<T> {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        if p.peek() == Some(b'n') {
            return p.null().map(|()| None);
        }
        T::from_json_buf(p).map(Some)
    }
}

impl<T: FromJsonBuf> FromJsonBuf for Vec<T> {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        let mut out = Vec::new();
        let mut items = p.begin_array()?;
        while items.next(p)? {
            out.push(T::from_json_buf(p)?);
        }
        Ok(out)
    }
}

impl<T: FromJsonBuf, const N: usize> FromJsonBuf for [T; N] {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        let at = p.pos;
        let items = Vec::<T>::from_json_buf(p)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| JsonError::at(format!("expected array of length {N}, got {n}"), at))
    }
}

impl<A: FromJsonBuf, B: FromJsonBuf> FromJsonBuf for (A, B) {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        let at = p.pos;
        let wrong_len = || JsonError::at("expected 2-element array", at);
        let mut items = p.begin_array()?;
        if !items.next(p)? {
            return Err(wrong_len());
        }
        let a = A::from_json_buf(p)?;
        if !items.next(p)? {
            return Err(wrong_len());
        }
        let b = B::from_json_buf(p)?;
        if items.next(p)? {
            return Err(wrong_len());
        }
        Ok((a, b))
    }
}

/// Object members into a map; of duplicate keys the last wins, as when the
/// tree route collects an object's field list.
fn read_map<V: FromJsonBuf, M: Default + Extend<(String, V)>>(
    p: &mut Parser<'_>,
) -> Result<M, JsonError> {
    let mut map = M::default();
    let mut members = p.begin_object()?;
    while members.next(p)? {
        let key = p.key()?.into_owned();
        let value = V::from_json_buf(p).map_err(|e| e.in_field(&key))?;
        map.extend([(key, value)]);
    }
    Ok(map)
}

impl<V: FromJsonBuf> FromJsonBuf for BTreeMap<String, V> {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        read_map(p)
    }
}

impl<V: FromJsonBuf> FromJsonBuf for HashMap<String, V> {
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        read_map(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(doc: &str) -> Result<String, JsonError> {
        parse(doc).map(|v| match v {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        })
    }

    fn expect_error(doc: &str, needle: &str) {
        let err = decode(doc).expect_err(&format!("{doc:?} must not decode"));
        assert!(
            err.to_string().contains(needle),
            "{doc:?}: expected error containing `{needle}`, got `{err}`"
        );
    }

    #[test]
    fn the_cursor_borrows_plain_strings_and_delimits_values() {
        let text = " {\"plain\": \"h\u{e9}llo\", \"esc\\n\": [1, {\"x\": null}] } ";
        let mut p = Parser::new(text);
        let mut members = p.begin_object().unwrap();
        assert!(members.next(&mut p).unwrap());
        assert!(matches!(p.key().unwrap(), Cow::Borrowed("plain")));
        assert!(matches!(
            p.str_token().unwrap(),
            Cow::Borrowed("h\u{e9}llo")
        ));
        assert!(members.next(&mut p).unwrap());
        assert!(matches!(p.key().unwrap(), Cow::Owned(key) if key == "esc\n"));
        // The offsets either side of a decode are the value's stored bytes
        // (what the journal checksums).
        let start = p.pos();
        p.skip_value().unwrap();
        assert_eq!(&text[start..p.pos()], "[1, {\"x\": null}]");
        assert!(!members.next(&mut p).unwrap());
        p.finish().unwrap();
    }

    #[test]
    fn simple_escapes_decode() {
        assert_eq!(
            decode("\"a\\\"b\\\\c\\/d\\ne\\tf\\rg\\bh\\fi\"").unwrap(),
            "a\"b\\c/d\ne\tf\rg\u{08}h\u{0c}i"
        );
    }

    #[test]
    fn bmp_unicode_escapes_decode() {
        let doc = "\"\\u0041\\u00e9\\u4e16\\u0000\\uFFFD\\uabCd\"";
        assert_eq!(
            decode(doc).unwrap(),
            "A\u{e9}\u{4e16}\u{0}\u{FFFD}\u{abcd}",
            "escapes for ASCII, Latin-1, CJK, NUL, the replacement char, and \
             mixed-case hex digits all decode"
        );
        // Raw (unescaped) multi-byte UTF-8 passes through untouched.
        assert_eq!(decode("\"A\u{e9}\u{4e16}\"").unwrap(), "A\u{e9}\u{4e16}");
    }

    #[test]
    fn surrogate_pairs_decode_to_supplementary_planes() {
        // U+10000 (lowest astral), U+1F600 (emoji), U+10FFFF (highest scalar).
        assert_eq!(decode("\"\\uD800\\uDC00\"").unwrap(), "\u{10000}");
        assert_eq!(decode("\"\\uD83D\\uDE00\"").unwrap(), "\u{1F600}");
        assert_eq!(decode("\"\\uDBFF\\uDFFF\"").unwrap(), "\u{10FFFF}");
    }

    #[test]
    fn unpaired_low_surrogate_is_a_typed_error() {
        // The full low-surrogate range, alone or surrounded by ordinary
        // text: never a panic, never garbage output, always the named error.
        for doc in [
            "\"\\uDC00\"",
            "\"\\uDFFF\"",
            "\"\\uDD41 tail\"",
            "\"lead \\uDE02\"",
        ] {
            expect_error(doc, "unpaired low surrogate");
        }
    }

    #[test]
    fn unpaired_high_surrogate_is_a_typed_error() {
        for doc in [
            "\"\\uD800\"",    // at end of string
            "\"\\uDBFF x\"",  // followed by ordinary text
            "\"\\uD800\\n\"", // followed by a non-\u escape
            "\"\\uD834\\t\"",
        ] {
            expect_error(doc, "unpaired high surrogate");
        }
    }

    #[test]
    fn low_surrogate_out_of_range_after_high_is_rejected() {
        // A second \u escape follows the high surrogate but encodes
        // something outside the low-surrogate range.
        for doc in [
            "\"\\uD800\\u0041\"", // ordinary BMP scalar in the low slot
            "\"\\uD800\\uD800\"", // a second high surrogate
            "\"\\uD800\\uE000\"", // first scalar past the low range
        ] {
            expect_error(doc, "invalid low surrogate");
        }
    }

    #[test]
    fn truncated_unicode_escapes_are_rejected() {
        for doc in [
            "\"\\u\"",          // no digits
            "\"\\u00\"",        // two digits
            "\"\\uD8\"",        // truncated high surrogate
            "\"\\uD800\\uDC\"", // truncated low half of a pair
            "\"\\uD800\\u\"",   // pair promised, no digits delivered
        ] {
            expect_error(doc, "expected 4 hex digits");
        }
    }

    #[test]
    fn non_hex_digits_in_escape_are_rejected() {
        for doc in ["\"\\uZZZZ\"", "\"\\u00G0\"", "\"\\u-123\""] {
            expect_error(doc, "expected 4 hex digits");
        }
    }

    #[test]
    fn unknown_escape_and_bare_backslash_are_rejected() {
        expect_error("\"\\x41\"", "invalid escape");
        expect_error("\"\\", "invalid escape");
    }

    #[test]
    fn surrogate_errors_surface_from_embedded_strings() {
        let doc = "{\"ok\": \"fine\", \"bad\": \"\\uDC00\"}";
        let err = parse(doc).expect_err("embedded unpaired low surrogate");
        assert!(err.to_string().contains("unpaired low surrogate"), "{err}");
    }

    #[test]
    fn decoded_surrogate_pairs_round_trip_through_serialization() {
        let parsed = parse("\"\\uD83D\\uDE00!\"").unwrap();
        assert_eq!(parsed, Json::Str("\u{1F600}!".into()));
        let text = crate::to_string(&parsed);
        assert_eq!(parse(&text).unwrap(), parsed);
    }
}
