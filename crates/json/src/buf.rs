//! The one serializer.
//!
//! [`ToJsonBuf`] writes a value's compact JSON text directly into a caller
//! supplied (and typically reused) `String`; it is the only way a value
//! becomes JSON text. [`to_string`](crate::to_string) is this writer into
//! a fresh `String`, and a [`Json`] tree is written by its own impl below.
//! Hot paths that serialize per record (the write-ahead journal, trace
//! exporters) reach zero heap allocations per record once the buffer is
//! warm.
//!
//! The writers produce the bytes `core::fmt` would, without going through
//! it: integers two digits at a time from a table into a stack buffer,
//! integral floats below 2^53 through the same integer path (`{f}` of such
//! a value is its exact integer digits), and strings as runs of plain bytes
//! copied whole between escapes. Only non-integral and very large floats
//! still take `core::fmt`'s shortest round-trip formatting.

use crate::value::{Json, Number};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Serialize directly into a reused buffer, compactly.
///
/// Implementations must write one complete JSON value; the
/// [`json_struct!`](crate::json_struct) and [`json_enum!`](crate::json_enum)
/// macros generate them.
pub trait ToJsonBuf {
    /// Append `self`'s compact JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Append `value`'s compact JSON text to `out` (the buffer-reusing analog
/// of [`to_string`](crate::to_string)).
pub fn write_json(out: &mut String, value: &impl ToJsonBuf) {
    value.write_json(out);
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

pub(crate) fn write_u64(out: &mut String, mut u: u64) {
    // u64::MAX has 20 digits; they fill the buffer from the right.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while u >= 100 {
        let pair = (u % 100) as usize * 2;
        u /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if u >= 10 {
        let pair = u as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + u as u8;
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

pub(crate) fn write_i64(out: &mut String, i: i64) {
    if i < 0 {
        out.push('-');
    }
    write_u64(out, i.unsigned_abs());
}

/// 2^53: below it every integral `f64` is an exact `u64` whose digits are
/// the float's shortest round-trip text.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

pub(crate) fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        // serde_json's convention: non-finite floats become null.
        out.push_str("null");
        return;
    }
    if f.abs() < EXACT_INTEGERS {
        let whole = f as i64;
        if whole as f64 == f {
            // The sign comes from the float, so `-0.0` keeps its minus.
            if f.is_sign_negative() {
                out.push('-');
            }
            write_u64(out, whole.unsigned_abs());
            out.push_str(".0");
            return;
        }
    }
    // Rust's shortest round-trip formatting, with a `.0` re-attached for
    // the integral values from 2^53 up so the token stays float-typed on
    // re-read.
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

pub(crate) fn write_number(out: &mut String, n: Number) {
    match n {
        Number::U64(u) => write_u64(out, u),
        Number::I64(i) => write_i64(out, i),
        Number::F64(f) => write_f64(out, f),
    }
}

/// Whether byte `b` of a UTF-8 string needs an escape: the quote, the
/// backslash and the C0 controls. Every byte of a multi-byte character is
/// at least 0x80, so those are always copied as they are.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

fn write_escape(out: &mut String, b: u8) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    match b {
        b'"' => out.push_str("\\\""),
        b'\\' => out.push_str("\\\\"),
        b'\n' => out.push_str("\\n"),
        b'\r' => out.push_str("\\r"),
        b'\t' => out.push_str("\\t"),
        0x08 => out.push_str("\\b"),
        0x0c => out.push_str("\\f"),
        _ => {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
    }
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if needs_escape(b) {
            // An escaped byte is ASCII, so `i` is a char boundary.
            out.push_str(&s[plain..i]);
            write_escape(out, b);
            plain = i + 1;
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

impl ToJsonBuf for Json {
    fn write_json(&self, out: &mut String) {
        crate::ser::write_value(out, self, None);
    }
}

impl<T: ToJsonBuf + ?Sized> ToJsonBuf for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJsonBuf + ?Sized> ToJsonBuf for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJsonBuf for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJsonBuf for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl ToJsonBuf for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl ToJsonBuf for char {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self.encode_utf8(&mut [0; 4]));
    }
}

macro_rules! impl_buf_uint {
    ($($ty:ty),+) => {$(
        impl ToJsonBuf for $ty {
            fn write_json(&self, out: &mut String) {
                write_u64(out, u64::from(*self));
            }
        }
    )+};
}
impl_buf_uint!(u8, u16, u32, u64);

macro_rules! impl_buf_int {
    ($($ty:ty),+) => {$(
        impl ToJsonBuf for $ty {
            fn write_json(&self, out: &mut String) {
                write_i64(out, i64::from(*self));
            }
        }
    )+};
}
impl_buf_int!(i8, i16, i32, i64);

impl ToJsonBuf for usize {
    fn write_json(&self, out: &mut String) {
        write_u64(out, *self as u64);
    }
}

impl ToJsonBuf for isize {
    fn write_json(&self, out: &mut String) {
        write_i64(out, *self as i64);
    }
}

impl ToJsonBuf for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl ToJsonBuf for f32 {
    fn write_json(&self, out: &mut String) {
        // Widen first: the shortest round-trip text of the f64 value.
        write_f64(out, f64::from(*self));
    }
}

impl<T: ToJsonBuf> ToJsonBuf for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

fn write_seq<'a, T: ToJsonBuf + 'a>(out: &mut String, items: impl Iterator<Item = &'a T>) {
    out.push('[');
    let mut first = true;
    for item in items {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: ToJsonBuf> ToJsonBuf for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: ToJsonBuf> ToJsonBuf for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: ToJsonBuf, const N: usize> ToJsonBuf for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<A: ToJsonBuf, B: ToJsonBuf> ToJsonBuf for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<V: ToJsonBuf> ToJsonBuf for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for (k, v) in self {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            write_escaped(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

impl<V: ToJsonBuf> ToJsonBuf for HashMap<String, V> {
    fn write_json(&self, out: &mut String) {
        // Sort keys so HashMap iteration order cannot leak into the output.
        // The key vector allocates; ordered maps on hot paths should prefer
        // `BTreeMap` or a struct.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        out.push('{');
        let mut first = true;
        for k in keys {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            write_escaped(out, k);
            out.push(':');
            self[k].write_json(out);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json_enum, json_struct, to_string};

    /// What a document assembled as a tree rests on: a value's tree
    /// ([`Json::of`]) writes back exactly the bytes the value writes, and
    /// the writer appends the same bytes after existing text as into a
    /// fresh buffer.
    fn assert_parity<T: ToJsonBuf>(v: &T) {
        let mut buf = String::from("seed-prefix");
        v.write_json(&mut buf);
        let text = &buf["seed-prefix".len()..];
        assert_eq!(to_string(v), text, "a fresh buffer diverged");
        assert_eq!(to_string(&Json::of(v)), text, "the tree path diverged");
    }

    #[test]
    fn scalars_match_the_tree_path_byte_for_byte() {
        assert_parity(&true);
        assert_parity(&false);
        assert_parity(&0u64);
        assert_parity(&u64::MAX);
        assert_parity(&-1i64);
        assert_parity(&i64::MIN);
        assert_parity(&42usize);
        assert_parity(&-9isize);
        assert_parity(&7u8);
        assert_parity(&-3i16);
    }

    #[test]
    fn floats_match_including_integral_shortest_roundtrip_and_nonfinite() {
        for f in [
            0.0f64,
            -0.0,
            3.0,
            0.1,
            0.1875,
            -2.5e-308,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            123456789.0,
        ] {
            assert_parity(&f);
        }
        assert_parity(&0.25f32);
        assert_parity(&3.0f32);
        assert_parity(&f32::NAN);
    }

    #[test]
    fn strings_match_across_the_whole_escape_set() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\n tab\t return\r",
            "backspace\u{08} formfeed\u{0c}",
            "control\u{01}\u{1f}",
            "unicode: héllo ⚙ 日本語",
        ] {
            assert_parity(&s.to_string());
        }
        assert_parity(&'x');
        assert_parity(&'"');
        assert_parity(&'\u{02}');
    }

    #[test]
    fn containers_match_including_empties() {
        assert_parity(&Vec::<u64>::new());
        assert_parity(&vec![1u64, 2, 3]);
        assert_parity(&[0.5f64, 1.5]);
        assert_parity(&(Some(1u32), Option::<String>::None));
        assert_parity(&("k".to_string(), 2.0f64));
        let mut bt = std::collections::BTreeMap::new();
        bt.insert("b".to_string(), 1u64);
        bt.insert("a".to_string(), 2u64);
        assert_parity(&bt);
        let mut hm = std::collections::HashMap::new();
        hm.insert("z".to_string(), 0.5f64);
        hm.insert("a".to_string(), -1.0);
        assert_parity(&hm);
        assert_parity(&std::collections::HashMap::<String, bool>::new());
    }

    #[test]
    fn json_values_match_through_the_compact_writer() {
        let doc = Json::object()
            .field("nested", Json::array(vec![Json::Null, Json::Bool(true)]))
            .field("num", 0.1875)
            .field("text", "esc\"aped\n")
            .field("empty_obj", Json::object().build())
            .field("empty_arr", Json::array(Vec::<Json>::new()))
            .build();
        assert_parity(&doc);
    }

    struct Inner {
        label: String,
        weight: f64,
    }
    json_struct!(Inner { label, weight });

    struct Wrapper(u64);
    json_struct!(Wrapper(u64));

    enum Kind {
        Unit,
        Single(Inner),
        Pair(u64, String),
        Fields { id: u64, optional: Option<f64> },
    }
    json_enum!(Kind {
        Unit,
        Single(inner),
        Pair(a, b),
        Fields { id, optional }
    });

    #[test]
    fn macro_generated_impls_match_for_every_shape() {
        assert_parity(&Inner {
            label: "a \"quoted\" name".into(),
            weight: 3.0,
        });
        assert_parity(&Wrapper(99));
        assert_parity(&Kind::Unit);
        assert_parity(&Kind::Single(Inner {
            label: String::new(),
            weight: f64::NAN,
        }));
        assert_parity(&Kind::Pair(7, "x\ty".into()));
        assert_parity(&Kind::Fields {
            id: 0,
            optional: None,
        });
        assert_parity(&Kind::Fields {
            id: u64::MAX,
            optional: Some(0.5),
        });
        assert_parity(&vec![Kind::Unit, Kind::Pair(1, "s".into())]);
    }
}
