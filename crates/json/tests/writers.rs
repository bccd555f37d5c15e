//! The number and string writers against `core::fmt`.
//!
//! `impress-json` writes integers, floats and strings without going through
//! `core::fmt`; the bytes must stay exactly what the `core::fmt`-based
//! writers produced (checksummed journals and pinned artifacts depend on
//! them). The reference writers below are those, kept only here.

use impress_json::{to_string, write_json, ToJsonBuf};
use std::fmt::Write as _;

/// Deterministic splitmix64, local to this test (the json crate has no
/// dependencies).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value of a random bit length, so every digit count comes up.
    fn spread(&mut self) -> u64 {
        let shift = self.next() % 64;
        self.next() >> shift
    }
}

fn reference_f64(f: f64) -> String {
    if !f.is_finite() {
        return "null".into();
    }
    let mut s = format!("{f}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
}

fn reference_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The writer puts `want` for `v` both after existing text and into a
/// fresh `String`.
fn check<T: ToJsonBuf + std::fmt::Debug>(v: &T, want: &str) {
    let mut buf = String::from("[1,");
    write_json(&mut buf, &v);
    assert_eq!(&buf[3..], want, "into a used buffer, {v:?}");
    assert_eq!(to_string(v), want, "into a fresh buffer, {v:?}");
}

fn check_u64(u: u64) {
    check(&u, &format!("{u}"));
}

fn check_i64(i: i64) {
    check(&i, &format!("{i}"));
}

fn check_f64(f: f64) {
    check(&f, &reference_f64(f));
}

const CASES: usize = 50_000;

#[test]
fn integers_match_core_fmt() {
    let mut rng = SplitMix(0x1D16_1757);
    for u in [0, 1, 9, 10, 99, 100, 101, 999, 1000, u64::MAX, u64::MAX - 1] {
        check_u64(u);
    }
    for i in [
        0,
        -1,
        -9,
        -10,
        -99,
        -100,
        99,
        100,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
    ] {
        check_i64(i);
    }
    for p in 0..20 {
        let ten = 10u64.pow(p);
        for u in [ten - 1, ten, ten + 1] {
            check_u64(u);
            check_i64(u as i64);
            check_i64(-(u as i64));
        }
    }
    for _ in 0..CASES {
        check_u64(rng.spread());
        check_u64(rng.next());
        check_i64(rng.spread() as i64);
        check_i64(rng.next() as i64);
    }
    // The narrower integer types widen into the same writers.
    check(&u8::MAX, "255");
    check(&i8::MIN, "-128");
    check(&u32::MAX, "4294967295");
    check(&i32::MIN, "-2147483648");
    check(&usize::MAX, &format!("{}", usize::MAX));
    check(&isize::MIN, &format!("{}", isize::MIN));
}

#[test]
fn floats_match_core_fmt() {
    let mut rng = SplitMix(0xF10A7);
    for _ in 0..CASES {
        check_f64(f64::from_bits(rng.next()));
    }
    // Integral values: below 2^53 the integer path, at and past it the
    // shortest round-trip text with `.0` re-attached.
    let two_53 = 9_007_199_254_740_992.0f64;
    for k in 0..2_000u64 {
        for f in [
            two_53 - k as f64,
            two_53 + k as f64,
            f64::from_bits(two_53.to_bits() - k),
            f64::from_bits(two_53.to_bits() + k),
        ] {
            check_f64(f);
            check_f64(-f);
        }
    }
    for _ in 0..CASES {
        let whole = rng.spread() as f64;
        check_f64(whole);
        check_f64(-whole);
        check_f64(whole + 0.5);
        check_f64((rng.next() % 2_000_001) as f64 / 1000.0 - 1000.0);
    }
    for f in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1875,
        0.33,
        1e15,
        1e16,
        1e21,
        1e22,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        i64::MAX as f64,
        i64::MIN as f64,
        u64::MAX as f64,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        check_f64(f);
    }
    assert_eq!(to_string(&-0.0f64), "-0.0");
    for _ in 0..CASES / 10 {
        let bits = rng.next() % 0x0010_0000_0000_0000;
        check_f64(f64::from_bits(bits));
    }
    // `f32` widens first.
    for f in [0.25f32, 3.0, -0.0, 16_777_216.0, f32::MAX, f32::NAN] {
        check(&f, &reference_f64(f64::from(f)));
    }
}

#[test]
fn strings_match_core_fmt() {
    // Every ASCII byte, alone and between plain text.
    for b in 0..0x80u8 {
        let c = char::from(b);
        check(&c, &reference_str(&c.to_string()));
        let s = format!("ab{c}cd{c}");
        check(&s, &reference_str(&s));
    }
    // Multi-byte UTF-8 of every length, next to escapes and at the ends.
    let pool = [
        "",
        "plain",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{08}",
        "\u{0c}",
        "\u{00}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "ß",
        "\u{80}",
        "\u{7ff}",
        "⚙",
        "日本",
        "\u{2028}",
        "\u{fffd}",
        "🧬",
        "\u{10ffff}",
    ];
    for a in pool {
        for b in pool {
            let s = format!("{a}{b}");
            check(&s, &reference_str(&s));
        }
        for c in a.chars() {
            check(&c, &reference_str(&c.to_string()));
        }
    }
    let mut rng = SplitMix(0x57_2176);
    for _ in 0..CASES / 10 {
        let len = rng.next() % 12;
        let s: String = (0..len)
            .map(|_| pool[(rng.next() % pool.len() as u64) as usize])
            .collect();
        check(&s, &reference_str(&s));
        check(&s.as_str(), &reference_str(&s));
    }
}
