//! Round-trip and representation tests for the in-repo JSON stack.

use impress_json::{
    from_str, json_enum, json_struct, parse, read_json, to_string, to_string_pretty, FromJson,
    FromJsonBuf, Json, Number, RawJson,
};
use std::collections::BTreeMap;

/// Deterministic xorshift64* generator, local to this test so the json crate
/// stays dependency-free (the workspace-wide `props!` harness lives in
/// `impress-sim`, which depends on this crate).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Build a random JSON tree of bounded depth.
fn arb_json(rng: &mut XorShift, depth: usize) -> Json {
    match if depth == 0 {
        rng.below(4)
    } else {
        rng.below(6)
    } {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => match rng.below(3) {
            0 => Json::Num(Number::U64(rng.next())),
            1 => Json::Num(Number::I64(-((rng.next() >> 1) as i64))),
            _ => {
                // A finite float built from a ratio, avoiding NaN/inf.
                let num = (rng.next() % 2_000_000) as f64 - 1_000_000.0;
                let den = (1 + rng.below(9999)) as f64;
                Json::Num(Number::F64(num / den))
            }
        },
        3 => {
            let len = rng.below(12);
            let s: String = (0..len)
                .map(|_| {
                    // Mix ASCII, escapes and multibyte characters.
                    const POOL: &[char] = &['a', 'Z', '"', '\\', '\n', '\t', 'µ', '日', '𝄞', ' '];
                    POOL[rng.below(POOL.len() as u64) as usize]
                })
                .collect();
            Json::Str(s)
        }
        4 => {
            let len = rng.below(5) as usize;
            Json::Array((0..len).map(|_| arb_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.below(5) as usize;
            Json::Object(
                (0..len)
                    .map(|i| (format!("k{i}"), arb_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

#[test]
fn parse_after_serialize_is_identity_compact_and_pretty() {
    let mut rng = XorShift(0x5EED_CAFE_F00D_1234);
    for case in 0..500u32 {
        let value = arb_json(&mut rng, 3);
        let compact = to_string(&value);
        let pretty = to_string_pretty(&value);
        let back_compact = parse(&compact)
            .unwrap_or_else(|e| panic!("case {case}: compact reparse failed: {e}\n{compact}"));
        let back_pretty = parse(&pretty)
            .unwrap_or_else(|e| panic!("case {case}: pretty reparse failed: {e}\n{pretty}"));
        assert_eq!(back_compact, value, "case {case} compact:\n{compact}");
        assert_eq!(back_pretty, value, "case {case} pretty:\n{pretty}");
    }
}

#[test]
fn json_of_a_tree_is_the_same_tree() {
    let mut rng = XorShift(0x0F0F_1D3A_7717_0001);
    for case in 0..500u32 {
        let value = arb_json(&mut rng, 3);
        assert_eq!(Json::of(&value), value, "case {case}");
    }
}

#[test]
fn json_of_maps_non_finite_floats_to_null() {
    for f in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::of(&f), Json::Null, "{f}");
        assert_eq!(Json::of(&(f as f32)), Json::Null, "{f} as f32");
    }
    let doc = Json::object()
        .field("score", f64::NAN)
        .field("xs", vec![1.5, f64::INFINITY])
        .build();
    assert_eq!(doc.get("score"), Some(&Json::Null));
    assert_eq!(
        doc.get("xs"),
        Some(&Json::Array(vec![Json::Num(Number::F64(1.5)), Json::Null]))
    );
    assert_eq!(Json::of(&0.5), Json::Num(Number::F64(0.5)));
}

#[test]
fn raw_json_is_the_text_it_was_written_as() {
    let value = Json::object()
        .field("s", "tab\t \"q\" µ 日本")
        .field("xs", vec![vec![1.0, -2.5], vec![]])
        .field("f", 0.1875)
        .build();
    let raw = RawJson::new(&value);
    assert_eq!(raw.as_str(), to_string(&value));
    assert_eq!(to_string(&raw), raw.as_str());
    // Read back as the parser's slice of the value, surrounding spaces
    // and all other members left out.
    let doc = format!("[ {} , 7]", raw.as_str());
    let (back, seven): (RawJson, u32) = read_json(&doc).unwrap();
    assert_eq!((back, seven), (raw.clone(), 7));
    assert_eq!(from_str::<(RawJson, u32)>(&doc).unwrap().0, raw);
    assert_eq!(read_json::<Json>(raw.as_str()).unwrap(), value);
    assert!(read_json::<RawJson>("[1,").is_err());
}

#[test]
fn numbers_keep_integer_precision() {
    let v = Json::Num(Number::U64(u64::MAX));
    let text = to_string(&v);
    assert_eq!(text, u64::MAX.to_string());
    assert_eq!(parse(&text).unwrap().as_u64(), Some(u64::MAX));

    let neg = parse("-9223372036854775808").unwrap();
    assert_eq!(neg, Json::Num(Number::I64(i64::MIN)));
}

#[test]
fn floats_round_trip_shortest_repr() {
    for f in [0.1, 1.0, -2.5, 18.725267822409716, 1e-12, 3.6e9] {
        let text = to_string(&f);
        let back: f64 = from_str(&text).expect("reparse");
        assert_eq!(back, f, "{text}");
    }
    // Integral floats keep a float token so the round trip stays float-typed.
    assert_eq!(to_string(&1.0f64), "1.0");
    // Non-finite floats degrade to null, serde_json-style.
    assert_eq!(to_string(&f64::NAN), "null");
    assert_eq!(to_string(&f64::INFINITY), "null");
}

/// The journal's resume-parity invariant leans on this: every finite f64
/// must survive serialize → parse → serialize *bit*-exactly (not just
/// approximately), including subnormals, extremes, and negative zero's
/// sign bit — and the text itself must be a fixed point.
#[test]
fn floats_round_trip_bit_exactly() {
    let mut rng = XorShift(0x5eed_f00d);
    let mut cases = vec![
        f64::MIN,
        f64::MAX,
        f64::MIN_POSITIVE,        // smallest normal
        f64::MIN_POSITIVE / 1e10, // subnormal
        5e-324,                   // smallest subnormal
        -0.0,
        0.1 + 0.2, // classic non-representable sum
        1.0 / 3.0,
        std::f64::consts::PI,
        2f64.powi(53) - 1.0, // largest exact integer
        2f64.powi(53) + 2.0,
        6.02214076e23,
        1.616255e-35,
    ];
    for _ in 0..500 {
        let bits = rng.next();
        let f = f64::from_bits(bits);
        if f.is_finite() {
            cases.push(f);
        }
    }
    for f in cases {
        let text = to_string(&f);
        let back: f64 = from_str(&text).expect(&text);
        assert_eq!(back.to_bits(), f.to_bits(), "{f:?} via {text:?}");
        assert_eq!(
            to_string(&back),
            text,
            "serialization must be a fixed point"
        );
    }
}

#[test]
fn string_escapes_round_trip() {
    let tricky = "quote\" slash\\ nl\n tab\t unicode µ日𝄞 ctl\u{01}";
    let text = to_string(&tricky.to_string());
    let back: String = from_str(&text).expect("reparse");
    assert_eq!(back, tricky);
    // Escaped surrogate pairs decode.
    assert_eq!(parse(r#""𝄞""#).unwrap().as_str(), Some("\u{1D11E}"));
}

const MALFORMED: [&str; 11] = [
    "",
    "{",
    "[1,]",
    "{\"a\":}",
    "tru",
    "\"unterminated",
    "1 2",
    "{\"a\" 1}",
    "nul",
    "[1 2]",
    r#""\ud834""#,
];

#[test]
fn parser_rejects_malformed_documents() {
    for bad in MALFORMED {
        assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
    }
}

#[test]
fn object_builder_preserves_insertion_order() {
    let v = Json::object()
        .field("z", 1u32)
        .field("a", "text")
        .field("m", vec![1.5f64, 2.5])
        .build();
    assert_eq!(to_string(&v), r#"{"z":1,"a":"text","m":[1.5,2.5]}"#);
}

#[test]
fn pretty_layout_matches_serde_json_style() {
    let v = Json::object()
        .field("n", 1u32)
        .field("xs", vec![1u32, 2])
        .field("empty", Json::Array(vec![]))
        .build();
    assert_eq!(
        to_string_pretty(&v),
        "{\n  \"n\": 1,\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}"
    );
}

// --- macro-generated impls ------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Inner {
    label: String,
    weight: f64,
}
json_struct!(Inner { label, weight });

#[derive(Debug, Clone, PartialEq)]
struct Outer {
    id: u64,
    inner: Inner,
    tags: Vec<String>,
    maybe: Option<u32>,
}
json_struct!(Outer {
    id,
    inner,
    tags,
    maybe
});

#[derive(Debug, Clone, Copy, PartialEq)]
struct Micros(u64);
json_struct!(Micros(u64));

#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Unit,
    Newtype(u32),
    Pair(u32, u32),
    Fields { x: f64, y: f64 },
}
json_enum!(Shape {
    Unit,
    Newtype(a),
    Pair(a, b),
    Fields { x, y }
});

#[test]
fn struct_macro_round_trips_nested_types() {
    let outer = Outer {
        id: 7,
        inner: Inner {
            label: "pdz".into(),
            weight: 0.25,
        },
        tags: vec!["a".into(), "b".into()],
        maybe: None,
    };
    let text = to_string_pretty(&Json::of(&outer));
    let back: Outer = from_str(&text).expect("reparse");
    assert_eq!(back, outer);
    // None serializes as null, and a missing key also reads back as None.
    assert!(text.contains("\"maybe\": null"));
    let trimmed: Outer =
        from_str(r#"{"id":7,"inner":{"label":"pdz","weight":0.25},"tags":["a","b"]}"#)
            .expect("missing Option field defaults to None");
    assert_eq!(trimmed, outer);
}

#[test]
fn newtype_macro_is_transparent() {
    let m = Micros(123_456);
    assert_eq!(to_string(&m), "123456");
    let back: Micros = from_str("123456").expect("reparse");
    assert_eq!(back, m);
}

#[test]
fn enum_macro_uses_serde_external_tagging() {
    assert_eq!(to_string(&Shape::Unit), r#""Unit""#);
    assert_eq!(to_string(&Shape::Newtype(3)), r#"{"Newtype":3}"#);
    assert_eq!(to_string(&Shape::Pair(1, 2)), r#"{"Pair":[1,2]}"#);
    assert_eq!(
        to_string(&Shape::Fields { x: 1.5, y: -2.0 }),
        r#"{"Fields":{"x":1.5,"y":-2.0}}"#
    );
    for shape in [
        Shape::Unit,
        Shape::Newtype(9),
        Shape::Pair(4, 5),
        Shape::Fields { x: 0.5, y: 0.0 },
    ] {
        let back: Shape = from_str(&to_string(&shape)).expect("reparse");
        assert_eq!(back, shape);
    }
    assert!(from_str::<Shape>(r#""NoSuchVariant""#).is_err());
}

#[test]
fn error_messages_name_the_failing_field() {
    let err = from_str::<Outer>(r#"{"id":"not a number"}"#).unwrap_err();
    assert!(err.to_string().contains("id"), "{err}");
}

// --- pull route == tree route ----------------------------------------------
//
// `read_json::<T>(text)` (straight off the cursor) and `from_str::<T>(text)`
// (parse a tree, then read it) are two routes to the same value. The shapes
// below are the journal's: a struct of scalars and options, vectors of
// vectors of structs, an enum of struct variants, and a raw `Json` payload.
// (The journal's own record types are pinned the same way beside them, in
// `crates/workflow/src/journal.rs`; this crate's tests stay dependency-free.)

#[derive(Debug, Clone, PartialEq)]
enum Terminal {
    Completed(Json),
    Aborted(String),
}
json_enum!(Terminal {
    Completed(outcome),
    Aborted(reason)
});

#[derive(Debug, Clone, PartialEq)]
struct Script {
    id: u64,
    name: String,
    parent: Option<u64>,
    stages: Vec<Vec<Inner>>,
    done: usize,
    terminal: Option<Terminal>,
}
json_struct!(Script {
    id,
    name,
    parent,
    stages,
    done,
    terminal
});

#[derive(Debug, Clone, PartialEq)]
enum Record {
    Begin {
        version: u32,
        label: String,
    },
    Submitted {
        pipeline: u64,
        tasks: Vec<Inner>,
    },
    Poisoned {
        pipeline: u64,
        task: u64,
        nodes: u32,
    },
    Snapshot {
        scripts: Vec<Script>,
    },
    Shape(Shape),
    Span(i64, f32),
    Idle,
}
json_enum!(Record {
    Begin { version, label },
    Submitted { pipeline, tasks },
    Poisoned { pipeline, task, nodes },
    Snapshot { scripts },
    Shape(shape),
    Span(a, b),
    Idle
});

/// Every field optional: a document decodes or not on its syntax alone.
#[derive(Debug, Clone, PartialEq)]
struct Lenient {
    a: Option<u32>,
}
json_struct!(Lenient { a });

fn arb_string(rng: &mut XorShift) -> String {
    match arb_json(rng, 0) {
        Json::Str(s) => s,
        other => to_string(&other),
    }
}

fn arb_inner(rng: &mut XorShift) -> Inner {
    Inner {
        label: arb_string(rng),
        weight: (rng.below(2_000_001) as f64 - 1_000_000.0) / (1 + rng.below(999)) as f64,
    }
}

fn arb_shape(rng: &mut XorShift) -> Shape {
    match rng.below(4) {
        0 => Shape::Unit,
        1 => Shape::Newtype(rng.next() as u32),
        2 => Shape::Pair(rng.next() as u32, rng.below(10) as u32),
        _ => Shape::Fields {
            x: rng.below(1000) as f64 / 8.0,
            y: -(rng.below(1000) as f64) / 3.0,
        },
    }
}

fn arb_script(rng: &mut XorShift) -> Script {
    Script {
        id: rng.next(),
        name: arb_string(rng),
        parent: (rng.below(2) == 0).then(|| rng.below(100)),
        stages: (0..rng.below(3))
            .map(|_| (0..rng.below(3)).map(|_| arb_inner(rng)).collect())
            .collect(),
        done: rng.below(1000) as usize,
        terminal: match rng.below(3) {
            0 => None,
            1 => Some(Terminal::Completed(arb_json(rng, 2))),
            _ => Some(Terminal::Aborted(arb_string(rng))),
        },
    }
}

fn arb_record(rng: &mut XorShift) -> Record {
    match rng.below(7) {
        0 => Record::Begin {
            version: rng.below(9) as u32,
            label: arb_string(rng),
        },
        1 => Record::Submitted {
            pipeline: rng.next(),
            tasks: (0..rng.below(4)).map(|_| arb_inner(rng)).collect(),
        },
        2 => Record::Poisoned {
            pipeline: rng.below(50),
            task: rng.next(),
            nodes: rng.below(9) as u32,
        },
        3 => Record::Snapshot {
            scripts: (0..rng.below(4)).map(|_| arb_script(rng)).collect(),
        },
        4 => Record::Shape(arb_shape(rng)),
        5 => Record::Span(
            -(rng.below(1 << 40) as i64),
            rng.below(1 << 20) as f32 / 4.0,
        ),
        _ => Record::Idle,
    }
}

/// Both routes on one text: equal values, or both refuse.
fn assert_routes_agree<T>(text: &str) -> Option<T>
where
    T: FromJson + FromJsonBuf + PartialEq + std::fmt::Debug,
{
    let pull = read_json::<T>(text);
    let tree = from_str::<T>(text);
    match (pull, tree) {
        (Ok(pull), Ok(tree)) => {
            assert_eq!(pull, tree, "routes decode different values from {text}");
            Some(pull)
        }
        (Err(_), Err(_)) => None,
        (pull, tree) => panic!("routes disagree on {text}\n pull: {pull:?}\n tree: {tree:?}"),
    }
}

/// Rewrite a tree the way a hand or a different writer might: reorder,
/// drop, duplicate and add object keys, swap a subtree for anything.
fn mutate(rng: &mut XorShift, v: &mut Json) {
    match v {
        Json::Object(fields) => {
            match rng.below(6) {
                0 if fields.len() > 1 => {
                    let (i, j) = (
                        rng.below(fields.len() as u64),
                        rng.below(fields.len() as u64),
                    );
                    fields.swap(i as usize, j as usize);
                }
                1 if !fields.is_empty() => {
                    fields.remove(rng.below(fields.len() as u64) as usize);
                }
                2 if !fields.is_empty() => {
                    let key = fields[rng.below(fields.len() as u64) as usize].0.clone();
                    let at = rng.below(fields.len() as u64 + 1) as usize;
                    fields.insert(at, (key, arb_json(rng, 1)));
                }
                3 => {
                    let at = rng.below(fields.len() as u64 + 1) as usize;
                    fields.insert(at, (arb_string(rng), arb_json(rng, 2)));
                }
                _ => {}
            }
            if !fields.is_empty() {
                let i = rng.below(fields.len() as u64) as usize;
                mutate(rng, &mut fields[i].1);
            }
        }
        Json::Array(items) if !items.is_empty() && rng.below(4) != 0 => {
            let i = rng.below(items.len() as u64) as usize;
            mutate(rng, &mut items[i]);
        }
        other => {
            if rng.below(3) == 0 {
                *other = arb_json(rng, 1);
            }
        }
    }
}

#[test]
fn pull_route_and_tree_route_agree() {
    let mut rng = XorShift(0x0DEC_0DE5_EED5_2222);
    for case in 0..400u32 {
        // What the writers emit decodes back to the value, on both routes,
        // compact or pretty.
        let record = arb_record(&mut rng);
        let script = arb_script(&mut rng);
        for text in [to_string(&record), to_string_pretty(&Json::of(&record))] {
            assert_eq!(
                assert_routes_agree::<Record>(&text),
                Some(record.clone()),
                "case {case}"
            );
        }
        for text in [to_string(&script), to_string_pretty(&Json::of(&script))] {
            assert_eq!(
                assert_routes_agree::<Script>(&text),
                Some(script.clone()),
                "case {case}"
            );
        }
        // Anything else either decodes to one value or is refused by both.
        let mut tree = Json::of(&record);
        for _ in 0..1 + rng.below(3) {
            mutate(&mut rng, &mut tree);
        }
        assert_routes_agree::<Record>(&to_string(&tree));
        let mut tree = Json::of(&script);
        mutate(&mut rng, &mut tree);
        assert_routes_agree::<Script>(&to_string_pretty(&tree));
        // Arbitrary documents against every std impl.
        let text = to_string(&arb_json(&mut rng, 3));
        assert_eq!(
            assert_routes_agree::<Json>(&text),
            Some(parse(&text).unwrap())
        );
        assert_routes_agree::<Record>(&text);
        assert_routes_agree::<Lenient>(&text);
        assert_routes_agree::<Vec<Option<f64>>>(&text);
        assert_routes_agree::<Vec<i64>>(&text);
        assert_routes_agree::<Option<bool>>(&text);
        assert_routes_agree::<(u8, String)>(&text);
        assert_routes_agree::<[i16; 2]>(&text);
        assert_routes_agree::<char>(&text);
        assert_routes_agree::<BTreeMap<String, Json>>(&text);
        assert_routes_agree::<std::collections::HashMap<String, Option<u64>>>(&text);
    }
}

#[test]
fn both_routes_refuse_the_malformed_corpus() {
    for bad in MALFORMED {
        assert_eq!(assert_routes_agree::<Json>(bad), None, "{bad:?}");
        assert_eq!(assert_routes_agree::<Lenient>(bad), None, "{bad:?}");
        assert_eq!(assert_routes_agree::<Vec<u64>>(bad), None, "{bad:?}");
        assert_eq!(assert_routes_agree::<Option<bool>>(bad), None, "{bad:?}");
        assert_eq!(assert_routes_agree::<String>(bad), None, "{bad:?}");
        // Under a key no field claims, where the pull route only skips.
        let skipped = format!("{{\"unclaimed\":{bad}}}");
        assert_eq!(
            assert_routes_agree::<Lenient>(&skipped),
            None,
            "{skipped:?}"
        );
        let after = format!("{{\"a\":1,\"a\":{bad}}}");
        assert_eq!(assert_routes_agree::<Lenient>(&after), None, "{after:?}");
    }
}

#[test]
fn struct_decode_takes_keys_in_any_order_and_ignores_the_rest() {
    let want = Outer {
        id: 7,
        inner: Inner {
            label: "pdz".into(),
            weight: 0.25,
        },
        tags: vec!["a".into()],
        maybe: Some(3),
    };
    for text in [
        // Declaration order, as written.
        r#"{"id":7,"inner":{"label":"pdz","weight":0.25},"tags":["a"],"maybe":3}"#,
        // Reordered, at both levels.
        r#"{"maybe":3,"tags":["a"],"inner":{"weight":0.25,"label":"pdz"},"id":7}"#,
        // Unknown keys of every shape are skipped.
        r#"{"v":2,"id":7,"x":[1,{"y":null}],"inner":{"label":"pdz","z":"\n","weight":0.25},"tags":["a"],"maybe":3,"w":{}}"#,
        // Of duplicate keys the first is kept; later ones need not even fit.
        r#"{"id":7,"id":"seven","inner":{"label":"pdz","weight":0.25,"weight":1},"tags":["a"],"tags":[],"maybe":3,"maybe":null}"#,
        // An escape inside a key still names the field.
        r#"{"\u0069d":7,"in\u006eer":{"label":"pdz","weight":0.25},"tags":["a"],"maybe":3}"#,
    ] {
        assert_eq!(
            assert_routes_agree::<Outer>(text),
            Some(want.clone()),
            "{text}"
        );
    }
    // A missing `Option` field reads as `None`; a missing required field
    // is refused, and the error names it.
    let trimmed = r#"{"tags":["a"],"inner":{"label":"pdz","weight":0.25},"id":7}"#;
    let without = Outer {
        maybe: None,
        ..want
    };
    assert_eq!(assert_routes_agree::<Outer>(trimmed), Some(without));
    assert_eq!(assert_routes_agree::<Outer>(r#"{"id":7,"tags":[]}"#), None);
    let err = read_json::<Outer>(r#"{"id":7,"tags":[]}"#).unwrap_err();
    assert!(err.to_string().contains("inner"), "{err}");
    let err = read_json::<Outer>(r#"{"id":"not a number"}"#).unwrap_err();
    assert!(err.to_string().contains("id"), "{err}");
}

#[test]
fn enum_decode_dispatches_on_the_first_key_that_names_a_variant() {
    for (text, want) in [
        (r#"{"Newtype":3}"#, Some(Shape::Newtype(3))),
        (
            r#"{"later":[1],"Newtype":3,"more":{}}"#,
            Some(Shape::Newtype(3)),
        ),
        // Text order decides, not declaration order; the rest is ignored.
        (r#"{"Pair":[1,2],"Newtype":"x"}"#, Some(Shape::Pair(1, 2))),
        (r#"{"Newtype":3,"Newtype":4}"#, Some(Shape::Newtype(3))),
        // A tuple payload may run long, never short.
        (r#"{"Pair":[1,2,"extra"]}"#, Some(Shape::Pair(1, 2))),
        (r#"{"Pair":[1]}"#, None),
        (r#"{"Pair":{"a":1,"b":2}}"#, None),
        (
            r#"{"Fields":{"y":2.0,"skip":[],"x":1.0}}"#,
            Some(Shape::Fields { x: 1.0, y: 2.0 }),
        ),
        // A unit variant is a string and only a string.
        (r#""Unit""#, Some(Shape::Unit)),
        (r#""\u0055nit""#, Some(Shape::Unit)),
        (r#"{"Unit":null}"#, None),
        (r#""Newtype""#, None),
        (r#"{}"#, None),
        (r#"7"#, None),
    ] {
        assert_eq!(assert_routes_agree::<Shape>(text), want, "{text}");
    }
}

#[test]
fn escapes_and_surrogate_pairs_decode_in_keys_and_values() {
    let text = r#"{"\ud834\udd1e":"a\tb","plain µ":"\ud83d\ude00 \"q\" \\ \/","":"\u0000"}"#;
    let want: BTreeMap<String, String> = [
        ("\u{1D11E}", "a\tb"),
        ("plain µ", "\u{1F600} \"q\" \\ /"),
        ("", "\u{0}"),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    assert_eq!(
        assert_routes_agree::<BTreeMap<String, String>>(text),
        Some(want)
    );
    // A broken pair is refused wherever it sits, claimed or skipped.
    for bad in [
        r#"{"\ud834":1}"#,
        r#"{"k":"\udd1e"}"#,
        r#"{"a":1,"\ud834x":2}"#,
    ] {
        assert_eq!(
            assert_routes_agree::<BTreeMap<String, Json>>(bad),
            None,
            "{bad}"
        );
        assert_eq!(assert_routes_agree::<Lenient>(bad), None, "{bad}");
    }
}

#[test]
fn the_depth_cap_holds_on_the_pull_route() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    // Straddle the cap: wherever the tree builder gives up, so do a typed
    // decode and a skip.
    let mut refused = 0;
    for depth in 120..140 {
        let doc = nest(depth);
        let as_tree = assert_routes_agree::<Json>(&doc).is_some();
        let skipped = format!("{{\"unclaimed\":{doc}}}");
        let held = format!("{{\"Completed\":{doc}}}");
        assert_eq!(
            assert_routes_agree::<Lenient>(&skipped).is_some(),
            parse(&skipped).is_ok()
        );
        assert_eq!(
            assert_routes_agree::<Terminal>(&held).is_some(),
            parse(&held).is_ok()
        );
        refused += usize::from(!as_tree);
    }
    assert!(
        (1..20).contains(&refused),
        "the cap sits inside the range probed"
    );
    let err = read_json::<Lenient>(&format!("{{\"unclaimed\":{}}}", nest(500))).unwrap_err();
    assert!(err.to_string().contains("nesting too deep"), "{err}");
}
