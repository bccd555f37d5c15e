//! Declarative replacements for `#[derive(Serialize, Deserialize)]`.
//!
//! Each former derive site becomes a one-line macro invocation listing the
//! fields (or variants) next to the type definition:
//!
//! ```
//! use impress_json::{json_enum, json_struct};
//!
//! pub struct Summary { pub n: usize, pub mean: f64 }
//! json_struct!(Summary { n, mean });
//!
//! pub struct Micros(u64);
//! json_struct!(Micros(u64));
//!
//! pub enum Mode { Fast, Exact }
//! json_enum!(Mode { Fast, Exact });
//! ```
//!
//! Each invocation generates one writer, `ToJsonBuf`, and two readers,
//! `FromJson` and `FromJsonBuf`. The generated representation matches what
//! serde's default derive produced for the same types, so artifacts written
//! by pre-hermetic builds still parse: structs are objects keyed by field
//! name (declaration order), newtype structs are transparent, and enums are
//! externally tagged.

/// Implement the writer [`ToJsonBuf`](crate::ToJsonBuf) and the readers
/// [`FromJson`](crate::FromJson) (from a tree) and
/// [`FromJsonBuf`](crate::FromJsonBuf) (off the parser) for a struct with
/// named fields, or transparently for a newtype struct.
///
/// Missing keys on input read as `null`, so `Option<T>` fields tolerate
/// older artifacts that omitted them.
#[macro_export]
macro_rules! json_struct {
    // Internal: read an object at `$p` into `$ctor { fields }` — keys in any
    // order, unknown keys skipped, the first of duplicate keys kept.
    (@read $p:ident, $($ctor:ident)::+ { $($field:ident),+ }) => {{
        $( let mut $field = None; )+
        let mut members = $p.begin_object()?;
        while members.next($p)? {
            let key = $p.key()?;
            $(
                if $field.is_none() && key == stringify!($field) {
                    $field = Some(
                        $crate::FromJsonBuf::from_json_buf($p)
                            .map_err(|e| e.in_field(stringify!($field)))?,
                    );
                    continue;
                }
            )+
            $p.skip_value()?;
        }
        $($ctor)::+ {
            $( $field: match $field {
                Some(value) => value,
                None => $p.missing_field(stringify!($field))?,
            } ),+
        }
    }};
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJsonBuf for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                out.push('{');
                let mut _first = true;
                $(
                    if !::std::mem::take(&mut _first) {
                        out.push(',');
                    }
                    out.push_str(concat!("\"", stringify!($field), "\":"));
                    $crate::ToJsonBuf::write_json(&self.$field, out);
                )+
                out.push('}');
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok($ty {
                    $( $field: $crate::from_field(v, stringify!($field))? ),+
                })
            }
        }
        impl $crate::FromJsonBuf for $ty {
            fn from_json_buf(p: &mut $crate::Parser<'_>) -> Result<Self, $crate::JsonError> {
                Ok($crate::json_struct!(@read p, $ty { $($field),+ }))
            }
        }
    };
    ($ty:ident ( $inner:ty )) => {
        impl $crate::ToJsonBuf for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                $crate::ToJsonBuf::write_json(&self.0, out);
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok($ty(<$inner as $crate::FromJson>::from_json(v)?))
            }
        }
        impl $crate::FromJsonBuf for $ty {
            fn from_json_buf(p: &mut $crate::Parser<'_>) -> Result<Self, $crate::JsonError> {
                Ok($ty(<$inner as $crate::FromJsonBuf>::from_json_buf(p)?))
            }
        }
    };
}

/// Implement the writer [`ToJsonBuf`](crate::ToJsonBuf) and the readers
/// [`FromJson`](crate::FromJson) (from a tree) and
/// [`FromJsonBuf`](crate::FromJsonBuf) (off the parser) for an enum, using
/// serde's externally-tagged representation.
///
/// Unit variants serialize as `"Name"`; newtype variants as
/// `{"Name": value}`; tuple variants as `{"Name": [..]}`; struct variants as
/// `{"Name": {..}}`. Variant shapes may be mixed freely in one invocation.
/// On input the first key that names a payload variant decides; any other
/// key of the object is ignored.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $( $var:ident $( ( $($tf:ident),+ ) )? $( { $($sf:ident),+ } )? ),+ $(,)? }) => {
        impl $crate::ToJsonBuf for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                match self {
                    $( $crate::json_enum!(@pat $ty $var $(( $($tf),+ ))? $({ $($sf),+ })?) =>
                        { $crate::json_enum!(@tobuf out $var $(( $($tf),+ ))? $({ $($sf),+ })?); } )+
                }
            }
        }
        impl $crate::FromJson for $ty {
            #[allow(unused_variables)]
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                match v {
                    $crate::Json::Str(tag) => {
                        let tag = tag.as_str();
                        $( $crate::json_enum!(@tag $ty tag $var $(( $($tf),+ ))? $({ $($sf),+ })?); )+
                    }
                    $crate::Json::Object(members) => {
                        for (tag, inner) in members {
                            let tag = tag.as_str();
                            $( $crate::json_enum!(@from $ty tag inner $var $(( $($tf),+ ))? $({ $($sf),+ })?); )+
                        }
                    }
                    _ => {}
                }
                Err($crate::JsonError::msg(format!(
                    concat!("no variant of ", stringify!($ty), " matches this {}"),
                    v.type_name()
                )))
            }
        }
        impl $crate::FromJsonBuf for $ty {
            #[allow(unused_variables)]
            fn from_json_buf(p: &mut $crate::Parser<'_>) -> Result<Self, $crate::JsonError> {
                let at = p.pos();
                let no_variant = |got: &str| {
                    $crate::JsonError::at(
                        format!(concat!("no variant of ", stringify!($ty), " matches this {}"), got),
                        at,
                    )
                };
                if p.peek() == Some(b'"') {
                    let tag = p.str_token()?;
                    let tag: &str = &tag;
                    $( $crate::json_enum!(@tag $ty tag $var $(( $($tf),+ ))? $({ $($sf),+ })?); )+
                    return Err(no_variant("string"));
                }
                let mut found: Option<Self> = None;
                let mut members = p.begin_object()?;
                while members.next(p)? {
                    let tag = p.key()?;
                    let tag: &str = &tag;
                    if found.is_none() {
                        $( $crate::json_enum!(@frombuf $ty p tag found $var $(( $($tf),+ ))? $({ $($sf),+ })?); )+
                    }
                    p.skip_value()?;
                }
                found.ok_or_else(|| no_variant("object"))
            }
        }
    };

    (@pat $ty:ident $var:ident) => { $ty::$var };
    (@pat $ty:ident $var:ident ( $($tf:ident),+ )) => { $ty::$var( $($tf),+ ) };
    (@pat $ty:ident $var:ident { $($sf:ident),+ }) => { $ty::$var { $($sf),+ } };

    (@tobuf $out:ident $var:ident) => {
        $out.push_str(concat!("\"", stringify!($var), "\""))
    };
    (@tobuf $out:ident $var:ident ( $single:ident )) => {{
        $out.push_str(concat!("{\"", stringify!($var), "\":"));
        $crate::ToJsonBuf::write_json($single, $out);
        $out.push('}');
    }};
    (@tobuf $out:ident $var:ident ( $($tf:ident),+ )) => {{
        $out.push_str(concat!("{\"", stringify!($var), "\":["));
        let mut _first = true;
        $(
            if !::std::mem::take(&mut _first) {
                $out.push(',');
            }
            $crate::ToJsonBuf::write_json($tf, $out);
        )+
        $out.push_str("]}");
    }};
    (@tobuf $out:ident $var:ident { $($sf:ident),+ }) => {{
        $out.push_str(concat!("{\"", stringify!($var), "\":{"));
        let mut _first = true;
        $(
            if !::std::mem::take(&mut _first) {
                $out.push(',');
            }
            $out.push_str(concat!("\"", stringify!($sf), "\":"));
            $crate::ToJsonBuf::write_json($sf, $out);
        )+
        $out.push_str("}}");
    }};

    // A string tag names a unit variant; payload variants never match one.
    (@tag $ty:ident $tag:ident $var:ident) => {
        if $tag == stringify!($var) {
            return Ok($ty::$var);
        }
    };
    (@tag $ty:ident $tag:ident $var:ident ( $($tf:ident),+ )) => {};
    (@tag $ty:ident $tag:ident $var:ident { $($sf:ident),+ }) => {};

    // An object key names a payload variant; unit variants never match one.
    (@from $ty:ident $tag:ident $inner:ident $var:ident) => {};
    (@from $ty:ident $tag:ident $inner:ident $var:ident ( $single:ident )) => {
        if $tag == stringify!($var) {
            return Ok($ty::$var($crate::FromJson::from_json($inner)
                .map_err(|e| e.in_field(stringify!($var)))?));
        }
    };
    (@from $ty:ident $tag:ident $inner:ident $var:ident ( $($tf:ident),+ )) => {
        if $tag == stringify!($var) {
            let items = $inner.as_array().ok_or_else(|| {
                $crate::JsonError::msg(concat!(
                    "expected array payload for tuple variant ",
                    stringify!($var)
                ))
            })?;
            let mut it = items.iter();
            $( let $tf = $crate::FromJson::from_json(it.next().ok_or_else(|| {
                $crate::JsonError::msg(concat!(
                    "tuple variant ", stringify!($var), " payload too short"
                ))
            })?).map_err(|e| e.in_field(stringify!($var)))?; )+
            return Ok($ty::$var( $($tf),+ ));
        }
    };
    (@from $ty:ident $tag:ident $inner:ident $var:ident { $($sf:ident),+ }) => {
        if $tag == stringify!($var) {
            return Ok($ty::$var {
                $( $sf: $crate::from_field($inner, stringify!($sf))? ),+
            });
        }
    };

    (@frombuf $ty:ident $p:ident $tag:ident $found:ident $var:ident) => {};
    (@frombuf $ty:ident $p:ident $tag:ident $found:ident $var:ident ( $single:ident )) => {
        if $tag == stringify!($var) {
            $found = Some($ty::$var($crate::FromJsonBuf::from_json_buf($p)
                .map_err(|e| e.in_field(stringify!($var)))?));
            continue;
        }
    };
    (@frombuf $ty:ident $p:ident $tag:ident $found:ident $var:ident ( $($tf:ident),+ )) => {
        if $tag == stringify!($var) {
            let mut items = $p.begin_array()?;
            $( let $tf = if items.next($p)? {
                $crate::FromJsonBuf::from_json_buf($p).map_err(|e| e.in_field(stringify!($var)))?
            } else {
                return Err($crate::JsonError::at(
                    concat!("tuple variant ", stringify!($var), " payload too short"),
                    $p.pos(),
                ));
            }; )+
            while items.next($p)? {
                $p.skip_value()?;
            }
            $found = Some($ty::$var( $($tf),+ ));
            continue;
        }
    };
    (@frombuf $ty:ident $p:ident $tag:ident $found:ident $var:ident { $($sf:ident),+ }) => {
        if $tag == stringify!($var) {
            $found = Some($crate::json_struct!(@read $p, $ty::$var { $($sf),+ }));
            continue;
        }
    };
}
