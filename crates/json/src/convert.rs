//! The tree-reading conversion trait, `FromJson`, and its impls for std
//! types. The write side has no tree route: a value becomes JSON text only
//! through [`ToJsonBuf`](crate::ToJsonBuf).

use crate::value::{Json, JsonError};
use std::collections::{BTreeMap, HashMap};

/// Conversion out of a [`Json`] tree (the replacement for
/// `serde::Deserialize`).
pub trait FromJson: Sized {
    /// Extract `Self`, reporting a descriptive error on shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Parse text and convert in one step (the `serde_json::from_str` analog).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&crate::parse(text)?)
}

/// Extract a typed field from an object node. Missing keys read as `null`,
/// which lets `Option<T>` fields default to `None`.
pub fn from_field<T: FromJson>(v: &Json, key: &str) -> Result<T, JsonError> {
    match v {
        Json::Object(_) => {
            T::from_json(v.get(key).unwrap_or(&Json::Null)).map_err(|e| e.in_field(key))
        }
        other => Err(JsonError::msg(format!(
            "expected object with field `{key}`, got {}",
            other.type_name()
        ))),
    }
}

fn type_err<T>(expected: &str, got: &Json) -> Result<T, JsonError> {
    Err(JsonError::msg(format!(
        "expected {expected}, got {}",
        got.type_name()
    )))
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().map_or_else(|| type_err("bool", v), Ok)
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map_or_else(|| type_err("string", v), |s| Ok(s.to_string()))
    }
}

impl FromJson for char {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str() {
            Some(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            _ => type_err("single-character string", v),
        }
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v.as_u64().map(<$ty>::try_from) {
                    Some(Ok(n)) => Ok(n),
                    _ => type_err(concat!(stringify!($ty), " integer"), v),
                }
            }
        }
    )+};
}
impl_json_uint!(u8, u16, u32, u64);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {$(
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(n) => match n.as_i64().map(<$ty>::try_from) {
                        Some(Ok(x)) => Ok(x),
                        _ => type_err(concat!(stringify!($ty), " integer"), v),
                    },
                    _ => type_err("integer", v),
                }
            }
        }
    )+};
}
impl_json_int!(i8, i16, i32, i64);

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_u64().map(usize::try_from) {
            Some(Ok(n)) => Ok(n),
            _ => type_err("usize integer", v),
        }
    }
}

impl FromJson for isize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        i64::from_json(v)
            .and_then(|i| isize::try_from(i).map_err(|_| JsonError::msg("isize out of range")))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().map_or_else(|| type_err("number", v), Ok)
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some(items) => items.iter().map(T::from_json).collect(),
            None => type_err("array", v),
        }
    }
}

impl<T: FromJson + std::fmt::Debug, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = Vec::<T>::from_json(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| JsonError::msg(format!("expected array of length {N}, got {n}")))
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => type_err("2-element array", v),
        }
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_object() {
            Some(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v).map_err(|e| e.in_field(k))?)))
                .collect(),
            None => type_err("object", v),
        }
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_object() {
            Some(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v).map_err(|e| e.in_field(k))?)))
                .collect(),
            None => type_err("object", v),
        }
    }
}
