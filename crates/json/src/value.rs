//! The JSON value model.

use std::fmt;

/// A JSON number.
///
/// Integers are kept exact (`u64`/`i64`) rather than coerced to `f64`, so
/// values like `SimTime::MAX.as_micros()` survive a round trip. Equality is
/// *numeric*: `Number::U64(1) == Number::F64(1.0)`.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (parsers only produce this for values < 0).
    I64(i64),
    /// A floating-point number. Never NaN/inf (those serialize as `null`).
    F64(f64),
}

impl Number {
    /// The value as an `f64` (lossy for very large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(u) => u as f64,
            Number::I64(i) => i as f64,
            Number::F64(f) => f,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(u) => Some(u),
            Number::I64(i) => u64::try_from(i).ok(),
            Number::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            Number::F64(_) => None,
        }
    }

    /// The value as an `i64`, if it fits.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U64(u) => i64::try_from(u).ok(),
            Number::I64(i) => Some(i),
            Number::F64(f)
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 =>
            {
                Some(f as i64)
            }
            Number::F64(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self, other) {
            (Number::U64(a), Number::U64(b)) => a == b,
            (Number::I64(a), Number::I64(b)) => a == b,
            (Number::U64(a), Number::I64(b)) | (Number::I64(b), Number::U64(a)) => {
                u64::try_from(*b).map(|b| *a == b).unwrap_or(false)
            }
            // At least one side is a float: compare numerically.
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

/// A JSON document node.
///
/// Objects are ordered `(key, value)` pairs: serialization preserves the
/// order keys were inserted in, which keeps emitted artifacts byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with stable (insertion) key order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Start building an object with [`ObjBuilder`].
    pub fn object() -> ObjBuilder {
        ObjBuilder(Vec::new())
    }

    /// Build an array by converting each item with [`crate::ToJson`].
    pub fn array<T: crate::ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(|v| v.to_json()).collect())
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup (`None` for non-arrays / out of range).
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Array(items) => items.get(i),
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

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name for the node's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::ser::json_to_string(self))
    }
}

/// Fluent object construction: `Json::object().field("k", 1).build()`.
#[derive(Debug, Default)]
pub struct ObjBuilder(pub(crate) Vec<(String, Json)>);

impl ObjBuilder {
    /// Append a field, converting the value with [`crate::ToJson`].
    pub fn field(mut self, key: &str, value: impl crate::ToJson) -> Self {
        self.0.push((key.to_string(), value.to_json()));
        self
    }

    /// Finish into a [`Json::Object`].
    pub fn build(self) -> Json {
        Json::Object(self.0)
    }
}

impl From<ObjBuilder> for Json {
    fn from(b: ObjBuilder) -> Json {
        b.build()
    }
}

/// Error produced by parsing or typed extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset in the source text, when the error came from the parser.
    offset: Option<usize>,
}

impl JsonError {
    /// A free-form conversion/extraction error.
    pub fn msg(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    /// A parse error at a byte offset.
    pub fn at(message: impl Into<String>, offset: usize) -> JsonError {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }

    /// Wrap this error with the field it occurred in.
    pub fn in_field(self, key: &str) -> JsonError {
        JsonError {
            message: format!("field `{key}`: {}", self.message),
            offset: self.offset,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(off) => write!(f, "{} (at byte {off})", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}
