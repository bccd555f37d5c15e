//! # impress-json
//!
//! A zero-dependency JSON library for the IMPRESS reproduction's hermetic
//! build. The workspace must compile and test on machines with **no package
//! registry access** (leadership-class HPC login nodes, air-gapped CI), so
//! `serde`/`serde_json` are replaced by this small, fully in-repo stack:
//!
//! * [`Json`] — a tagged value enum; objects preserve insertion order, so
//!   serialization is byte-stable across runs.
//! * [`Number`] — exact `u64`/`i64` integers plus `f64`, mirroring
//!   `serde_json`'s arithmetic model so existing artifacts round-trip.
//! * [`parse`] — a recursive-descent parser with precise error offsets.
//! * [`ToJsonBuf`] / [`write_json`] — the one serializer: a value writes its
//!   compact text straight into a reused buffer. [`to_string`] is that
//!   writer into a fresh `String`; [`to_string_pretty`] lays out a `Json`
//!   tree with 2-space indentation; [`Json::of`] is a value's tree, where a
//!   document is assembled as one.
//! * [`FromJson`] / [`from_str`] — decode a typed value out of a `Json`
//!   tree.
//! * [`FromJsonBuf`] / [`read_json`] — decode a typed value straight off
//!   the [`Parser`] cursor, skipping the tree, with the value
//!   `T::from_json(&parse(text)?)` would give (`parse` is the `Json` impl).
//! * [`RawJson`] — a value kept as the compact text it was written as.
//!
//! The [`json_struct!`] and [`json_enum!`] macros generate the
//! `ToJsonBuf`, `FromJson` and `FromJsonBuf` impls that replace
//! `#[derive(Serialize, Deserialize)]`.
//!
//! Enum representation matches serde's externally-tagged default:
//! unit variants are strings (`"Fast"`), newtype variants are
//! `{"Variant": value}`, tuple variants are `{"Variant": [..]}` and struct
//! variants are `{"Variant": {..}}` — so JSON written by earlier builds of
//! this workspace parses unchanged.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod buf;
mod convert;
mod de;
mod ser;
mod value;

#[macro_use]
mod macros;

pub use buf::{write_json, ToJsonBuf};
pub use convert::{from_field, from_str, FromJson};
pub use de::{parse, read_json, FromJsonBuf, Parser, Seq};
pub use ser::{to_string, to_string_pretty};
pub use value::{Json, JsonError, Number, ObjBuilder, RawJson};
