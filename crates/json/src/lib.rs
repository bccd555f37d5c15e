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
//! * [`to_string`] / [`to_string_pretty`] — compact and 2-space-indented
//!   serializers.
//! * [`ToJson`] / [`FromJson`] — conversion traits; the [`json_struct!`] and
//!   [`json_enum!`] macros generate the short hand-written impls that replace
//!   `#[derive(Serialize, Deserialize)]`.
//! * [`ToJsonBuf`] / [`write_json`] — the zero-alloc fast path: serialize
//!   straight into a reused buffer, skipping the `Json` tree, with bytes
//!   identical to `to_string(&value.to_json())` (the macros generate these
//!   impls too).
//! * [`FromJsonBuf`] / [`read_json`] — its read-side mirror: decode a typed
//!   value straight off the [`Parser`] cursor, skipping the `Json` tree,
//!   with the value `T::from_json(&parse(text)?)` would give (the macros
//!   generate these impls too; `parse` is the `Json` impl).
//!
//! Enum representation matches serde's externally-tagged default:
//! unit variants are strings (`"Fifo"`), newtype variants are
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
pub use convert::{from_field, from_str, FromJson, ToJson};
pub use de::{parse, read_json, FromJsonBuf, Parser, Seq};
pub use ser::{to_string, to_string_pretty};
pub use value::{Json, JsonError, Number, ObjBuilder};
