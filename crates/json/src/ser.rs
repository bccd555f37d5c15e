//! Serialization: compact and pretty (2-space indent, `serde_json` style).
//!
//! Compact text has one writer, [`ToJsonBuf`](crate::ToJsonBuf); the number
//! and string writers live in [`crate::buf`]. Pretty text is a layout of a
//! [`Json`] tree, written with those same number and string writers.

use crate::buf::{write_escaped, write_number};
use crate::value::Json;
use crate::ToJsonBuf;

/// Serialize compactly into a fresh `String`: `{"k":1,"v":[true,null]}`.
pub fn to_string(value: &impl ToJsonBuf) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Serialize a tree with 2-space indentation, matching the layout of the
/// checked-in `fig*.json` / `table1.json` artifacts.
pub fn to_string_pretty(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(0));
    out
}

/// `indent = None` → compact; `Some(depth)` → pretty at that nesting depth.
pub(crate) fn write_value(out: &mut String, value: &Json, indent: Option<usize>) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_escaped(out, s),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                open_line(out, indent);
                write_value(out, item, indent.map(|d| d + 1));
            }
            close_line(out, indent);
            out.push(']');
        }
        Json::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                open_line(out, indent);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent.map(|d| d + 1));
            }
            close_line(out, indent);
            out.push('}');
        }
    }
}

fn open_line(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..=depth {
            out.push_str("  ");
        }
    }
}

fn close_line(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}
