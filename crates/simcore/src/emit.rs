//! The one writer for result files: a JSON value tree ([`Json`]) and a CSV
//! row writer ([`csv_row`]), so string escaping, the float format and the
//! line layout have one definition (the offline build has no `serde_json`).
//!
//! Result bytes are pinned — same seed, byte-identical files — so the
//! layout is part of the format: the document's top-level array/object
//! puts one child per line; a nested one whose children are all scalars
//! stays on one line (`{ "p50": 1, "max": 2 }`, `["a", "b"]`), otherwise —
//! or when it is empty — it too puts one child per line, two spaces per
//! level. Object keys keep insertion order.

use std::fmt::{Display, Write as _};

/// Appends `s` as the inside of a JSON string literal: `"`, `\` and every
/// character below 0x20 are escaped.
pub fn escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends `v` as a JSON number: Rust's `Display` (shortest round-trip
/// digits, no exponent) when finite, `null` otherwise — JSON has no `NaN`.
pub fn number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A JSON value; an object is an ordered key/value list.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered exactly.
    Int(i128),
    /// A float, rendered by [`number`].
    Float(f64),
    /// A string, rendered through [`escape`].
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in insertion order.
    Object(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
json_from!(u32 => Int, u64 => Int, f64 => Float, &str => Str, String => Str);

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to a value.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// Renders the value as a document under the module's layout rule,
    /// ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let items: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => return out.push_str(&i.to_string()),
            Json::Float(v) => return number(out, *v),
            Json::Str(s) => return string(out, s),
            Json::Array(a) => a.iter().map(|v| (None, v)).collect(),
            Json::Object(o) => o.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (brackets, pad) =
            if matches!(self, Json::Array(_)) { (['[', ']'], "") } else { (['{', '}'], " ") };
        let inline = depth > 0
            && !items.is_empty()
            && items.iter().all(|(_, v)| !matches!(v, Json::Array(_) | Json::Object(_)));
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        };
        out.push(brackets[0]);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if !inline {
                newline(out, depth + 1);
            } else {
                out.push_str(if i == 0 { pad } else { " " });
            }
            if let Some(key) = key {
                string(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if inline {
            out.push_str(pad);
        } else {
            newline(out, depth);
        }
        out.push(brackets[1]);
    }
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    escape(out, s);
    out.push('"');
}

/// Appends one CSV record (RFC-4180 quoting, `\n` line end): a field is
/// wrapped in `"`, inner `"` doubled, only when it holds a comma, a quote
/// or a line break, so plain fields stay bare. Mixed-type rows pass
/// `[&a as &dyn Display, &b, ..]`.
pub fn csv_row<T: Display>(out: &mut String, fields: impl IntoIterator<Item = T>) {
    for (i, field) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let start = out.len();
        let _ = write!(out, "{field}");
        if out[start..].contains([',', '"', '\n', '\r']) {
            let quoted = format!("\"{}\"", out[start..].replace('"', "\"\""));
            out.replace_range(start.., &quoted);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_top_level_is_multiline_and_scalar_containers_stay_inline() {
        let doc = Json::object([
            ("name", Json::from("slo")),
            ("jobs", Json::from(6u64)),
            ("wait", Json::object([("p50", Json::from(1.5)), ("max", Json::from(2.0))])),
            ("cols", Json::array(["a", "b"])),
            ("records", Json::Array(vec![Json::object([("y", Json::Null)]), Json::Bool(true)])),
            ("deep", Json::object([("rows", Json::Array(vec![Json::array([1u32, 2])]))])),
            ("none", Json::Array(Vec::new())),
        ]);
        let want = r#"{
  "name": "slo",
  "jobs": 6,
  "wait": { "p50": 1.5, "max": 2 },
  "cols": ["a", "b"],
  "records": [
    { "y": null },
    true
  ],
  "deep": {
    "rows": [
      [1, 2]
    ]
  },
  "none": [
  ]
}
"#;
        assert_eq!(doc.render(), want);
        // The top level never collapses onto one line, scalars or not.
        assert_eq!(Json::array([1u32, 2]).render(), "[\n  1,\n  2\n]\n");
        assert_eq!(Json::Object(Vec::new()).render(), "{\n}\n");
        assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615\n");
    }

    #[test]
    fn escape_covers_quote_backslash_and_every_control_character() {
        let mut out = String::new();
        escape(&mut out, "a\"b\\c\n\t\r\u{1f} é");
        assert_eq!(out, r#"a\"b\\c\n\t\u000d\u001f é"#);
        for c in (0u8..0x20).map(char::from) {
            let mut out = String::new();
            escape(&mut out, c.encode_utf8(&mut [0; 4]));
            assert!(out.starts_with('\\') && out.len() > 1, "{c:?} left raw: {out:?}");
        }
        // Keys go through the same rule as values.
        let doc = Json::object([("k\"\n", Json::from("v\\"))]);
        assert_eq!(doc.render(), "{\n  \"k\\\"\\n\": \"v\\\\\"\n}\n");
    }

    #[test]
    fn floats_use_display_and_non_finite_is_null() {
        let floats = [1.0, -0.0, 0.1 + 0.2, 1e21, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let doc = Json::object([("v", Json::array(floats))]);
        let want = "{\n  \"v\": [1, -0, 0.30000000000000004, 1000000000000000000000, \
                    null, null, null]\n}\n";
        assert_eq!(doc.render(), want);
    }

    #[test]
    fn csv_quotes_only_fields_that_need_it() {
        let mut out = String::new();
        csv_row(&mut out, ["series", "HSph@SF (GB/h)", "x y"]);
        csv_row(&mut out, [&"colocated/total_s" as &dyn Display, &1.0, &0.25, &f64::NAN]);
        csv_row(&mut out, ["a,b", "say \"hi\"", "two\nlines", ""]);
        csv_row(&mut out, [0u8; 0]);
        assert_eq!(
            out,
            "series,HSph@SF (GB/h),x y\n\
             colocated/total_s,1,0.25,NaN\n\
             \"a,b\",\"say \"\"hi\"\"\",\"two\nlines\",\n\
             \n"
        );
    }
}
