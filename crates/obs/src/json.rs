//! The one stable-bytes JSON writer behind every `--json` report and
//! [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json).
//!
//! The repo carries no serialization dependency, and its reports are
//! compared byte for byte across runs and commits, so the layout is
//! part of the contract: two-space indentation, one member per line in
//! a [`Json::Block`] or [`Json::Rows`], `", "`-separated members in a
//! [`Json::Line`] or [`Json::List`], measurements at six decimals. A
//! report builds a [`Json`] tree and renders it once.

use std::fmt::{self, Write};

/// A JSON value with a fixed textual form.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An integer.
    U64(u64),
    /// A measurement: fixed six decimals.
    F64(f64),
    /// An input echoed back: shortest form that round-trips.
    Exact(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A string (escaped on output).
    Str(String),
    /// An object, one member per line (`{}` when empty).
    Block(Vec<(String, Json)>),
    /// An object on one line.
    Line(Vec<(String, Json)>),
    /// An array, one element per line.
    Rows(Vec<Json>),
    /// An array on one line.
    List(Vec<Json>),
}

impl Json {
    /// A [`Json::Block`] of `members`.
    pub fn block<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Block(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A [`Json::Line`] of `members`.
    pub fn line<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Line(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as a whole document: no leading indentation,
    /// one trailing newline.
    pub fn document(&self) -> String {
        let mut out = self.render(0);
        out.push('\n');
        out
    }

    /// Renders the value as it appears after a key on a line indented
    /// by `indent` spaces: nested lines sit two spaces deeper and the
    /// closing bracket at `indent`.
    pub fn render(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, indent).expect("formatting into a String cannot fail");
        out
    }

    fn write(&self, out: &mut String, indent: usize) -> fmt::Result {
        match self {
            Json::U64(v) => write!(out, "{v}"),
            Json::F64(v) => write!(out, "{v:.6}"),
            Json::Exact(v) => write!(out, "{v}"),
            Json::Bool(v) => write!(out, "{v}"),
            Json::Str(s) => write!(out, "\"{}\"", json_escape(s)),
            Json::Block(members) if members.is_empty() => write!(out, "{{}}"),
            Json::Block(members) => lines(out, indent, '{', '}', members, |out, (key, value)| {
                write!(out, "\"{}\": ", json_escape(key))?;
                value.write(out, indent + 2)
            }),
            Json::Rows(items) => {
                lines(out, indent, '[', ']', items, |out, item| item.write(out, indent + 2))
            }
            Json::Line(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    write!(out, "{}\"{}\": ", sep(i), json_escape(key))?;
                    value.write(out, indent)?;
                }
                out.push('}');
                Ok(())
            }
            Json::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(sep(i));
                    item.write(out, indent)?;
                }
                out.push(']');
                Ok(())
            }
        }
    }
}

fn sep(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ", "
    }
}

/// `open`, then each item on its own line two spaces past `indent`,
/// comma-separated, then `close` at `indent`.
fn lines<T>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    items: &[T],
    mut item: impl FnMut(&mut String, &T) -> fmt::Result,
) -> fmt::Result {
    writeln!(out, "{open}")?;
    for (i, it) in items.iter().enumerate() {
        write!(out, "{:width$}", "", width = indent + 2)?;
        item(out, it)?;
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    write!(out, "{:indent$}{close}", "")
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v.into())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_renders_its_fixed_layout() {
        let doc = Json::block([
            ("name", "a \"b\"\n".into()),
            ("scale", Json::Exact(0.02)),
            ("mean", 1.5.into()),
            ("depths", Json::List(vec![1u32.into(), 2u32.into()])),
            ("empty", Json::Block(Vec::new())),
            (
                "rows",
                Json::Rows(vec![
                    Json::line([("qd", 1u32.into()), ("ok", true.into())]),
                    Json::block([("n", 7u64.into())]),
                ]),
            ),
        ]);
        let want =
            "{\n  \"name\": \"a \\\"b\\\"\\n\",\n  \"scale\": 0.02,\n  \"mean\": 1.500000,\n  \
                    \"depths\": [1, 2],\n  \"empty\": {},\n  \"rows\": [\n    \
                    {\"qd\": 1, \"ok\": true},\n    {\n      \"n\": 7\n    }\n  ]\n}\n";
        assert_eq!(doc.document(), want);
        assert_eq!(Json::Rows(Vec::new()).render(2), "[\n  ]");
    }

    #[test]
    fn control_characters_escape_to_their_short_forms() {
        assert_eq!(json_escape("a\tb\r\n\u{1}"), "a\\tb\\r\\n\\u0001");
    }
}
