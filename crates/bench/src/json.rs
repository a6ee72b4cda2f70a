//! The one JSON writer behind every `BENCH_<name>.json` document.
//!
//! Values render eagerly into strings, so a document is built bottom-up:
//! `Json::doc([("rows", Json::arr(..)), ("n", n.into())])`. Objects sit
//! on one line, arrays put one element per line, and a document puts one
//! top-level field per line.

use mr_obs::export::json_escape;

/// A rendered JSON value.
pub struct Json(String);

impl Json {
    /// An object with `fields` in order, on one line.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json(format!("{{{}}}", join(fields, ", ")))
    }

    /// A newline-terminated top-level object, one field per line.
    pub fn doc<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> String {
        format!("{{\n  {}\n}}\n", join(fields, ",\n  "))
    }

    /// An array, one element per line.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        let items: Vec<String> = items.into_iter().map(|j| j.0).collect();
        if items.is_empty() {
            return Json("[]".into());
        }
        Json(format!("[\n    {}\n  ]", items.join(",\n    ")))
    }

    /// A string literal.
    pub fn str(s: &str) -> Json {
        Json(format!("\"{}\"", json_escape(s)))
    }

    /// `x` with exactly `decimals` digits after the point.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json(format!("{x:.decimals$}"))
    }

    /// An already-rendered JSON export, minus its trailing newline.
    pub fn raw(s: &str) -> Json {
        Json(s.trim_end().to_string())
    }
}

fn join<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>, sep: &str) -> String {
    fields
        .into_iter()
        .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v.0))
        .collect::<Vec<_>>()
        .join(sep)
}

macro_rules! from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json(v.to_string())
            }
        }
    )*};
}
from_display!(u32, u64, usize, i64, bool);

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::doc([
            ("name", Json::str("a\"b")),
            ("x", Json::fixed(1.0 / 3.0, 3)),
            ("ok", true.into()),
            ("rows", Json::arr([Json::obj([("n", 1u64.into())])])),
            ("none", Json::arr([])),
            ("raw", Json::raw("[1, 2]\n")),
        ]);
        assert_eq!(
            doc,
            "{\n  \"name\": \"a\\\"b\",\n  \"x\": 0.333,\n  \"ok\": true,\n  \
             \"rows\": [\n    {\"n\": 1}\n  ],\n  \"none\": [],\n  \"raw\": [1, 2]\n}\n"
        );
    }
}
