//! Hand-formatted JSON, like the rest of the workspace (no serde). Objects
//! keep insertion order, so the same run renders the same text.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // `{}` prints the shortest text that reads back as the same
            // f64: every digit measured, no padding.
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_keeps_key_order() {
        let j = Json::obj([
            ("z", Json::str("a\"b\\c\nd\u{1}")),
            (
                "a",
                Json::Arr(vec![Json::Int(3), Json::Num(0.25), Json::Bool(true)]),
            ),
            ("nan", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"z": "a\"b\\c\nd\u0001", "a": [3, 0.25, true], "nan": null}"#
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 1.2034567891234567_f64;
        assert_eq!(Json::Num(x).render().parse::<f64>().unwrap(), x);
        assert_eq!(Json::Num(2.0).render(), "2");
    }
}
