//! A flat JSON object writer: the measuring binary prints one object per
//! invocation and `run.py` reads it.

use std::fmt::Write;

/// Keys and already-encoded values, in insertion order.
#[derive(Debug, Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Add a number; non-finite values are written as `null`.
    pub fn num(mut self, key: &str, value: f64) -> Object {
        let encoded = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), encoded));
        self
    }

    /// Add a whole number.
    pub fn int(mut self, key: &str, value: u64) -> Object {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add a string.
    pub fn text(mut self, key: &str, value: &str) -> Object {
        self.fields.push((key.to_string(), quote(value)));
        self
    }

    /// Add a nested object.
    pub fn object(mut self, key: &str, value: Object) -> Object {
        self.fields.push((key.to_string(), value.encode()));
        self
    }

    /// Encode on one line.
    pub fn encode(&self) -> String {
        let mut out = String::from("{");
        for (index, (key, value)) in self.fields.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {value}", quote(key));
        }
        out.push('}');
        out
    }
}

fn quote(text: &str) -> String {
    let mut out = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
