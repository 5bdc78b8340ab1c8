//! Shorthands for the vendored `serde::Value` tree, which is how this
//! package writes and reads JSON.

use serde::Value;

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The number `v` holds, whichever way the parser typed it.
pub fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        Value::F64(x) => Some(x),
        Value::F32(x) => Some(f64::from(x)),
        _ => None,
    }
}
