//! Shorthands for building and printing JSON values.

use serde::Value;

pub fn num(x: f64) -> Value {
    Value::Number(x)
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Compact JSON text of `value`.
pub fn to_string(value: &Value) -> String {
    serde_json::to_string(value).expect("the writer is total over values")
}
