//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace crate
//! supplies the small serialization surface the repository actually uses: a
//! [`Serialize`] trait that lowers values into a JSON-like [`Value`] tree
//! (the companion `serde_json` shim renders and parses the text form), a
//! matching [`Deserialize`], and `#[derive(Serialize)]` /
//! `#[derive(Deserialize)]` via the `serde_derive` shim.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

// Lets the derive macros' `::serde::...` paths resolve inside this crate's
// own tests.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON value tree. Object fields keep insertion order (derive emits them
/// in declaration order), which keeps report output stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Value::Number(n) if n == other)
    }
}

impl PartialEq<Value> for f64 {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other == self
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

/// Lowers a value into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// The tree a writer renders: lowered into a fresh tree by default,
    /// lent as it stands by a value that already is one, so writing a
    /// [`Value`] copies nothing.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Rebuilds a value from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(value: &Value) -> Result<Self, String>;

    /// Rebuilds a value from a tree the caller gives up, as a parser does:
    /// through [`Deserialize::from_value`] by default, while a [`Value`]
    /// is the tree itself.
    fn from_owned(value: Value) -> Result<Self, String> {
        Self::from_value(&value)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

macro_rules! serialize_numbers {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}
serialize_numbers!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (*self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (*self).as_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

macro_rules! serialize_tuples {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}
serialize_tuples! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(fields)
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, String> {
        Ok(value.clone())
    }

    fn from_owned(value: Value) -> Result<Self, String> {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_serializes_structs_in_field_order() {
        #[derive(Serialize)]
        struct Row {
            name: String,
            score: f64,
            tags: Vec<String>,
            missing: Option<u32>,
        }
        let v =
            Row { name: "a".into(), score: 0.5, tags: vec!["x".into()], missing: None }.to_value();
        assert_eq!(v["name"], "a");
        assert_eq!(v["score"], 0.5);
        assert_eq!(v["tags"][0], "x");
        assert!(v["missing"].is_null());
    }

    #[test]
    fn derive_round_trips_unit_enums() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        enum Kind {
            Alpha,
            Beta,
        }
        let v = Kind::Beta.to_value();
        assert_eq!(v, "Beta");
        assert_eq!(Kind::from_value(&v).unwrap(), Kind::Beta);
        assert!(Kind::from_value(&Value::String("Gamma".into())).is_err());
        assert_eq!(Kind::from_owned(v).unwrap(), Kind::Beta);
    }

    #[test]
    fn a_value_is_lent_and_taken_as_it_stands() {
        let v = Value::Array(vec![Value::Number(1.0), Value::String("a".into())]);
        assert!(matches!(v.as_value(), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!((&&v).as_value(), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!(vec![1u8].as_value(), Cow::Owned(_)));
        let items = match &v {
            Value::Array(items) => items.as_ptr(),
            _ => unreachable!(),
        };
        match Value::from_owned(v).unwrap() {
            Value::Array(back) => assert!(std::ptr::eq(back.as_ptr(), items)),
            other => panic!("{other:?}"),
        }
    }
}
