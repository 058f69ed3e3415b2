//! The attribute value model shared by every graph structure and query
//! dialect.
//!
//! The paper's attributed graphs attach property values to nodes and
//! edges; its query languages filter and aggregate over those values.
//! [`Value`] is the common currency: a small dynamically typed scalar
//! (plus lists, used for paths and multi-valued attributes).

use crate::error::{GdmError, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;

/// A dynamically typed attribute or query value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absence of a value. `Null` compares equal only to itself here;
    /// query dialects implement their own null semantics on top.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list, used for multi-valued attributes and query results
    /// such as paths.
    List(Vec<Value>),
}

impl Value {
    /// Short name of the value's type, for error messages and the type
    /// checking integrity constraint.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::List(_) => "list",
        }
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a boolean if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interprets the value as an integer if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: ints widen to floats, everything else is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interprets the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A total order over all values, used by index keys and `ORDER BY`.
    ///
    /// Values of different types order by a fixed type rank
    /// (null < bool < numbers < string < list); numbers of both kinds
    /// compare numerically; floats use IEEE `total_cmp` so `NaN` has a
    /// stable position instead of poisoning sorts.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                List(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Partial comparison with numeric coercion, used by query filters
    /// (`a.age > 30`). Cross-type comparisons other than int/float are
    /// not defined and return `None`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Loose equality with int/float coercion, used by query filters.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Float(b)) => (*a as f64) == *b,
            (Value::Float(a), Value::Int(b)) => *a == (*b as f64),
            (a, b) => a == b,
        }
    }

    /// Feeds the value to `state` so that values equal under
    /// [`Value::loose_eq`] hash alike — the hash behind grouping and
    /// equality indexes. A number hashes by its `f64` image (the one
    /// `loose_eq` compares an `Int` with a `Float` by), with `-0.0`
    /// folded into `0.0` (they are equal; adding `0.0` does it). `NaN`
    /// equals nothing, so any hash will do. Unequal values may collide
    /// (`2⁵³` and `2⁵³ + 1` share an image): callers re-check with
    /// `loose_eq`.
    pub fn hash_loose<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => state.write_u8(1 + u8::from(*b)),
            Value::Int(i) => state.write_u64((*i as f64).to_bits()),
            Value::Float(f) => state.write_u64((*f + 0.0).to_bits()),
            Value::Str(s) => state.write(s.as_bytes()),
            Value::List(items) => items.iter().for_each(|item| item.hash_loose(state)),
        }
    }

    /// Addition for query expressions: numeric addition, string
    /// concatenation, list concatenation.
    pub fn add(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_add(*b))),
            (Str(a), Str(b)) => Ok(Str(format!("{a}{b}"))),
            (List(a), List(b)) => {
                let mut v = a.clone();
                v.extend(b.iter().cloned());
                Ok(List(v))
            }
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Float(a + b)),
                _ => Err(type_err("number, string, or list", self, other)),
            },
        }
    }

    /// Subtraction for query expressions.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, i64::wrapping_sub, |a, b| a - b)
    }

    /// Multiplication for query expressions.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, i64::wrapping_mul, |a, b| a * b)
    }

    /// Division for query expressions; integer division by zero is an
    /// error, float division follows IEEE.
    pub fn div(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Int(_), Int(0)) => Err(GdmError::InvalidArgument("division by zero".into())),
            (Int(a), Int(b)) => Ok(Int(a / b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Float(a / b)),
                _ => Err(type_err("number", self, other)),
            },
        }
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: fn(i64, i64) -> i64,
    float_op: fn(f64, f64) -> f64,
) -> Result<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(int_op(*x, *y))),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Ok(Value::Float(float_op(x, y))),
            _ => Err(type_err("number", a, b)),
        },
    }
}

fn type_err(expected: &'static str, a: &Value, b: &Value) -> GdmError {
    GdmError::Type {
        expected,
        got: format!("{} and {}", a.type_name(), b.type_name()),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::from(1).type_name(), "int");
        assert_eq!(Value::from(1.5).type_name(), "float");
        assert_eq!(Value::from("x").type_name(), "string");
    }

    #[test]
    fn total_cmp_orders_across_types() {
        let mut vs = vec![
            Value::from("b"),
            Value::Null,
            Value::from(2),
            Value::from(true),
            Value::from(1.5),
        ];
        vs.sort_by(Value::total_cmp);
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::from(true),
                Value::from(1.5),
                Value::from(2),
                Value::from("b"),
            ]
        );
    }

    #[test]
    fn total_cmp_handles_nan() {
        let nan = Value::Float(f64::NAN);
        // total_cmp is antisymmetric and reflexive even for NaN.
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_ne!(nan.total_cmp(&Value::from(0.0)), Ordering::Equal);
    }

    #[test]
    fn compare_coerces_numerics() {
        assert_eq!(
            Value::from(1).compare(&Value::from(1.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::from(2).compare(&Value::from(1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::from(1).compare(&Value::from("x")), None);
    }

    #[test]
    fn loose_eq_coerces() {
        assert!(Value::from(3).loose_eq(&Value::from(3.0)));
        assert!(!Value::from(3).loose_eq(&Value::from("3")));
    }

    #[test]
    fn loosely_equal_values_hash_alike() {
        use std::hash::DefaultHasher;
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash_loose(&mut h);
            h.finish()
        };
        let two53 = 1i64 << 53;
        let scalars = [
            Value::Null,
            Value::from(true),
            Value::from(false),
            Value::from(0),
            Value::from(0.0),
            Value::from(-0.0),
            Value::from(3),
            Value::from(3.0),
            Value::from(-7),
            Value::from(2.5),
            Value::from(two53),
            Value::from(two53 + 1),
            Value::from(two53 as f64),
            Value::from(f64::NAN),
            Value::from(""),
            Value::from("3"),
            Value::from("a"),
        ];
        let mut values = scalars.to_vec();
        values.extend(scalars.iter().map(|v| Value::List(vec![v.clone()])));
        values.push(Value::List(vec![]));
        values.push(Value::List(vec![
            Value::from(1),
            Value::List(vec![Value::from(-0.0), Value::from("x")]),
        ]));
        values.push(Value::List(vec![
            Value::from(1),
            Value::List(vec![Value::from(0.0), Value::from("x")]),
        ]));
        let mut pairs = 0;
        for a in &values {
            for b in &values {
                if a.loose_eq(b) {
                    pairs += 1;
                    assert_eq!(hash(a), hash(b), "{a:?} and {b:?}");
                }
            }
        }
        // Cross-type and signed-zero equalities are among them.
        assert!(Value::from(0).loose_eq(&Value::from(-0.0)));
        assert!(Value::from(two53 + 1).loose_eq(&Value::from(two53 as f64)));
        assert!(pairs > values.len());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::from(2).add(&Value::from(3)).unwrap(), Value::from(5));
        assert_eq!(
            Value::from("a").add(&Value::from("b")).unwrap(),
            Value::from("ab")
        );
        assert_eq!(
            Value::from(2).mul(&Value::from(2.5)).unwrap(),
            Value::from(5.0)
        );
        assert_eq!(Value::from(7).sub(&Value::from(2)).unwrap(), Value::from(5));
        assert_eq!(Value::from(7).div(&Value::from(2)).unwrap(), Value::from(3));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(Value::from(1).div(&Value::from(0)).is_err());
        // Float division by zero is IEEE infinity, not an error.
        let v = Value::from(1.0).div(&Value::from(0.0)).unwrap();
        assert_eq!(v.as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn adding_incompatible_types_is_a_type_error() {
        let err = Value::from(true).add(&Value::from(1)).unwrap_err();
        assert!(matches!(err, GdmError::Type { .. }));
    }

    #[test]
    fn display_is_human_readable() {
        let v = Value::List(vec![Value::from(1), Value::from("a")]);
        assert_eq!(v.to_string(), "[1, a]");
    }

    #[test]
    fn list_total_cmp_is_lexicographic() {
        let a = Value::List(vec![Value::from(1), Value::from(2)]);
        let b = Value::List(vec![Value::from(1), Value::from(3)]);
        let c = Value::List(vec![Value::from(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }
}
