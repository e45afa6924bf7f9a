//! The literals of an `IN`-list, kept sorted and deduplicated so that
//! membership is a binary search rather than a scan of the list per row.
//!
//! The order is not [`Value::total_cmp`]: it must agree with
//! [`Value::sql_cmp`], which compares an integer with a float as two `f64`s
//! (so two integers can both equal one float) and calls `-0.0` equal to
//! `0.0` and NaN equal to nothing. [`ValueSet::contains`] answers exactly what
//! a scan of the list with [`Value::sql_eq`] answers: TRUE, FALSE or UNKNOWN.

use crate::value::Value;
use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;

/// A sorted, deduplicated list of values; see the module docs. Shared, not
/// copied, when the expression holding it is cloned: the optimizer clones
/// predicates into every alternative and plan it builds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ValueSet {
    values: Arc<[Value]>,
}

/// Values of one family compare with each other under `sql_cmp`; values of
/// two families never do.
fn family(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Date(_) => 3,
        Value::Str(_) => 4,
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

/// Numbers by value (`-0.0` equal to `0.0`), every NaN after them.
fn cmp_f64(x: f64, y: f64) -> Ordering {
    match (x.is_nan(), y.is_nan()) {
        (false, false) => x.partial_cmp(&y).expect("neither is NaN"),
        (x_nan, y_nan) => x_nan.cmp(&y_nan),
    }
}

/// Where `v` sorts relative to the number `x`, by family and `f64` only.
fn cmp_to_number(v: &Value, x: f64) -> Ordering {
    family(v).cmp(&2).then_with(|| cmp_f64(as_f64(v), x))
}

/// The set's order: by family, then by value. Numbers equal as `f64` put
/// integers first, in integer order, then the float; two values that compare
/// equal here answer every probe alike, so one of them is dropped.
fn set_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Date(x), Value::Date(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            cmp_f64(as_f64(a), as_f64(b)).then_with(|| match (a, b) {
                (Value::Int(i), Value::Int(j)) => i.cmp(j),
                (Value::Int(_), _) => Ordering::Less,
                (_, Value::Int(_)) => Ordering::Greater,
                _ => Ordering::Equal,
            })
        }
        _ => family(a).cmp(&family(b)),
    }
}

impl ValueSet {
    /// The set of `values`: sorted, each class of equal values kept once.
    pub fn new(mut values: Vec<Value>) -> Self {
        values.sort_by(set_cmp);
        values.dedup_by(|a, b| set_cmp(a, b) == Ordering::Equal);
        ValueSet {
            values: values.into(),
        }
    }

    /// `v IN (self)` under three-valued logic: `Some(true)` when a member
    /// equals `v`, `None` (UNKNOWN) when none does but `v` is NULL or some
    /// member cannot be compared with it, `Some(false)` otherwise.
    pub fn contains(&self, v: &Value) -> Option<bool> {
        let (Some(first), Some(last)) = (self.values.first(), self.values.last()) else {
            return (!v.is_null()).then_some(false);
        };
        let hit = match v {
            Value::Null => return None,
            Value::Float(x) if x.is_nan() => return None,
            // Every member equal to `x` as an `f64` equals a float `x`.
            Value::Float(x) => !self.numbers_equal_to(*x).is_empty(),
            // An integer equals itself and any float its `f64` equals; the
            // floats sort last among the numbers equal to it.
            Value::Int(i) => {
                let same = self.numbers_equal_to(*i as f64);
                same.binary_search_by(|m| set_cmp(m, v)).is_ok()
                    || matches!(same.last(), Some(Value::Float(_)))
            }
            _ => self.values.binary_search_by(|m| set_cmp(m, v)).is_ok(),
        };
        // No member equals `v`: the answer is UNKNOWN when one is NULL, of
        // another family, or NaN — the first sorts first, the second at
        // either end, the third last.
        let unknown = first.is_null()
            || family(first) != family(v)
            || family(last) != family(v)
            || matches!(last, Value::Float(f) if f.is_nan());
        if hit {
            Some(true)
        } else if unknown {
            None
        } else {
            Some(false)
        }
    }

    /// The numeric members equal to `x` as `f64`s (`x` is not NaN).
    fn numbers_equal_to(&self, x: f64) -> &[Value] {
        let lo = self
            .values
            .partition_point(|m| cmp_to_number(m, x) == Ordering::Less);
        let hi = self
            .values
            .partition_point(|m| cmp_to_number(m, x) != Ordering::Greater);
        &self.values[lo..hi]
    }
}

impl Deref for ValueSet {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.values
    }
}

impl From<Vec<Value>> for ValueSet {
    fn from(values: Vec<Value>) -> Self {
        ValueSet::new(values)
    }
}

impl FromIterator<Value> for ValueSet {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        ValueSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(list: &[Value], v: &Value) -> Option<bool> {
        let mut unknown = v.is_null();
        for m in list {
            match v.sql_eq(m) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => unknown = true,
            }
        }
        if unknown {
            None
        } else {
            Some(false)
        }
    }

    #[test]
    fn sorted_and_deduplicated() {
        let set = ValueSet::new(vec![
            Value::Int(3),
            Value::Null,
            Value::Float(-0.0),
            Value::Int(3),
            Value::Float(0.0),
            Value::Str("a".into()),
            Value::Null,
        ]);
        assert_eq!(set.len(), 4, "{set:?}");
        assert!(set[0].is_null());
        assert_eq!(set[3], Value::Str("a".into()));
    }

    #[test]
    fn edge_values_answer_as_the_scan_does() {
        let big = 1i64 << 53;
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Float(-0.0),
            Value::Float(0.5),
            Value::Float(f64::NAN),
            Value::Str("x".into()),
            Value::Date(0),
            Value::Bool(true),
        ];
        // Every list of up to three of them, against every probe.
        let n = values.len();
        for mask in 0..n * n * n {
            let list: Vec<Value> = [mask % n, mask / n % n, mask / n / n]
                .iter()
                .take(1 + mask % 3)
                .map(|&i| values[i].clone())
                .collect();
            let set = ValueSet::new(list.clone());
            for probe in &values {
                assert_eq!(
                    set.contains(probe),
                    scan(&list, probe),
                    "{probe:?} IN {list:?}"
                );
            }
        }
        let empty = ValueSet::new(Vec::new());
        assert_eq!(empty.contains(&Value::Int(1)), Some(false));
        assert_eq!(empty.contains(&Value::Null), None);
    }
}
