//! SQL values and data types.
//!
//! `Value` is the single runtime representation used by rowsets everywhere in
//! the engine — local storage, remote providers, and every executor operator.
//! SQL three-valued logic lives here: comparisons between values return
//! `Option<Ordering>`/`Option<bool>` where `None` means *unknown* (NULL).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Logical column types supported by the engine.
///
/// `Date` is stored as days since 1970-01-01 (the engine treats dates as an
/// ordered integer domain, which is all the paper's examples require).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Date,
}

impl DataType {
    /// Name as it appears in SQL text produced by the decoder.
    pub fn sql_name(&self) -> &'static str {
        match self {
            DataType::Bool => "BIT",
            DataType::Int => "BIGINT",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR",
            DataType::Date => "DATE",
        }
    }

    /// Whether values of this type form a numeric domain.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// [`Cell::total_cmp`], written once for [`Value`] and [`Cell`] alike: both
/// enums have the same variants, so one match serves either without
/// converting one into the other on the sort path.
macro_rules! total_order {
    ($enum:ident, $a:expr, $b:expr) => {{
        use $enum::*;
        let rank = |v: &$enum| match v {
            Null => 0u8,
            Bool(_) => 1,
            Int(_) | Float(_) => 2,
            Date(_) => 3,
            Str(_) => 4,
        };
        match ($a, $b) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => unsigned_zero(*a).total_cmp(&unsigned_zero(*b)),
            (Int(a), Float(b)) => (*a as f64).total_cmp(&unsigned_zero(*b)),
            (Float(a), Int(b)) => unsigned_zero(*a).total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }};
}

/// A single SQL value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Days since the Unix epoch.
    Date(i32),
}

impl Value {
    /// The value's type, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate on-the-wire size in bytes, used by the network simulator
    /// and by the optimizer's row-width estimates.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::Date(_) => 4,
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL or the types
    /// are incomparable (SQL UNKNOWN).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL equality under three-valued logic.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Total ordering used for sorting and B-tree keys: the order of
    /// [`Cell::total_cmp`], written once for both (`total_order!`). It is
    /// *not* SQL comparison: predicates must use [`Value::sql_cmp`].
    #[inline]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        total_order!(Value, self, other)
    }

    /// This value by reference, text borrowed.
    #[inline]
    pub fn as_cell(&self) -> Cell<'_> {
        match self {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
            Value::Date(d) => Cell::Date(*d),
        }
    }

    /// Numeric addition with Int/Float promotion; NULL propagates.
    pub fn add(&self, other: &Value) -> crate::Result<Value> {
        self.numeric_binop(other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Numeric subtraction.
    pub fn sub(&self, other: &Value) -> crate::Result<Value> {
        // Date - Int => Date shifted by days (used by date(today(), -2)-style
        // expressions in the paper's email scenario).
        if let (Value::Date(d), Value::Int(n)) = (self, other) {
            return Ok(Value::Date(d - *n as i32));
        }
        self.numeric_binop(other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Numeric multiplication.
    pub fn mul(&self, other: &Value) -> crate::Result<Value> {
        self.numeric_binop(other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Numeric division; integer division by zero is an execution error,
    /// float division by zero yields infinity per IEEE.
    pub fn div(&self, other: &Value) -> crate::Result<Value> {
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => {
                Err(crate::DhqpError::Execute("division by zero".into()))
            }
            _ => self.numeric_binop(other, "/", |a, b| a.checked_div(b), |a, b| a / b),
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &str,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> crate::Result<Value> {
        use Value::*;
        // Date + Int also promotes through here for `+` only.
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => int_op(*a, *b)
                .map(Int)
                .ok_or_else(|| crate::DhqpError::Execute(format!("integer overflow in {op}"))),
            (Float(a), Float(b)) => Ok(Float(float_op(*a, *b))),
            (Int(a), Float(b)) => Ok(Float(float_op(*a as f64, *b))),
            (Float(a), Int(b)) => Ok(Float(float_op(*a, *b as f64))),
            (Date(d), Int(n)) if op == "+" => Ok(Date(d + *n as i32)),
            (Int(n), Date(d)) if op == "+" => Ok(Date(d + *n as i32)),
            _ => Err(crate::DhqpError::Type(format!(
                "cannot apply {op} to {} and {}",
                self.type_name(),
                other.type_name()
            ))),
        }
    }

    /// Cast to the requested type following SQL conversion rules.
    pub fn cast(&self, to: DataType) -> crate::Result<Value> {
        use Value::*;
        let err = || {
            crate::DhqpError::Type(format!(
                "cannot cast {} to {}",
                self.type_name(),
                to.sql_name()
            ))
        };
        Ok(match (self, to) {
            (Null, _) => Null,
            (v, t) if v.data_type() == Some(t) => v.clone(),
            (Int(i), DataType::Float) => Float(*i as f64),
            (Float(f), DataType::Int) => Int(*f as i64),
            (Int(i), DataType::Bool) => Bool(*i != 0),
            (Bool(b), DataType::Int) => Int(*b as i64),
            (Int(i), DataType::Str) => Str(i.to_string()),
            (Float(f), DataType::Str) => Str(f.to_string()),
            (Bool(b), DataType::Str) => Str(if *b { "1".into() } else { "0".into() }),
            (Date(d), DataType::Str) => Str(format_date(*d)),
            (Date(d), DataType::Int) => Int(*d as i64),
            (Str(s), DataType::Int) => Int(s.trim().parse().map_err(|_| err())?),
            (Str(s), DataType::Float) => Float(s.trim().parse().map_err(|_| err())?),
            (Str(s), DataType::Date) => Date(parse_date(s).ok_or_else(err)?),
            (Int(i), DataType::Date) => Date(*i as i32),
            _ => return Err(err()),
        })
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BIT",
            Value::Int(_) => "BIGINT",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "VARCHAR",
            Value::Date(_) => "DATE",
        }
    }

    /// Render as a SQL literal in the engine's own dialect (ISO dates,
    /// single-quoted strings with doubled quotes). Dialect-specific literal
    /// formats are handled by the decoder, not here.
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".into(),
            Value::Bool(b) => if *b { "1" } else { "0" }.into(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Date(d) => format!("'{}'", format_date(*d)),
        }
    }
}

/// A value by reference, text borrowed: the borrowed form of [`Value`], and
/// what a stored cell reads as without building one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
    Date(i32),
}

impl Cell<'_> {
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(s.to_owned()),
            Cell::Date(d) => Value::Date(d),
        }
    }

    /// The one total order of values, for sorting, B-tree keys and their
    /// seek bounds: NULL sorts first, then by type tag for heterogeneous
    /// columns, then by value; NaN sorts after every other float. Wherever
    /// SQL comparison is defined the two agree — `-0.0` and `0.0` are one
    /// value here too — so an index seek, a hash key and a value domain hold
    /// exactly the values a predicate accepts.
    #[inline]
    pub fn total_cmp(&self, other: &Cell<'_>) -> Ordering {
        total_order!(Cell, self, other)
    }
}

/// `f` with `-0.0` read as `0.0` (IEEE addition of `+0.0` does exactly
/// that and leaves every other value, NaN included, as it is).
fn unsigned_zero(f: f64) -> f64 {
    f + 0.0
}

/// SQL LIKE with `%` (any run) and `_` (any single char), case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                let rest = &p[1..];
                (0..=s.len()).any(|i| rec(&s[i..], rest))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

/// Format days-since-epoch as `YYYY-MM-DD` (proleptic Gregorian).
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Parse `YYYY-MM-DD` into days since the epoch.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.trim().splitn(3, '-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d))
}

// Howard Hinnant's algorithms for date <-> day-count conversion.
fn days_from_civil(y: i64, m: u32, d: u32) -> i32 {
    let y = y - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) as i64 + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146097 + doe - 719468) as i32
}

fn civil_from_days(z: i32) -> (i64, u32, u32) {
    let z = z as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + if m <= 2 { 1 } else { 0 }, m, d)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&format_date(*d)),
        }
    }
}

/// Structural equality used by hash tables (join/aggregate keys). Unlike SQL
/// equality this treats NULL == NULL and NaN == NaN so grouping works.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and whole floats that compare equal must hash equal.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                unsigned_zero(*f).to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incomparable_types_are_unknown() {
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_puts_null_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn arithmetic_promotes_and_propagates_null() {
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
    }

    #[test]
    fn date_arithmetic_shifts_days() {
        let d = parse_date("2004-03-01").unwrap();
        let shifted = Value::Date(d).sub(&Value::Int(2)).unwrap();
        assert_eq!(shifted, Value::Date(d - 2));
        assert_eq!(format_date(d - 2), "2004-02-28");
    }

    #[test]
    fn date_roundtrip() {
        for s in [
            "1970-01-01",
            "1992-01-01",
            "2000-02-29",
            "1969-12-31",
            "2026-07-08",
        ] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s, "roundtrip {s}");
        }
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-13-01"), None);
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Str(" 42 ".into()).cast(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Str("1992-01-01".into())
                .cast(DataType::Date)
                .unwrap(),
            Value::Date(parse_date("1992-01-01").unwrap())
        );
        assert!(Value::Str("abc".into()).cast(DataType::Int).is_err());
        assert!(Value::Null.cast(DataType::Int).unwrap().is_null());
    }

    #[test]
    fn sql_literals_escape_quotes() {
        assert_eq!(Value::Str("O'Brien".into()).to_sql_literal(), "'O''Brien'");
        assert_eq!(Value::Float(3.0).to_sql_literal(), "3.0");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
    }

    /// A value and its borrowed form order alike, against each other's
    /// kind too: NULL, both zeros, NaNs, INT against FLOAT, text and dates.
    #[test]
    fn a_value_orders_as_its_cell() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(2),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(1.5),
            Value::Float(2.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Str(String::new()),
            Value::Str("b".into()),
            Value::Date(0),
            Value::Date(-3),
        ];
        for a in &values {
            assert_eq!(a.as_cell().to_value(), *a);
            for b in &values {
                let cells = a.as_cell().total_cmp(&b.as_cell());
                assert_eq!(a.total_cmp(b), cells, "{a:?} against {b:?}");
            }
        }
        assert_eq!(
            Value::Float(-0.0).total_cmp(&Value::Int(0)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Float(f64::NAN).total_cmp(&Value::Float(9e9)),
            Ordering::Greater
        );
        assert_eq!(Value::Null.total_cmp(&Value::Bool(false)), Ordering::Less);
    }

    #[test]
    fn int_and_equal_float_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
    }
}
