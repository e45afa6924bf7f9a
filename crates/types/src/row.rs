//! Rows and schemas — the tabular shape every rowset exposes.

use crate::hash::Fnv1a;
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A column description within a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }
}

/// An ordered list of columns. Cheap to clone (shared).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Arc<Vec<Column>>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        Schema {
            columns: Arc::new(columns),
        }
    }

    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Case-insensitive lookup by column name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Concatenate two schemas (used by join operators).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut cols = self.columns.as_ref().clone();
        cols.extend(right.columns.iter().cloned());
        Schema::new(cols)
    }

    /// Schema containing only the given column indexes, in order.
    pub fn project(&self, indexes: &[usize]) -> Schema {
        Schema::new(indexes.iter().map(|&i| self.columns[i].clone()).collect())
    }

    /// Estimated wire width of a row of this schema, for cost estimation.
    pub fn estimated_row_width(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c.data_type {
                DataType::Bool => 1,
                DataType::Int | DataType::Float => 8,
                DataType::Date => 4,
                DataType::Str => 24, // assumed average string payload
            })
            .sum()
    }

    /// [`schema_stamp`] of this schema's columns.
    pub fn stamp(&self) -> u64 {
        schema_stamp(self.columns.iter().map(|c| (c.name.as_str(), c.data_type)))
    }
}

/// 64-bit stamp of a column list's *shape*: the column count, then each
/// column's ASCII-lower-cased name and data type, in order — exactly what
/// delayed schema validation compares, and nothing it does not
/// (nullability, indexes and cardinality may change under a compiled plan).
/// A head sends the stamp of the schema a plan was compiled against along
/// with the request that opens a partitioned-view member, and the member
/// refuses the request when its live table stamps differently. Every field
/// is length-prefixed, so two different shapes never feed FNV-1a the same
/// bytes.
pub fn schema_stamp<'a>(columns: impl ExactSizeIterator<Item = (&'a str, DataType)>) -> u64 {
    fn write_str(h: &mut Fnv1a, text: impl ExactSizeIterator<Item = u8>) {
        h.write(&(text.len() as u32).to_le_bytes());
        for b in text {
            h.write(&[b]);
        }
    }
    let mut h = Fnv1a::new();
    h.write(&(columns.len() as u32).to_le_bytes());
    for (name, data_type) in columns {
        write_str(&mut h, name.bytes().map(|b| b.to_ascii_lowercase()));
        write_str(&mut h, data_type.sql_name().bytes());
    }
    h.finish()
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in self.columns.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{} {}", c.name, c.data_type)?;
        }
        Ok(())
    }
}

/// A single row of values.
///
/// `bookmark`, when present, identifies the row within its base table — the
/// analog of OLE DB bookmarks, used by remote-fetch and index-to-heap
/// lookups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    pub values: Vec<Value>,
    pub bookmark: Option<u64>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values,
            bookmark: None,
        }
    }

    pub fn with_bookmark(values: Vec<Value>, bookmark: u64) -> Self {
        Row {
            values,
            bookmark: Some(bookmark),
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Concatenate with another row (join output).
    pub fn join(&self, right: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + right.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&right.values);
        Row {
            values,
            bookmark: None,
        }
    }

    /// Total wire size of the row in bytes.
    pub fn wire_size(&self) -> usize {
        8 + self.values.iter().map(Value::wire_size).sum::<usize>()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for v in &self.values {
            if !first {
                write!(f, " | ")?;
            }
            first = false;
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_ab() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("B", DataType::Str),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = schema_ab();
        assert_eq!(s.index_of("A"), Some(0));
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("c"), None);
    }

    #[test]
    fn join_concatenates_schemas_and_rows() {
        let s = schema_ab().join(&schema_ab());
        assert_eq!(s.len(), 4);
        let r = Row::new(vec![Value::Int(1), Value::Str("x".into())]);
        let joined = r.join(&r);
        assert_eq!(joined.len(), 4);
        assert_eq!(joined.bookmark, None);
    }

    #[test]
    fn project_selects_in_order() {
        let s = schema_ab().project(&[1, 0]);
        assert_eq!(s.column(0).name, "B");
        assert_eq!(s.column(1).name, "a");
    }

    #[test]
    fn row_wire_size_counts_values() {
        let r = Row::new(vec![Value::Int(1), Value::Str("abcd".into())]);
        assert_eq!(r.wire_size(), 8 + 8 + (4 + 4));
    }

    #[test]
    fn schema_display() {
        assert_eq!(schema_ab().to_string(), "a BIGINT, B VARCHAR");
    }
}
