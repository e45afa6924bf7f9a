//! Schema metadata — the `IDBSchemaRowset` analog (paper Table 2).
//!
//! "Rowsets are also used to return metadata, such as database schema,
//! supported data type information, extended column information and
//! statistics." Providers describe their tables with [`TableInfo`]; the
//! generic [`SchemaRowsetKind::to_rowset`] renders that metadata *as a
//! rowset*, preserving OLE DB's everything-is-a-rowset discipline (the
//! `TABLES_INFO` schema rowset carries cardinality, §3.2.4).

use crate::rowset::MemRowset;
use crate::statistics::TableStatistics;
use dhqp_types::{Column, DataType, IntervalSet, Row, Schema, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Column metadata as exposed by a provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnInfo {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl ColumnInfo {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnInfo {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnInfo {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    pub fn to_column(&self) -> Column {
        Column {
            name: self.name.clone(),
            data_type: self.data_type,
            nullable: self.nullable,
        }
    }
}

/// Index metadata (`IDBSchemaRowset` indexes rowset). Required for the
/// *index provider* category of §3.3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexInfo {
    pub name: String,
    /// Key column names in key order.
    pub key_columns: Vec<String>,
    pub unique: bool,
}

/// Table metadata, including the `TABLES_INFO` cardinality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableInfo {
    pub name: String,
    pub columns: Vec<ColumnInfo>,
    pub indexes: Vec<IndexInfo>,
    /// Row count as reported through TABLES_INFO, if the provider knows it.
    pub cardinality: Option<u64>,
}

impl TableInfo {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnInfo>) -> Self {
        TableInfo {
            name: name.into(),
            columns,
            indexes: Vec::new(),
            cardinality: None,
        }
    }

    pub fn with_cardinality(mut self, n: u64) -> Self {
        self.cardinality = Some(n);
        self
    }

    pub fn with_index(mut self, index: IndexInfo) -> Self {
        self.indexes.push(index);
        self
    }

    /// The runtime [`Schema`] of rowsets opened on this table.
    pub fn schema(&self) -> Schema {
        Schema::new(self.columns.iter().map(ColumnInfo::to_column).collect())
    }

    /// [`dhqp_types::schema_stamp`] of this table's columns — what
    /// [`crate::Session::check_schema`] carries to the provider.
    pub fn schema_stamp(&self) -> u64 {
        dhqp_types::schema_stamp(self.columns.iter().map(|c| (c.name.as_str(), c.data_type)))
    }

    /// Case-insensitive column lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Find an index whose leading key column is `column`.
    pub fn index_on(&self, column: &str) -> Option<&IndexInfo> {
        self.indexes.iter().find(|ix| {
            ix.key_columns
                .first()
                .is_some_and(|k| k.eq_ignore_ascii_case(column))
        })
    }
}

/// One table's catalog facts — schema, index list, CHECK domains and
/// statistics — as one immutable value shared by `Arc` (paper §3.2.4: the
/// metadata and histograms are fetched once and the optimizer only reads
/// them). Every bind and every cached plan that references the table points
/// at the same snapshot; its owner replaces it whole when a fact changes:
/// the storage engine on `ANALYZE` and DDL, the engine's remote metadata
/// cache on a fetch or a feedback correction, a partitioned view when it is
/// (re)defined.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    pub schema: Schema,
    /// The column names, in schema order, as the shared strings column
    /// registries name bound columns with.
    pub names: Vec<Arc<str>>,
    pub indexes: Vec<IndexInfo>,
    /// CHECK constraint domains: `(schema column position, domain)`.
    pub checks: Vec<(usize, IntervalSet)>,
    /// Histogram statistics, when built or fetched.
    pub stats: Option<Arc<TableStatistics>>,
}

impl TableSnapshot {
    pub fn new(schema: Schema, indexes: Vec<IndexInfo>) -> Self {
        TableSnapshot {
            names: schema
                .columns()
                .iter()
                .map(|c| Arc::from(c.name.as_str()))
                .collect(),
            schema,
            indexes,
            checks: Vec::new(),
            stats: None,
        }
    }

    /// The snapshot of a provider's table metadata.
    pub fn of(info: &TableInfo) -> Self {
        TableSnapshot::new(info.schema(), info.indexes.clone())
    }

    pub fn with_checks(mut self, checks: Vec<(usize, IntervalSet)>) -> Self {
        self.checks = checks;
        self
    }

    pub fn with_stats(mut self, stats: Option<Arc<TableStatistics>>) -> Self {
        self.stats = stats;
        self
    }

    /// The provider metadata this snapshot describes, as table `name`.
    pub fn table_info(&self, name: &str, cardinality: Option<u64>) -> TableInfo {
        TableInfo {
            name: name.to_string(),
            columns: self
                .schema
                .columns()
                .iter()
                .map(|c| ColumnInfo {
                    name: c.name.clone(),
                    data_type: c.data_type,
                    nullable: c.nullable,
                })
                .collect(),
            indexes: self.indexes.clone(),
            cardinality,
        }
    }
}

/// Which schema rowset to materialize, mirroring the OLE DB schema-rowset
/// GUIDs the paper lists in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaRowsetKind {
    /// One row per table: name, column count, cardinality.
    Tables,
    /// One row per column: table, name, type, nullable.
    Columns,
    /// One row per index key column: table, index, column, position, unique.
    Indexes,
}

impl SchemaRowsetKind {
    /// Render provider metadata as a rowset of this kind.
    pub fn to_rowset(self, tables: &[TableInfo]) -> MemRowset {
        match self {
            SchemaRowsetKind::Tables => {
                let schema = Schema::new(vec![
                    Column::not_null("TABLE_NAME", DataType::Str),
                    Column::not_null("COLUMN_COUNT", DataType::Int),
                    Column::new("CARDINALITY", DataType::Int),
                ]);
                let rows = tables
                    .iter()
                    .map(|t| {
                        Row::new(vec![
                            Value::Str(t.name.clone()),
                            Value::Int(t.columns.len() as i64),
                            t.cardinality.map_or(Value::Null, |n| Value::Int(n as i64)),
                        ])
                    })
                    .collect();
                MemRowset::new(schema, rows)
            }
            SchemaRowsetKind::Columns => {
                let schema = Schema::new(vec![
                    Column::not_null("TABLE_NAME", DataType::Str),
                    Column::not_null("COLUMN_NAME", DataType::Str),
                    Column::not_null("DATA_TYPE", DataType::Str),
                    Column::not_null("IS_NULLABLE", DataType::Bool),
                ]);
                let rows = tables
                    .iter()
                    .flat_map(|t| {
                        t.columns.iter().map(move |c| {
                            Row::new(vec![
                                Value::Str(t.name.clone()),
                                Value::Str(c.name.clone()),
                                Value::Str(c.data_type.sql_name().to_string()),
                                Value::Bool(c.nullable),
                            ])
                        })
                    })
                    .collect();
                MemRowset::new(schema, rows)
            }
            SchemaRowsetKind::Indexes => {
                let schema = Schema::new(vec![
                    Column::not_null("TABLE_NAME", DataType::Str),
                    Column::not_null("INDEX_NAME", DataType::Str),
                    Column::not_null("COLUMN_NAME", DataType::Str),
                    Column::not_null("ORDINAL", DataType::Int),
                    Column::not_null("IS_UNIQUE", DataType::Bool),
                ]);
                let rows = tables
                    .iter()
                    .flat_map(|t| {
                        t.indexes.iter().flat_map(move |ix| {
                            ix.key_columns.iter().enumerate().map(move |(pos, col)| {
                                Row::new(vec![
                                    Value::Str(t.name.clone()),
                                    Value::Str(ix.name.clone()),
                                    Value::Str(col.clone()),
                                    Value::Int(pos as i64 + 1),
                                    Value::Bool(ix.unique),
                                ])
                            })
                        })
                    })
                    .collect();
                MemRowset::new(schema, rows)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowset::RowsetExt;

    fn sample() -> Vec<TableInfo> {
        vec![TableInfo::new(
            "customer",
            vec![
                ColumnInfo::not_null("c_custkey", DataType::Int),
                ColumnInfo::new("c_name", DataType::Str),
            ],
        )
        .with_cardinality(1500)
        .with_index(IndexInfo {
            name: "pk_customer".into(),
            key_columns: vec!["c_custkey".into()],
            unique: true,
        })]
    }

    #[test]
    fn tables_rowset_reports_cardinality() {
        let mut rs = SchemaRowsetKind::Tables.to_rowset(&sample());
        let rows = rs.collect_rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Str("customer".into()));
        assert_eq!(rows[0].get(2), &Value::Int(1500));
    }

    #[test]
    fn columns_rowset_one_row_per_column() {
        let mut rs = SchemaRowsetKind::Columns.to_rowset(&sample());
        let rows = rs.collect_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get(1), &Value::Str("c_name".into()));
        assert_eq!(rows[0].get(3), &Value::Bool(false));
    }

    #[test]
    fn indexes_rowset_one_row_per_key_column() {
        let mut rs = SchemaRowsetKind::Indexes.to_rowset(&sample());
        let rows = rs.collect_rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Str("pk_customer".into()));
        assert_eq!(rows[0].get(4), &Value::Bool(true));
    }

    #[test]
    fn index_lookup_by_leading_column() {
        let t = &sample()[0];
        assert!(t.index_on("C_CUSTKEY").is_some());
        assert!(t.index_on("c_name").is_none());
        assert_eq!(t.column_index("C_NAME"), Some(1));
    }
}
