//! Distributed partitioned views (paper §4.1.5).
//!
//! "Records in the partitioned view are distributed across the member
//! tables, each table representing a single logical partition. The range of
//! values in each member table is enforced by a CHECK constraint on a
//! column designated as the partitioning column. Each table must store a
//! disjoint range of partitioned values."

use dhqp_oledb::{TableInfo, TableSnapshot};
use dhqp_types::{DhqpError, IntervalSet, Result, Value};
use std::sync::Arc;

/// One member table of a partitioned view.
#[derive(Debug, Clone)]
pub struct MemberTable {
    /// Linked server holding the member; `None` = the local server (a
    /// *local* partitioned view member).
    pub server: Option<String>,
    pub table: String,
    /// The CHECK-constraint domain of the partitioning column.
    pub check: IntervalSet,
    /// Schema snapshot taken when the view was defined — the basis of
    /// *delayed schema validation*: compilation trusts this snapshot and
    /// execution re-verifies it.
    pub schema_snapshot: TableInfo,
}

/// A (distributed) partitioned view definition.
#[derive(Debug, Clone)]
pub struct PartitionedView {
    pub name: String,
    /// View column names, in order (shared by all members).
    pub columns: Vec<String>,
    /// Position of the partitioning column within `columns`.
    pub partition_column: usize,
    pub members: Vec<MemberTable>,
    /// One catalog snapshot per member, built once by
    /// [`PartitionedView::define`]: the definition-time schema and indexes,
    /// no statistics, and the member's CHECK range on the partitioning
    /// column. Every bind of the view shares them.
    pub catalogs: Vec<Arc<TableSnapshot>>,
}

impl PartitionedView {
    /// Define a view, verifying the §4.1.5 rules: at least one member,
    /// consistent member schemas, and pairwise-disjoint CHECK ranges.
    pub fn define(
        name: impl Into<String>,
        partition_column: &str,
        members: Vec<MemberTable>,
    ) -> Result<Self> {
        let name = name.into();
        if members.is_empty() {
            return Err(DhqpError::Catalog(format!(
                "partitioned view '{name}' needs at least one member table"
            )));
        }
        // Column lists must agree across members (by name and type).
        let first = &members[0].schema_snapshot;
        let columns: Vec<String> = first.columns.iter().map(|c| c.name.clone()).collect();
        for m in &members[1..] {
            let cols: Vec<String> = m
                .schema_snapshot
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect();
            if cols.len() != columns.len()
                || !cols
                    .iter()
                    .zip(&columns)
                    .all(|(a, b)| a.eq_ignore_ascii_case(b))
                || m.schema_snapshot
                    .columns
                    .iter()
                    .zip(&first.columns)
                    .any(|(a, b)| a.data_type != b.data_type)
            {
                return Err(DhqpError::Catalog(format!(
                    "member '{}' of view '{name}' has a different schema",
                    m.table
                )));
            }
        }
        let partition_column_pos = columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(partition_column))
            .ok_or_else(|| {
                DhqpError::Catalog(format!(
                    "partitioning column '{partition_column}' not in view '{name}'"
                ))
            })?;
        // Disjointness: "each table must store a disjoint range".
        for (i, a) in members.iter().enumerate() {
            if a.check.is_empty() {
                return Err(DhqpError::Catalog(format!(
                    "member '{}' of view '{name}' has an empty CHECK range",
                    a.table
                )));
            }
            for b in members.iter().skip(i + 1) {
                if a.check.intersects(&b.check) {
                    return Err(DhqpError::Catalog(format!(
                        "members '{}' and '{}' of view '{name}' have overlapping CHECK ranges",
                        a.table, b.table
                    )));
                }
            }
        }
        let catalogs = members
            .iter()
            .map(|m| {
                let checks = vec![(partition_column_pos, m.check.clone())];
                Arc::new(TableSnapshot::of(&m.schema_snapshot).with_checks(checks))
            })
            .collect();
        Ok(PartitionedView {
            name,
            columns,
            partition_column: partition_column_pos,
            members,
            catalogs,
        })
    }

    /// Route a partitioning-column value to its member table (INSERT
    /// routing). NULL and out-of-range values are constraint violations.
    pub fn route(&self, value: &Value) -> Result<usize> {
        if value.is_null() {
            return Err(DhqpError::Constraint(format!(
                "NULL partitioning value cannot be routed in view '{}'",
                self.name
            )));
        }
        self.members
            .iter()
            .position(|m| m.check.contains(value))
            .ok_or_else(|| {
                DhqpError::Constraint(format!(
                    "value {value} falls outside every partition of view '{}'",
                    self.name
                ))
            })
    }

    /// Member indexes whose ranges intersect a predicate domain — static
    /// pruning at the view level (used by DML planning; SELECT pruning
    /// happens in the optimizer's constraint framework).
    pub fn members_for_domain(&self, domain: &IntervalSet) -> Vec<usize> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.check.intersects(domain))
            .map(|(i, _)| i)
            .collect()
    }

    /// Delayed schema validation (§4.1.5): compare a member's *current*
    /// provider metadata against the definition-time snapshot. Called at
    /// execution, never at compile time — that is the point. This is the
    /// definition of "same schema": column count, then each column's name
    /// (ASCII case-insensitively) and data type, in order.
    /// [`TableInfo::schema_stamp`] hashes exactly these inputs, so a member
    /// that compares stamps and a head that calls this agree.
    pub fn validate_member(&self, member: usize, current: &TableInfo) -> Result<()> {
        let snap = &self.members[member].schema_snapshot;
        let same =
            current.columns.len() == snap.columns.len()
                && current.columns.iter().zip(&snap.columns).all(|(a, b)| {
                    a.name.eq_ignore_ascii_case(&b.name) && a.data_type == b.data_type
                });
        if !same {
            return Err(DhqpError::SchemaDrift(format!(
                "member '{}' of view '{}' changed schema since the plan was compiled",
                self.members[member].table, self.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_oledb::ColumnInfo;
    use dhqp_types::{DataType, Interval};

    fn member(server: Option<&str>, table: &str, lo: i64, hi: i64) -> MemberTable {
        MemberTable {
            server: server.map(str::to_string),
            table: table.to_string(),
            check: IntervalSet::single(Interval::between(Value::Int(lo), Value::Int(hi))),
            schema_snapshot: TableInfo::new(
                table,
                vec![
                    ColumnInfo::not_null("k", DataType::Int),
                    ColumnInfo::new("v", DataType::Str),
                ],
            ),
        }
    }

    fn view() -> PartitionedView {
        PartitionedView::define(
            "all_rows",
            "k",
            vec![
                member(None, "p0", 0, 9),
                member(Some("s1"), "p1", 10, 19),
                member(Some("s2"), "p2", 20, 29),
            ],
        )
        .unwrap()
    }

    #[test]
    fn define_validates_disjointness() {
        let v = view();
        assert_eq!(v.members.len(), 3);
        assert_eq!(v.partition_column, 0);
        let overlapping = PartitionedView::define(
            "bad",
            "k",
            vec![member(None, "a", 0, 10), member(None, "b", 10, 20)],
        );
        assert!(overlapping.is_err(), "touching ranges share value 10");
    }

    #[test]
    fn define_validates_schemas_and_column() {
        let mut odd = member(None, "odd", 30, 39);
        odd.schema_snapshot = TableInfo::new("odd", vec![ColumnInfo::not_null("k", DataType::Int)]);
        assert!(PartitionedView::define("v", "k", vec![member(None, "a", 0, 9), odd]).is_err());
        assert!(PartitionedView::define("v", "ghost", vec![member(None, "a", 0, 9)]).is_err());
        assert!(PartitionedView::define("v", "k", vec![]).is_err());
    }

    #[test]
    fn insert_routing() {
        let v = view();
        assert_eq!(v.route(&Value::Int(5)).unwrap(), 0);
        assert_eq!(v.route(&Value::Int(15)).unwrap(), 1);
        assert_eq!(v.route(&Value::Int(25)).unwrap(), 2);
        assert!(v.route(&Value::Int(99)).is_err());
        assert!(v.route(&Value::Null).is_err());
    }

    #[test]
    fn domain_pruning_selects_members() {
        let v = view();
        let dom = IntervalSet::single(Interval::between(Value::Int(8), Value::Int(12)));
        assert_eq!(v.members_for_domain(&dom), vec![0, 1]);
        let point = IntervalSet::point(Value::Int(22));
        assert_eq!(v.members_for_domain(&point), vec![2]);
        let nothing = IntervalSet::point(Value::Int(500));
        assert!(v.members_for_domain(&nothing).is_empty());
    }

    #[test]
    fn delayed_schema_validation_detects_drift() {
        let v = view();
        let unchanged = v.members[1].schema_snapshot.clone();
        assert!(v.validate_member(1, &unchanged).is_ok());
        let mut drifted = unchanged.clone();
        drifted.columns[1].data_type = DataType::Int;
        let err = v.validate_member(1, &drifted).unwrap_err();
        assert_eq!(err.kind(), "schema-drift");
        let mut renamed = unchanged;
        renamed.columns[1].name = "renamed".into();
        assert!(v.validate_member(1, &renamed).is_err());
    }

    const NAMES: [&str; 6] = ["k", "v", "w", "amount", "K", "Amount"];
    const TYPES: [DataType; 5] = [
        DataType::Bool,
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Date,
    ];

    /// `a` with one edit: some the comparison must ignore (name case,
    /// nullability, indexes, cardinality), some it must catch.
    fn mutated(a: &TableInfo, op: usize, at: usize, pick: usize) -> TableInfo {
        let mut b = a.clone();
        let at = at % b.columns.len();
        match op {
            0 => {}
            1 => b.columns[at].name = b.columns[at].name.to_ascii_uppercase(),
            2 => b.columns[at].nullable = !b.columns[at].nullable,
            3 => {
                b.cardinality = Some(pick as u64);
                b.indexes.push(dhqp_oledb::IndexInfo {
                    name: "ix".into(),
                    key_columns: vec![b.columns[at].name.clone()],
                    unique: false,
                });
            }
            4 => b.columns[at].name = NAMES[pick % NAMES.len()].into(),
            5 => b.columns[at].data_type = TYPES[pick % TYPES.len()],
            6 => {
                b.columns.pop();
            }
            7 => b.columns.push(ColumnInfo::new(
                NAMES[pick % NAMES.len()],
                TYPES[pick % TYPES.len()],
            )),
            _ => b.columns.swap(0, at),
        }
        b
    }

    proptest::proptest! {
        #[test]
        fn stamps_agree_iff_validation_accepts(
            columns in proptest::collection::vec((0usize..6, 0usize..5, proptest::any::<bool>()), 1..5),
            op in 0usize..9,
            at in 0usize..4,
            pick in 0usize..30,
        ) {
            let snapshot = TableInfo::new(
                "p0",
                columns
                    .iter()
                    .map(|&(n, t, nullable)| ColumnInfo {
                        name: NAMES[n].into(),
                        data_type: TYPES[t],
                        nullable,
                    })
                    .collect(),
            );
            let partition_column = snapshot.columns[0].name.clone();
            let view = PartitionedView::define(
                "v",
                &partition_column,
                vec![MemberTable {
                    server: Some("s1".into()),
                    table: "p0".into(),
                    check: IntervalSet::single(Interval::between(Value::Int(0), Value::Int(9))),
                    schema_snapshot: snapshot.clone(),
                }],
            )
            .unwrap();
            let current = mutated(&snapshot, op, at, pick);
            proptest::prop_assert!(
                (snapshot.schema_stamp() == current.schema_stamp())
                    == view.validate_member(0, &current).is_ok(),
                "{:?} vs {:?}", snapshot.columns, current.columns
            );
        }
    }
}
