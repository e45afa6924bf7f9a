//! Statistics construction: equi-depth histograms per column plus table
//! cardinality, in the shape the OLE DB statistics extension (§3.2.4)
//! exposes to consumers.

use crate::table::Table;
use dhqp_oledb::{Histogram, TableStatistics};
use dhqp_types::Result;
use std::sync::Arc;

/// Build statistics for every column of a table.
///
/// Columns whose values are all NULL get no histogram (there is nothing to
/// bucket), but their null counts still shape `row_count`.
pub fn analyze_table(table: &Table, buckets: usize) -> Result<Arc<TableStatistics>> {
    let mut stats = TableStatistics {
        row_count: Some(table.row_count()),
        ..Default::default()
    };
    let total = table.row_count() as f64;
    for col in table.schema.columns() {
        let values = table.sorted_column_values(&col.name)?;
        let null_rows = total - values.len() as f64;
        if let Some(h) = Histogram::build(&values, buckets, null_rows) {
            stats.set_histogram(&col.name, h);
        }
    }
    Ok(Arc::new(stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Batch;
    use dhqp_types::{Column, DataType, Interval, IntervalSet, Row, Schema, Value};

    fn table_with_ints(n: i64) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("maybe", DataType::Int),
            ]),
        );
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let maybe = if i % 2 == 0 {
                    Value::Int(i * 10)
                } else {
                    Value::Null
                };
                Row::new(vec![Value::Int(i), maybe])
            })
            .collect();
        t.apply(&Batch::Insert(rows.into())).unwrap();
        t
    }

    #[test]
    fn analyze_covers_all_columns() {
        let stats = analyze_table(&table_with_ints(100), 8).unwrap();
        assert_eq!(stats.row_count, Some(100));
        assert!(stats.histogram("id").is_some());
        let maybe = stats.histogram("maybe").unwrap();
        assert!((maybe.null_rows - 50.0).abs() < 1e-9);
        assert!((maybe.total_rows - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_estimates_match_reality() {
        let stats = analyze_table(&table_with_ints(1000), 16).unwrap();
        let h = stats.histogram("id").unwrap();
        let half = IntervalSet::single(Interval::less_than(Value::Int(500)));
        let est = h.estimate_set(&half);
        assert!(
            (est - 500.0).abs() < 70.0,
            "estimate {est} should be near 500"
        );
    }

    #[test]
    fn all_null_column_has_no_histogram() {
        let mut t = Table::new("t", Schema::new(vec![Column::new("n", DataType::Int)]));
        let nulls = vec![Row::new(vec![Value::Null])];
        t.apply(&Batch::Insert(nulls.into())).unwrap();
        let stats = analyze_table(&t, 4).unwrap();
        assert!(stats.histogram("n").is_none());
    }
}
