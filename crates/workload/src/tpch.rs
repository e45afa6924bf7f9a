//! Scaled-down deterministic TPC-H-style data.
//!
//! The paper's Example 1 runs on a 10 GB TPC-H database; the plan-choice
//! crossover it illustrates depends on *relative* cardinalities (customers
//! ≫ nations, customer⋈supplier being much larger than either input), which
//! are preserved here at laptop scale.

use dhqp_storage::{StorageEngine, TableDef};
use dhqp_types::{value::parse_date, Column, DataType, Result, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row counts for one generation run. TPC-H ratios at a miniature scale.
#[derive(Debug, Clone, Copy)]
pub struct TpchScale {
    pub nations: usize,
    pub customers: usize,
    pub suppliers: usize,
    pub orders: usize,
    pub lineitems_per_order: usize,
}

impl TpchScale {
    /// Tiny data for unit tests.
    pub fn tiny() -> Self {
        TpchScale {
            nations: 5,
            customers: 60,
            suppliers: 12,
            orders: 120,
            lineitems_per_order: 3,
        }
    }

    /// Large enough for plan effects (Figure 4's choice), small enough to
    /// build inside a test.
    pub fn small() -> Self {
        TpchScale {
            nations: 25,
            customers: 3000,
            suppliers: 200,
            orders: 6000,
            lineitems_per_order: 4,
        }
    }
}

const NATION_NAMES: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

const REGION_NAMES: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

const CITIES: [&str; 8] = [
    "Seattle", "Portland", "Redmond", "Tacoma", "Spokane", "Boise", "Eugene", "Olympia",
];

/// Create the `region` table (five rows, as in TPC-H).
pub fn create_region(engine: &StorageEngine) -> Result<()> {
    engine.create_table(
        TableDef::new(
            "region",
            Schema::new(vec![
                Column::not_null("r_regionkey", DataType::Int),
                Column::not_null("r_name", DataType::Str),
            ]),
        )
        .with_index("pk_region", &["r_regionkey"], true),
    )?;
    let rows: Vec<Row> = REGION_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| Row::new(vec![Value::Int(i as i64), Value::Str(name.to_string())]))
        .collect();
    engine.insert_rows("region", &rows)?;
    Ok(())
}

/// Create the `nation` table.
pub fn create_nation(engine: &StorageEngine, scale: &TpchScale) -> Result<()> {
    engine.create_table(
        TableDef::new(
            "nation",
            Schema::new(vec![
                Column::not_null("n_nationkey", DataType::Int),
                Column::not_null("n_name", DataType::Str),
                Column::not_null("n_regionkey", DataType::Int),
            ]),
        )
        .with_index("pk_nation", &["n_nationkey"], true),
    )?;
    let rows: Vec<Row> = (0..scale.nations)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Str(NATION_NAMES[i % NATION_NAMES.len()].to_string()),
                Value::Int((i % 5) as i64),
            ])
        })
        .collect();
    engine.insert_rows("nation", &rows)?;
    Ok(())
}

/// Create the `customer` table.
pub fn create_customer(engine: &StorageEngine, scale: &TpchScale, rng: &mut StdRng) -> Result<()> {
    engine.create_table(
        TableDef::new(
            "customer",
            Schema::new(vec![
                Column::not_null("c_custkey", DataType::Int),
                Column::not_null("c_name", DataType::Str),
                Column::not_null("c_address", DataType::Str),
                Column::not_null("c_phone", DataType::Str),
                Column::not_null("c_nationkey", DataType::Int),
                Column::not_null("c_city", DataType::Str),
                Column::not_null("c_acctbal", DataType::Float),
            ]),
        )
        .with_index("pk_customer", &["c_custkey"], true)
        .with_index("ix_customer_nation", &["c_nationkey"], false),
    )?;
    let rows: Vec<Row> = (0..scale.customers)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Str(format!("Customer#{i:06}")),
                Value::Str(format!("{} Main St", rng.gen_range(1..999))),
                Value::Str(format!(
                    "25-{:03}-{:04}",
                    rng.gen_range(100..999),
                    rng.gen_range(1000..9999)
                )),
                Value::Int(rng.gen_range(0..scale.nations) as i64),
                Value::Str(CITIES[rng.gen_range(0..CITIES.len())].to_string()),
                Value::Float((rng.gen_range(-99_999..999_999) as f64) / 100.0),
            ])
        })
        .collect();
    engine.insert_rows("customer", &rows)?;
    Ok(())
}

/// Create the `supplier` table.
pub fn create_supplier(engine: &StorageEngine, scale: &TpchScale, rng: &mut StdRng) -> Result<()> {
    engine.create_table(
        TableDef::new(
            "supplier",
            Schema::new(vec![
                Column::not_null("s_suppkey", DataType::Int),
                Column::not_null("s_name", DataType::Str),
                Column::not_null("s_nationkey", DataType::Int),
                Column::not_null("s_acctbal", DataType::Float),
            ]),
        )
        .with_index("pk_supplier", &["s_suppkey"], true)
        .with_index("ix_supplier_nation", &["s_nationkey"], false),
    )?;
    let rows: Vec<Row> = (0..scale.suppliers)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Str(format!("Supplier#{i:04}")),
                Value::Int(rng.gen_range(0..scale.nations) as i64),
                Value::Float((rng.gen_range(-99_999..999_999) as f64) / 100.0),
            ])
        })
        .collect();
    engine.insert_rows("supplier", &rows)?;
    Ok(())
}

/// Create the `orders` table.
pub fn create_orders(engine: &StorageEngine, scale: &TpchScale, rng: &mut StdRng) -> Result<()> {
    engine.create_table(
        TableDef::new(
            "orders",
            Schema::new(vec![
                Column::not_null("o_orderkey", DataType::Int),
                Column::not_null("o_custkey", DataType::Int),
                Column::not_null("o_orderdate", DataType::Date),
                Column::not_null("o_totalprice", DataType::Float),
            ]),
        )
        .with_index("pk_orders", &["o_orderkey"], true)
        .with_index("ix_orders_cust", &["o_custkey"], false),
    )?;
    let epoch_92 = parse_date("1992-01-01").expect("valid date");
    let rows: Vec<Row> = (0..scale.orders)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..scale.customers) as i64),
                Value::Date(epoch_92 + rng.gen_range(0..7 * 365)),
                Value::Float((rng.gen_range(1_000..500_000) as f64) / 100.0),
            ])
        })
        .collect();
    engine.insert_rows("orders", &rows)?;
    Ok(())
}

/// The lineitem schema (shared by the monolithic table and DPV members).
pub fn lineitem_schema() -> Schema {
    Schema::new(vec![
        Column::not_null("l_orderkey", DataType::Int),
        Column::not_null("l_linenumber", DataType::Int),
        Column::not_null("l_suppkey", DataType::Int),
        Column::not_null("l_quantity", DataType::Int),
        Column::not_null("l_extendedprice", DataType::Float),
        Column::not_null("l_commitdate", DataType::Date),
    ])
}

/// Generate lineitem rows (commit dates uniform over 1992-01-01 ..
/// 1998-12-31, the seven partitioning years of §4.1.5).
pub fn lineitem_rows(scale: &TpchScale, rng: &mut StdRng) -> Vec<Row> {
    let epoch_92 = parse_date("1992-01-01").expect("valid date");
    let mut rows = Vec::with_capacity(scale.orders * scale.lineitems_per_order);
    for order in 0..scale.orders {
        for line in 0..scale.lineitems_per_order {
            rows.push(Row::new(vec![
                Value::Int(order as i64),
                Value::Int(line as i64 + 1),
                Value::Int(rng.gen_range(0..scale.suppliers.max(1)) as i64),
                Value::Int(rng.gen_range(1..50)),
                Value::Float((rng.gen_range(100..100_000) as f64) / 100.0),
                Value::Date(epoch_92 + rng.gen_range(0..7 * 365)),
            ]));
        }
    }
    rows
}

/// Create the monolithic `lineitem` table.
pub fn create_lineitem(engine: &StorageEngine, scale: &TpchScale, rng: &mut StdRng) -> Result<()> {
    engine.create_table(
        TableDef::new("lineitem", lineitem_schema())
            .with_index("ix_lineitem_order", &["l_orderkey"], false)
            .with_index("ix_lineitem_commit", &["l_commitdate"], false),
    )?;
    engine.insert_rows("lineitem", &lineitem_rows(scale, rng))?;
    Ok(())
}

/// Load the full schema into one engine and analyze every table.
pub fn load_all(engine: &StorageEngine, scale: &TpchScale, seed: u64) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    create_region(engine)?;
    create_nation(engine, scale)?;
    create_customer(engine, scale, &mut rng)?;
    create_supplier(engine, scale, &mut rng)?;
    create_orders(engine, scale, &mut rng)?;
    create_lineitem(engine, scale, &mut rng)?;
    for t in [
        "region", "nation", "customer", "supplier", "orders", "lineitem",
    ] {
        engine.analyze(t, 24)?;
    }
    Ok(())
}

/// Create `lineitem_<year>` member tables with CHECK constraints on
/// `l_commitdate` (the paper's §4.1.5 partitioning) and distribute rows
/// into the engines round-robin by year. Returns the member descriptors
/// `(engine index, table name, year domain)`.
pub fn create_lineitem_partitions(
    engines: &[&StorageEngine],
    scale: &TpchScale,
    seed: u64,
) -> Result<Vec<(usize, String, dhqp_types::IntervalSet)>> {
    use dhqp_storage::CheckConstraint;
    use dhqp_types::{Interval, IntervalSet};
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = lineitem_rows(scale, &mut rng);
    let mut members = Vec::new();
    for year in 1992..=1998 {
        let lo = parse_date(&format!("{year}-01-01")).expect("valid date");
        let hi = parse_date(&format!("{}-01-01", year + 1)).expect("valid date");
        let domain = IntervalSet::single(Interval {
            low: dhqp_types::IntervalBound::Included(Value::Date(lo)),
            high: dhqp_types::IntervalBound::Excluded(Value::Date(hi)),
        });
        let engine_idx = (year - 1992) % engines.len();
        let table = format!("lineitem_{}", year % 100);
        engines[engine_idx].create_table(
            TableDef::new(&table, lineitem_schema())
                .with_index(&format!("ix_{table}_commit"), &["l_commitdate"], false)
                .with_check(CheckConstraint {
                    name: format!("ck_{table}"),
                    column: "l_commitdate".into(),
                    domain: domain.clone(),
                }),
        )?;
        let member_rows: Vec<Row> = rows
            .iter()
            .filter(|r| domain.contains(r.get(5)))
            .cloned()
            .collect();
        engines[engine_idx].insert_rows(&table, &member_rows)?;
        engines[engine_idx].analyze(&table, 16)?;
        members.push((engine_idx, table, domain));
    }
    Ok(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_deterministic() {
        let a = StorageEngine::new("a");
        let b = StorageEngine::new("b");
        load_all(&a, &TpchScale::tiny(), 42).unwrap();
        load_all(&b, &TpchScale::tiny(), 42).unwrap();
        let ra = a.with_table("customer", |t| t.scan_rows()).unwrap();
        let rb = b.with_table("customer", |t| t.scan_rows()).unwrap();
        assert_eq!(ra, rb);
        // Different seed differs.
        let c = StorageEngine::new("c");
        load_all(&c, &TpchScale::tiny(), 43).unwrap();
        let rc = c.with_table("customer", |t| t.scan_rows()).unwrap();
        assert_ne!(ra, rc);
    }

    #[test]
    fn cardinalities_match_scale() {
        let e = StorageEngine::new("e");
        let scale = TpchScale::tiny();
        load_all(&e, &scale, 1).unwrap();
        assert_eq!(e.with_table("customer", |t| t.row_count()).unwrap(), 60);
        assert_eq!(e.with_table("region", |t| t.row_count()).unwrap(), 5);
        assert_eq!(
            e.with_table("lineitem", |t| t.row_count()).unwrap(),
            (scale.orders * scale.lineitems_per_order) as u64
        );
        assert!(e
            .statistics("customer")
            .unwrap()
            .histogram("c_nationkey")
            .is_some());
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let e1 = StorageEngine::new("p1");
        let e2 = StorageEngine::new("p2");
        let scale = TpchScale::tiny();
        let members = create_lineitem_partitions(&[&e1, &e2], &scale, 7).unwrap();
        assert_eq!(members.len(), 7);
        let total: u64 = members
            .iter()
            .map(|(idx, table, _)| {
                let engine = if *idx == 0 { &e1 } else { &e2 };
                engine.with_table(table, |t| t.row_count()).unwrap()
            })
            .sum();
        assert_eq!(total, (scale.orders * scale.lineitems_per_order) as u64);
        // Same seed as monolithic load yields the same multiset of rows.
        let mono = StorageEngine::new("m");
        let mut rng = StdRng::seed_from_u64(7);
        let all = lineitem_rows(&scale, &mut rng);
        let _ = mono;
        assert_eq!(all.len(), scale.orders * scale.lineitems_per_order);
    }
}
