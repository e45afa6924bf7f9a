//! Column pruning to the wire (DESIGN.md §20): a read through a distributed
//! partitioned view ships the columns the statement reads and no others.
//!
//! The fixture is `wan_overlap` in miniature: four quarterly members of a
//! six-column `evt` table behind `reliable` links (exact traffic, whatever
//! `DHQP_FAULT_SEED` says), partitioned on an indexed `day` the statements
//! filter on but do not return, and one plain local table with every row
//! as the oracle.

use dhqp::{BatchConfig, Engine, EngineBuilder, EngineDataSource, ParallelConfig};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource, SCHEMA_STAMP_WIRE_BYTES};
use dhqp_oledb::{DataSource, ProviderCapabilities, SourceLayer, SqlSupport, TrafficSnapshot};
use dhqp_optimizer::{PhysNode, PhysicalOp};
use dhqp_storage::{StorageEngine, TableDef};
use dhqp_types::{value::parse_date, Column, DataType, Interval, IntervalSet, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

/// First day of each 2004 quarter, and of 2005.
const QUARTERS: [&str; 5] = [
    "2004-01-01",
    "2004-04-01",
    "2004-07-01",
    "2004-10-01",
    "2005-01-01",
];

fn date(s: &str) -> i32 {
    parse_date(s).expect("a literal date")
}

fn columns() -> Vec<Column> {
    vec![
        Column::not_null("k", DataType::Int),
        Column::not_null("day", DataType::Date),
        Column::not_null("a", DataType::Int),
        Column::not_null("b", DataType::Float),
        Column::new("note", DataType::Str),
        Column::not_null("pad", DataType::Str),
    ]
}

/// One row every third day of 2004; `note` is NULL on every fifth.
fn all_rows() -> Vec<Row> {
    (date(QUARTERS[0])..date(QUARTERS[4]))
        .step_by(3)
        .enumerate()
        .map(|(i, day)| {
            let i = i as i64;
            let note = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Str(format!("n{}", i % 3))
            };
            Row::new(vec![
                Value::Int(1000 + i),
                Value::Date(day),
                Value::Int((i * 7) % 11),
                Value::Float(i as f64 / 4.0),
                note,
                Value::Str(format!("pad-{i:04}-{}", "x".repeat(40))),
            ])
        })
        .collect()
}

fn quarter_rows(q: usize) -> Vec<Row> {
    let (lo, hi) = (date(QUARTERS[q]), date(QUARTERS[q + 1]));
    all_rows()
        .into_iter()
        .filter(|r| matches!(r.get(1), Value::Date(d) if (lo..hi).contains(d)))
        .collect()
}

fn create_evt(storage: &StorageEngine, table: &str, rows: &[Row]) {
    let def = TableDef::new(table, Schema::new(columns()))
        .with_index(&format!("pk_{table}"), &["k"], true)
        .with_index(&format!("ix_{table}_day"), &["day"], false);
    storage.create_table(def).unwrap();
    storage.insert_rows(table, rows).unwrap();
    storage.analyze(table, 8).unwrap();
}

/// A provider that exposes rowsets and indexes but takes no SQL: whatever
/// the statement needs from it is computed at the head.
struct NoSql(Arc<dyn DataSource>);

impl SourceLayer for NoSql {
    fn inner(&self) -> &dyn DataSource {
        &*self.0
    }
    fn advertise(&self, caps: ProviderCapabilities) -> ProviderCapabilities {
        ProviderCapabilities {
            sql_support: SqlSupport::None,
            ..caps
        }
    }
}

struct Federation {
    head: Engine,
    members: Vec<Engine>,
    links: Vec<NetworkLink>,
}

/// `evt_all` over `evt_0..3` on linked servers `m0..3`, one quarter each;
/// the members listed in `no_sql` sit behind [`NoSql`].
fn federation(no_sql: &[usize]) -> Federation {
    let head = Engine::new("head");
    let (mut members, mut links, mut view) = (Vec::new(), Vec::new(), Vec::new());
    for q in 0..4 {
        let member = Engine::new(format!("member{q}"));
        let table = format!("evt_{q}");
        create_evt(member.storage(), &table, &quarter_rows(q));
        let mut source: Arc<dyn DataSource> = Arc::new(EngineDataSource::new(member.clone()));
        if no_sql.contains(&q) {
            source = Arc::new(NoSql(source));
        }
        let link = NetworkLink::new(format!("m{q}"), NetworkConfig::lan());
        head.add_linked_server(
            &format!("m{q}"),
            Arc::new(NetworkedDataSource::reliable(source, link.clone())),
        )
        .unwrap();
        let domain = IntervalSet::single(Interval::between(
            Value::Date(date(QUARTERS[q])),
            Value::Date(date(QUARTERS[q + 1]) - 1),
        ));
        view.push((Some(format!("m{q}")), table, domain));
        members.push(member);
        links.push(link);
    }
    head.define_partitioned_view("evt_all", "day", view)
        .unwrap();
    // The byte and request counts below are of warm, cached statements.
    head.set_plan_cache_enabled(true);
    Federation {
        head,
        members,
        links,
    }
}

/// Every row in one plain local table named like the view.
fn unfederated() -> Engine {
    let engine = Engine::new("solo");
    create_evt(engine.storage(), "evt_all", &all_rows());
    engine
}

fn without_column_pruning(engine: &Engine) {
    let mut config = engine.optimizer_config();
    config.simplify.column_pruning = false;
    engine.set_optimizer_config(config);
}

impl Federation {
    /// Run `sql` once more than needed (plan compiled, sessions pooled),
    /// then return the analyzed run's report and each link's traffic.
    fn warm_run(&self, sql: &str) -> (dhqp::AnalyzeReport, Vec<TrafficSnapshot>) {
        self.head
            .query(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let before: Vec<_> = self.links.iter().map(NetworkLink::snapshot).collect();
        let report = self
            .head
            .execute_analyze(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        let delta = self
            .links
            .iter()
            .zip(&before)
            .map(|(l, b)| l.snapshot().since(b))
            .collect();
        (report, delta)
    }
}

/// `(server, statement text)` of every `RemoteQuery` in `plan`.
fn shipped(plan: &PhysNode) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if let PhysicalOp::RemoteQuery { server, sql, .. } = &plan.op {
        out.push((server.to_string(), sql.clone()));
    }
    out.extend(plan.children.iter().flat_map(shipped));
    out
}

/// The columns a shipped statement selects: qualifier, bracket quoting and
/// output alias removed.
fn select_list(sql: &str) -> Vec<String> {
    let list = sql
        .strip_prefix("SELECT ")
        .and_then(|s| s.split(" FROM ").next())
        .unwrap_or_else(|| panic!("not a SELECT: {sql}"));
    list.split(", ")
        .map(|item| {
            let column = item.split(" AS ").next().unwrap_or(item);
            let name = column.rsplit('.').next().unwrap_or(column);
            name.replace(['[', ']'], "")
        })
        .collect()
}

fn multiset(result: &dhqp::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Rows of quarter `q` whose day lies in `[lo, hi]`, projected to `cols`
/// (positions in the member schema).
fn expected_rows(q: usize, lo: &str, hi: &str, cols: &[usize]) -> Vec<Row> {
    quarter_rows(q)
        .into_iter()
        .filter(|r| matches!(r.get(1), Value::Date(d) if (date(lo)..=date(hi)).contains(d)))
        .map(|r| Row::new(cols.iter().map(|&c| r.get(c).clone()).collect()))
        .collect()
}

fn wire(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.wire_size() as u64).sum()
}

const NARROW: &str = "SELECT a, b FROM evt_all WHERE day BETWEEN '2004-02-10' AND '2004-08-20'";
const RANGE: (&str, &str) = ("2004-02-10", "2004-08-20");

// ---------------------------------------------------------------------------
// The wire
// ---------------------------------------------------------------------------

/// The statement reads `a` and `b` and filters on `day`: each touched member
/// gets one statement naming exactly `a, b`, and what comes back is
/// rows × (8 B header + 16 B) — `day`, read by the pushed predicate only,
/// stays at the member with the three columns nobody reads.
#[test]
fn a_narrow_read_ships_the_columns_it_returns_and_nothing_else() {
    for parallel in [ParallelConfig::serial(), ParallelConfig::parallel()] {
        let on = federation(&[]);
        let off = federation(&[]);
        without_column_pruning(&off.head);
        for f in [&on, &off] {
            f.head.set_parallel_config(parallel.clone());
        }
        let (report, narrow) = on.warm_run(NARROW);
        let (_, full) = off.warm_run(NARROW);

        let statements: HashMap<String, String> = shipped(&report.plan).into_iter().collect();
        assert_eq!(statements.len(), 3, "{}", report.render());
        for q in 0..4 {
            let mode = format!("m{q} {parallel:?}");
            assert_eq!(narrow[q].requests, full[q].requests, "{mode}");
            assert_eq!(narrow[q].rows, full[q].rows, "{mode}");
            if q == 3 {
                // Q4 is pruned at compile time on both engines.
                assert!(narrow[q].is_zero() && full[q].is_zero(), "{mode}");
                continue;
            }
            let sql = &statements[&format!("m{q}")];
            assert_eq!(select_list(sql), ["a", "b"], "{sql}");
            let rows = expected_rows(q, RANGE.0, RANGE.1, &[2, 3]);
            assert!(!rows.is_empty());
            assert_eq!(narrow[q].requests, 1, "{mode}");
            assert_eq!(narrow[q].rows, rows.len() as u64, "{mode}");
            assert_eq!(wire(&rows), rows.len() as u64 * (8 + 16));
            assert_eq!(
                narrow[q].bytes,
                wire(&rows) + sql.len() as u64 + SCHEMA_STAMP_WIRE_BYTES,
                "{mode}: {sql}"
            );
            assert!(narrow[q].bytes < full[q].bytes, "{mode}");
        }
        // Nothing is left for a projection to do above the union.
        assert!(
            matches!(report.plan.op, PhysicalOp::UnionAll { .. }),
            "{}",
            report.render()
        );
    }
}

/// `SELECT *` reads every column: the pass has nothing to drop, and the
/// links carry what they carried without it.
#[test]
fn select_star_ships_what_it_always_did() {
    let sql = "SELECT * FROM evt_all WHERE day BETWEEN '2004-02-10' AND '2004-08-20'";
    let on = federation(&[]);
    let off = federation(&[]);
    without_column_pruning(&off.head);
    let (a, with) = on.warm_run(sql);
    let (b, without) = off.warm_run(sql);
    assert_eq!(with, without);
    assert_eq!(multiset(&a.result), multiset(&b.result));
    for (q, link) in with.iter().enumerate().take(3) {
        let rows = expected_rows(q, RANGE.0, RANGE.1, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(link.rows, rows.len() as u64, "m{q}");
        let requests = link.bytes - wire(&rows);
        assert!(
            requests > 0 && requests < 400,
            "m{q}: {requests} B of requests"
        );
    }
}

/// AVG and COUNT(DISTINCT) are not split into per-member partials, so the
/// members ship raw rows — of the argument and grouping columns only.
#[test]
fn a_non_splittable_aggregate_ships_its_inputs_only() {
    let f = federation(&[]);
    let oracle = unfederated();
    let cases: [(&str, &[&str], &[usize]); 2] = [
        (
            "SELECT a, AVG(b) AS m FROM evt_all \
             WHERE day BETWEEN '2004-02-10' AND '2004-08-20' GROUP BY a",
            &["a", "b"],
            &[2, 3],
        ),
        (
            "SELECT COUNT(DISTINCT note) AS n FROM evt_all \
             WHERE day BETWEEN '2004-02-10' AND '2004-08-20'",
            &["note"],
            &[4],
        ),
    ];
    for (sql, list, positions) in cases {
        let (report, traffic) = f.warm_run(sql);
        assert_eq!(
            multiset(&report.result),
            multiset(&oracle.query(sql).unwrap()),
            "{sql}"
        );
        let statements = shipped(&report.plan);
        assert_eq!(statements.len(), 3, "{}", report.render());
        for (server, text) in &statements {
            assert_eq!(select_list(text), list, "@{server}: {text}");
            let q: usize = server[1..].parse().unwrap();
            let rows = expected_rows(q, RANGE.0, RANGE.1, positions);
            assert_eq!(
                traffic[q].bytes,
                wire(&rows) + text.len() as u64 + SCHEMA_STAMP_WIRE_BYTES,
                "@{server}: {text}"
            );
        }
        assert!(traffic[3].is_zero(), "{sql}");
    }
}

/// A member that takes no SQL is read through its index; the whole row
/// crosses that link and the head projects. Same answer, and the SQL
/// members beside it are still sent the narrow statement.
#[test]
fn an_index_only_member_is_projected_at_the_head() {
    let f = federation(&[1]);
    let oracle = unfederated();
    let (report, traffic) = f.warm_run(NARROW);
    assert_eq!(
        multiset(&report.result),
        multiset(&oracle.query(NARROW).unwrap())
    );
    let statements = shipped(&report.plan);
    let servers: Vec<&str> = statements.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(servers, ["m0", "m2"], "{}", report.render());
    let branch = &report.plan.children[1];
    assert!(
        matches!(branch.op, PhysicalOp::Project { .. }),
        "{}",
        report.render()
    );
    assert!(
        branch
            .find_op(&mut |op| matches!(
                op,
                PhysicalOp::RemoteRange { .. } | PhysicalOp::RemoteScan { .. }
            ))
            .is_some(),
        "{}",
        report.render()
    );
    let whole = expected_rows(1, RANGE.0, RANGE.1, &[0, 1, 2, 3, 4, 5]);
    assert!(traffic[1].bytes > wire(&whole), "{:?}", traffic[1]);
    let narrow = expected_rows(0, RANGE.0, RANGE.1, &[2, 3]);
    assert!(traffic[0].bytes < wire(&narrow) + 200, "{:?}", traffic[0]);
}

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// Statement shapes the pass treats differently: a narrow read, a column
/// only the predicate reads, the partitioning column alone, a reordered
/// list, nothing read at all, non-splittable and splittable aggregates,
/// explicit UNION [ALL] over the view, a join on a pruned view, `*`.
const SHAPES: &[&str] = &[
    NARROW,
    "SELECT a FROM evt_all WHERE note = 'n1'",
    "SELECT k FROM evt_all WHERE note IS NULL AND day >= '2004-06-01'",
    "SELECT day FROM evt_all WHERE day BETWEEN '2004-03-20' AND '2004-04-10'",
    "SELECT b, k FROM evt_all WHERE day BETWEEN '2004-03-20' AND '2004-04-10'",
    "SELECT a, a + k AS s FROM evt_all WHERE day > '2004-11-30'",
    "SELECT COUNT(*) AS n FROM evt_all WHERE a > 3",
    "SELECT a, AVG(b) AS m FROM evt_all WHERE day < '2004-09-01' GROUP BY a",
    "SELECT COUNT(DISTINCT note) AS n FROM evt_all",
    "SELECT a, SUM(b) AS s, MAX(k) AS hi FROM evt_all GROUP BY a",
    "SELECT DISTINCT note FROM evt_all WHERE day >= '2004-04-01'",
    "SELECT TOP 7 k, b FROM evt_all WHERE a = 2 ORDER BY b DESC, k",
    "SELECT a FROM evt_all WHERE day < '2004-02-01' UNION SELECT a FROM evt_all WHERE a > 8",
    "SELECT k FROM evt_all WHERE day < '2004-01-20' UNION ALL \
     SELECT k FROM evt_all WHERE day > '2004-12-10'",
    "SELECT x.k, y.b FROM evt_all x JOIN evt_all y ON x.k = y.k \
     WHERE x.day BETWEEN '2004-05-01' AND '2004-05-31' AND y.a < 6",
    "SELECT * FROM evt_all WHERE day BETWEEN '2004-06-25' AND '2004-07-05'",
];

#[test]
fn every_shape_matches_the_unfederated_engine_in_every_mode() {
    let oracle = unfederated();
    let expected: Vec<Vec<String>> = SHAPES
        .iter()
        .map(|sql| multiset(&oracle.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))))
        .collect();
    assert!(expected.iter().all(|rows| !rows.is_empty()));
    for parallel in [ParallelConfig::serial(), ParallelConfig::parallel()] {
        for batch in [BatchConfig::batched(1), BatchConfig::batched(3)] {
            // One SQL-less member in the mix: its branch keeps the
            // head-side projection while the others ship narrow statements.
            for no_sql in [&[][..], &[2][..]] {
                let f = federation(no_sql);
                f.head.set_parallel_config(parallel.clone());
                f.head.set_batch_config(batch.clone());
                for pass in ["cold", "warm"] {
                    for (sql, want) in SHAPES.iter().zip(&expected) {
                        let got = f.head.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                        assert_eq!(
                            &multiset(&got),
                            want,
                            "{pass} {parallel:?} {batch:?} no_sql={no_sql:?}: {sql}"
                        );
                    }
                }
                assert!(f.head.metrics().plan_cache_hits > 0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Startup filters
// ---------------------------------------------------------------------------

/// The branch projection sits *under* the startup filter. Were it on top,
/// the executor would not find the filter at the branch root, would open
/// all four members, and nothing else would notice: the lazy filter inside
/// each branch still returns the right rows.
#[test]
fn a_narrowed_branch_is_still_skipped_before_it_is_opened() {
    let sql = "SELECT a FROM evt_all WHERE day = @d";
    let d = || HashMap::from([("d".to_string(), Value::Date(date("2004-05-03")))]);
    for parallel in [ParallelConfig::serial(), ParallelConfig::parallel()] {
        let f = federation(&[]);
        f.head.set_parallel_config(parallel.clone());
        // The subject, whatever DHQP_RUNTIME_PRUNE says.
        f.head.set_runtime_prune(true);
        let want = expected_rows(1, "2004-05-03", "2004-05-03", &[2]);
        assert_eq!(want.len(), 1);
        assert_eq!(f.head.query_with_params(sql, d()).unwrap().rows, want);

        let skipped = f.head.metrics().startup_members_skipped;
        let before: Vec<_> = f.links.iter().map(NetworkLink::snapshot).collect();
        let report = f.head.execute_analyze_with_params(sql, d()).unwrap();
        assert_eq!(report.result.rows, want, "{parallel:?}");
        assert_eq!(
            report.record.startup_pruned,
            ["m0", "m2", "m3"],
            "{parallel:?}"
        );
        assert_eq!(
            f.head.metrics().startup_members_skipped,
            skipped + 3,
            "{parallel:?}"
        );
        let requests: Vec<u64> = f
            .links
            .iter()
            .zip(&before)
            .map(|(l, b)| l.snapshot().since(b).requests)
            .collect();
        assert_eq!(requests, [0, 1, 0, 0], "{parallel:?}");

        let rendered = report.render();
        assert!(
            rendered.contains("[startup: skipped members=m0, m2, m3]"),
            "{rendered}"
        );
        assert_eq!(
            rendered.matches("(never executed)").count(),
            // A skipped branch is a StartupFilter over a RemoteQuery.
            3 * 2,
            "{rendered}"
        );
        for branch in &report.plan.children {
            assert!(
                matches!(branch.op, PhysicalOp::StartupFilter { .. }),
                "{rendered}"
            );
            let (_, text) = &shipped(branch)[0];
            assert_eq!(select_list(text), ["a"], "{text}");
        }
    }
}

// ---------------------------------------------------------------------------
// Delayed schema validation on the RemoteQuery path
// ---------------------------------------------------------------------------

/// Recreate member 1's table with `pad` replaced by `with` (or dropped).
fn change_pad(member: &Engine, with: Option<Column>) {
    member.storage().drop_table("evt_1").unwrap();
    let mut cols = columns();
    cols.pop();
    cols.extend(with);
    let width = cols.len();
    let rows: Vec<Row> = quarter_rows(1)
        .into_iter()
        .map(|r| {
            let mut values: Vec<Value> = (0..5).map(|c| r.get(c).clone()).collect();
            values.resize(width, Value::Int(0));
            Row::new(values)
        })
        .collect();
    member
        .storage()
        .create_table(TableDef::new("evt_1", Schema::new(cols)))
        .unwrap();
    member.storage().insert_rows("evt_1", &rows).unwrap();
}

/// The members now run a statement that names three of their six columns,
/// and would run it happily against a table that lost or retyped a fourth.
/// The stamp on the open covers the whole column list, so the cached plan
/// is refused all the same — and the check still costs no request of its
/// own: one per touched member, in every dispatch mode.
#[test]
fn drift_in_a_column_the_statement_does_not_read_still_fails_it() {
    for parallel in &[ParallelConfig::serial(), ParallelConfig::parallel()] {
        for batch in [BatchConfig::batched(1), BatchConfig::batched(3)] {
            for change in [None, Some(Column::not_null("pad", DataType::Int))] {
                let mode = format!("{parallel:?} {batch:?} pad -> {change:?}");
                let f = federation(&[]);
                f.head.set_parallel_config(parallel.clone());
                f.head.set_batch_config(batch.clone());
                let (report, traffic) = f.warm_run(NARROW);
                assert_eq!(shipped(&report.plan).len(), 3, "{mode}");
                let requests: Vec<u64> = traffic.iter().map(|t| t.requests).collect();
                assert_eq!(requests, [1, 1, 1, 0], "{mode}");

                change_pad(&f.members[1], change);
                let hits = f.head.metrics().plan_cache_hits;
                let err = f.head.query(NARROW).unwrap_err();
                assert_eq!(err.kind(), "schema-drift", "{mode}: {err}");
                assert_eq!(f.head.metrics().plan_cache_hits, hits + 1, "{mode}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Keys shipped to an index-only member
// ---------------------------------------------------------------------------

/// A member that takes no SQL is sent a join's keys as index ranges, one
/// distinct key at a time (the one-key `SemiJoinReduce` through its index).
/// A NULL key equals nothing, and no request is sent for it.
#[test]
fn a_null_join_key_sends_no_request_to_an_index_only_member() {
    // Exact requests are asserted: the shipped defaults, whatever `DHQP_*`
    // leg the suite runs in.
    let build = |name: &str| EngineBuilder::from_lookup(name, |_| None).build();
    let (member, oracle, head) = (build("member"), build("solo"), build("head"));
    let p = || {
        let columns = vec![
            Column::new("k", DataType::Int),
            Column::not_null("v", DataType::Int),
        ];
        TableDef::new("p", Schema::new(columns)).with_index("ix_p_k", &["k"], false)
    };
    let p_rows: Vec<Row> = (0..5_000)
        .map(|i| {
            let k = if i == 4_999 {
                Value::Null
            } else {
                Value::Int(i)
            };
            Row::new(vec![k, Value::Int(i * 10)])
        })
        .collect();
    let l = || TableDef::new("l", Schema::new(vec![Column::new("k", DataType::Int)]));
    let l_rows: Vec<Row> = [
        Value::Int(1),
        Value::Int(1),
        Value::Int(1),
        Value::Int(2),
        Value::Null,
    ]
    .into_iter()
    .map(|k| Row::new(vec![k]))
    .collect();
    for storage in [member.storage(), oracle.storage()] {
        storage.create_table(p()).unwrap();
        storage.insert_rows("p", &p_rows).unwrap();
        storage.analyze("p", 8).unwrap();
    }
    for engine in [&head, &oracle] {
        engine.create_table(l()).unwrap();
        engine.insert("l", &l_rows).unwrap();
    }
    let link = NetworkLink::new("m", NetworkConfig::lan());
    let source = Arc::new(NoSql(Arc::new(EngineDataSource::new(member))));
    head.add_linked_server(
        "m",
        Arc::new(NetworkedDataSource::reliable(source, link.clone())),
    )
    .unwrap();
    let join = |p: &str| format!("SELECT l.k, p.v FROM l JOIN {p} p ON l.k = p.k");
    let sql = join("m.db.dbo.p");
    head.query(&sql).unwrap();
    let (before, reductions) = (link.snapshot(), head.metrics().semijoin_reductions);
    let report = head.execute_analyze(&sql).unwrap();
    let sent = link.snapshot().since(&before);
    let plan = report.render();
    assert_eq!(head.metrics().semijoin_reductions, reductions + 1, "{plan}");
    assert!(
        plan.contains("SemiJoinReduce(@m keys=1: p.ix_p_k)"),
        "{plan}"
    );
    assert!(plan.contains("[semijoin: keys=2 bytes=0]"), "{plan}");
    assert_eq!(
        multiset(&report.result),
        multiset(&oracle.query(&join("p")).unwrap())
    );
    assert_eq!(report.result.len(), 4);
    // One index range per distinct non-NULL outer key, 1 and 2, and the
    // row of each key.
    assert_eq!((sent.requests, sent.rows), (2, 2), "{plan}");
}
