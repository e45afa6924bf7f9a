//! Property-based tests over the engine's core invariants.

use dhqp::Engine;
use dhqp_storage::TableDef;
use dhqp_types::{
    value::{format_date, like_match, parse_date},
    Column, DataType, Interval, IntervalSet, Row, Schema, Value,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// value model
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000i64..1000).prop_map(|i| Value::Float(i as f64 / 4.0)),
        "[a-z]{0,6}".prop_map(Value::Str),
        (-30000i32..30000).prop_map(Value::Date),
    ]
}

proptest! {
    #[test]
    fn total_order_is_total_and_antisymmetric(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        // Transitivity on a sorted triple.
        let mut v = [a, b, c];
        v.sort_by(|x, y| x.total_cmp(y));
        prop_assert_ne!(v[0].total_cmp(&v[1]), Ordering::Greater);
        prop_assert_ne!(v[1].total_cmp(&v[2]), Ordering::Greater);
        prop_assert_ne!(v[0].total_cmp(&v[2]), Ordering::Greater);
    }

    #[test]
    fn sql_cmp_agrees_with_total_order_when_defined(a in arb_value(), b in arb_value()) {
        // Whenever SQL comparison is defined, it matches the total order.
        if let Some(ord) = a.sql_cmp(&b) {
            prop_assert_eq!(ord, a.total_cmp(&b));
        }
    }

    #[test]
    fn equal_values_hash_equal(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    #[test]
    fn date_roundtrip(days in -100_000i32..100_000) {
        prop_assert_eq!(parse_date(&format_date(days)), Some(days));
    }

    #[test]
    fn like_match_never_panics(s in ".{0,20}", p in "[a-z%_]{0,12}") {
        let _ = like_match(&s, &p);
    }

    #[test]
    fn like_percent_matches_everything(s in "[a-z]{0,12}") {
        prop_assert!(like_match(&s, "%"));
        let pat = format!("%{s}%");
        prop_assert!(like_match(&s, &pat));
    }
}

// ---------------------------------------------------------------------------
// interval algebra (the constraint property framework substrate)
// ---------------------------------------------------------------------------

/// Points, and ranges whose ends are each included, excluded or unbounded.
fn arb_interval() -> impl Strategy<Value = Interval> {
    (-50i64..50, 0i64..30, 0u8..3, 0u8..3, 0u8..4).prop_map(|(lo, width, low, high, point)| {
        use dhqp_types::IntervalBound::*;
        if point == 0 {
            return Interval::point(Value::Int(lo));
        }
        let end = |kind, v| match kind {
            0 => Included(Value::Int(v)),
            1 => Excluded(Value::Int(v)),
            _ => Unbounded,
        };
        Interval {
            low: end(low, lo),
            high: end(high, lo + width),
        }
    })
}

fn arb_set() -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec(arb_interval(), 0..6).prop_map(IntervalSet::from_intervals)
}

proptest! {
    /// Every integer and half-integer in and around the generated ranges
    /// is a member of a union, intersection or complement exactly when the
    /// operands' memberships say it is.
    #[test]
    fn interval_ops_match_membership_oracle(a in arb_set(), b in arb_set()) {
        let (union, intersection, complement) = (a.union(&b), a.intersect(&b), a.complement());
        for half in -130i64..170 {
            let v = Value::Float(half as f64 / 2.0);
            let in_a = a.contains(&v);
            let in_b = b.contains(&v);
            prop_assert!(union.contains(&v) == (in_a || in_b), "{} in {} U {}", v, a, b);
            prop_assert!(intersection.contains(&v) == (in_a && in_b), "{} in {} ^ {}", v, a, b);
            prop_assert!(complement.contains(&v) != in_a, "{} in ~{}", v, a);
        }
        // Each result is already normalized: sorted, disjoint, not touching.
        for set in [union, intersection, complement] {
            let renormalized = IntervalSet::from_intervals(set.intervals().to_vec());
            prop_assert!(renormalized == set, "{} is not normalized", set);
        }
    }

    #[test]
    fn intersects_iff_shared_member(a in arb_set(), b in arb_set()) {
        // Exhaustively check the bounded integer domain used above.
        let shares = (-90i64..90).any(|i| {
            let v = Value::Int(i);
            a.contains(&v) && b.contains(&v)
        });
        // `intersects` may be true for non-integer overlap (e.g. (3,4)
        // intervals with no integer member), so only assert one direction.
        if shares {
            prop_assert!(a.intersects(&b));
        }
        if !a.intersects(&b) {
            prop_assert!(!shares);
        }
    }

    #[test]
    fn normalization_produces_disjoint_sorted_intervals(a in arb_set()) {
        let intervals = a.intervals();
        for w in intervals.windows(2) {
            prop_assert!(w[0].intersect(&w[1]).is_none(), "{} overlaps {}", w[0], w[1]);
        }
    }
}

// ---------------------------------------------------------------------------
// engine-level: SQL results vs a naive in-test oracle
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct DataSet {
    rows: Vec<(i64, i64, Option<i64>)>,
}

fn arb_dataset() -> impl Strategy<Value = DataSet> {
    prop::collection::vec((0i64..40, -20i64..20, prop::option::of(-5i64..5)), 0..60)
        .prop_map(|rows| DataSet { rows })
}

fn engine_with(data: &DataSet) -> Engine {
    let engine = Engine::new("prop");
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::not_null("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        ))
        .unwrap();
    let rows: Vec<Row> = data
        .rows
        .iter()
        .map(|(k, a, b)| {
            Row::new(vec![
                Value::Int(*k),
                Value::Int(*a),
                b.map_or(Value::Null, Value::Int),
            ])
        })
        .collect();
    engine.insert("t", &rows).unwrap();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_count_matches_oracle(data in arb_dataset(), lo in -20i64..20, hi in -20i64..20) {
        let engine = engine_with(&data);
        let sql = format!("SELECT COUNT(*) AS n FROM t WHERE a >= {lo} AND a < {hi}");
        let got = match engine.query(&sql).unwrap().scalar().unwrap() {
            Value::Int(n) => *n,
            other => panic!("{other}"),
        };
        let want = data.rows.iter().filter(|(_, a, _)| *a >= lo && *a < hi).count() as i64;
        prop_assert_eq!(got, want);
    }

    #[test]
    fn null_predicates_match_oracle(data in arb_dataset(), x in -5i64..5) {
        let engine = engine_with(&data);
        // b = x: NULL b never matches (three-valued logic).
        let got = engine
            .query(&format!("SELECT COUNT(*) AS n FROM t WHERE b = {x}"))
            .unwrap();
        let want = data.rows.iter().filter(|(_, _, b)| *b == Some(x)).count() as i64;
        prop_assert_eq!(got.scalar(), Some(&Value::Int(want)));
        // IS NULL picks exactly the nulls.
        let got = engine.query("SELECT COUNT(*) AS n FROM t WHERE b IS NULL").unwrap();
        let want = data.rows.iter().filter(|(_, _, b)| b.is_none()).count() as i64;
        prop_assert_eq!(got.scalar(), Some(&Value::Int(want)));
    }

    #[test]
    fn group_by_sums_match_oracle(data in arb_dataset()) {
        let engine = engine_with(&data);
        let result = engine
            .query("SELECT k, COUNT(*) AS n, SUM(a) AS s FROM t GROUP BY k ORDER BY k")
            .unwrap();
        use std::collections::BTreeMap;
        let mut oracle: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for (k, a, _) in &data.rows {
            let e = oracle.entry(*k).or_insert((0, 0));
            e.0 += 1;
            e.1 += a;
        }
        prop_assert_eq!(result.len(), oracle.len());
        for (row, (k, (n, s))) in result.rows.iter().zip(oracle) {
            prop_assert_eq!(row.get(0), &Value::Int(k));
            prop_assert_eq!(row.get(1), &Value::Int(n));
            prop_assert_eq!(row.get(2), &Value::Int(s));
        }
    }

    #[test]
    fn self_join_matches_oracle(data in arb_dataset()) {
        let engine = engine_with(&data);
        let got = match engine
            .query("SELECT COUNT(*) AS n FROM t x, t y WHERE x.k = y.k")
            .unwrap()
            .scalar()
            .unwrap()
        {
            Value::Int(n) => *n,
            other => panic!("{other}"),
        };
        let mut want = 0i64;
        for (k1, ..) in &data.rows {
            for (k2, ..) in &data.rows {
                if k1 == k2 {
                    want += 1;
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn order_by_is_sorted_and_complete(data in arb_dataset()) {
        let engine = engine_with(&data);
        let result = engine.query("SELECT a FROM t ORDER BY a DESC").unwrap();
        prop_assert_eq!(result.len(), data.rows.len());
        for w in result.rows.windows(2) {
            let (Value::Int(x), Value::Int(y)) = (w[0].get(0), w[1].get(0)) else {
                panic!("ints")
            };
            prop_assert!(x >= y);
        }
    }

    #[test]
    fn top_n_prefix_of_order(data in arb_dataset(), n in 0u64..10) {
        let engine = engine_with(&data);
        let all = engine.query("SELECT a FROM t ORDER BY a").unwrap();
        let top = engine.query(&format!("SELECT TOP {n} a FROM t ORDER BY a")).unwrap();
        prop_assert_eq!(top.len(), (n as usize).min(all.len()));
        for (t, a) in top.rows.iter().zip(all.rows.iter()) {
            prop_assert_eq!(t, a);
        }
    }
}

// ---------------------------------------------------------------------------
// parser robustness
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn parser_never_panics(input in ".{0,80}") {
        let _ = dhqp_sqlfront::parse_statement(&input);
    }

    #[test]
    fn lexer_never_panics(input in ".{0,120}") {
        let _ = dhqp_sqlfront::Lexer::new(&input).tokenize();
    }
}

// ---------------------------------------------------------------------------
// semi-join reduction: shipped IN-list SQL round-trips through the parser
// ---------------------------------------------------------------------------

/// Build a one-column `kv(k)` engine, bind the distinct non-NULL `keys` to
/// the key-set parameter of a statement shaped as the decoder renders a
/// reduced probe side, and check the shipped text (a) parses, (b) returns
/// exactly the rows whose key is a non-NULL member of `keys`. An empty key
/// set never renders: the operator answers empty before it ships anything.
fn semijoin_oracle_check(
    column: Column,
    rows: Vec<Value>,
    keys: Vec<Value>,
) -> std::result::Result<(), String> {
    let engine = Engine::new("sj-prop");
    engine
        .create_table(TableDef::new("kv", Schema::new(vec![column])))
        .unwrap();
    let stored: Vec<Row> = rows.iter().map(|v| Row::new(vec![v.clone()])).collect();
    engine.insert("kv", &stored).unwrap();
    let want = rows
        .iter()
        .filter(|v| !v.is_null() && keys.iter().any(|k| !k.is_null() && *k == **v))
        .count();
    let mut key_set: Vec<Value> = Vec::new();
    for k in keys.into_iter().filter(|k| !k.is_null()) {
        if !key_set.contains(&k) {
            key_set.push(k);
        }
    }
    if key_set.is_empty() {
        prop_assert!(want == 0);
        return Ok(());
    }
    let reduced = dhqp_executor::ops::remote::substitute_params(
        "SELECT [t0].[k] AS [c0] FROM [kv] AS [t0] WHERE ([t0].[k] IN (@__keys0))",
        &[("__keys0", &key_set)],
        &dhqp_oledb::ProviderCapabilities::sql_server("SQLOLEDB").dialect,
    );
    // The shipped text must be parseable by the remote's SQL front end —
    // whatever quotes, brackets or wildcards the key values contain.
    prop_assert!(
        dhqp_sqlfront::parse_statement(&reduced).is_ok(),
        "reduced statement must parse: {reduced}"
    );
    let got = engine.query(&reduced).unwrap();
    prop_assert!(got.rows.len() == want, "reduced: {reduced}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Integer key sets round-trip: NULL keys drop, empty key sets are
    /// never shipped, everything else filters exactly.
    #[test]
    fn semijoin_in_list_roundtrips_for_int_keys(
        rows in prop::collection::vec(prop::option::of(-30i64..30), 0..25),
        keys in prop::collection::vec(prop::option::of(-30i64..30), 0..10),
    ) {
        semijoin_oracle_check(
            Column::new("k", DataType::Int),
            rows.into_iter().map(|v| v.map_or(Value::Null, Value::Int)).collect(),
            keys.into_iter().map(|v| v.map_or(Value::Null, Value::Int)).collect(),
        )?;
    }

    /// String keys round-trip through literal escaping: embedded quotes,
    /// spaces and LIKE metacharacters must survive the substitution verbatim.
    #[test]
    fn semijoin_in_list_roundtrips_for_string_keys(
        rows in prop::collection::vec(prop::option::of("[a-z' %_[]{0,8}"), 0..25),
        keys in prop::collection::vec(prop::option::of("[a-z' %_[]{0,8}"), 0..10),
    ) {
        semijoin_oracle_check(
            Column::new("k", DataType::Str),
            rows.into_iter().map(|v| v.map_or(Value::Null, Value::Str)).collect(),
            keys.into_iter().map(|v| v.map_or(Value::Null, Value::Str)).collect(),
        )?;
    }

    /// The predicate fingerprint is deterministic and shape-sensitive
    /// enough that distinct shipped texts rarely collide.
    #[test]
    fn semijoin_fingerprint_is_deterministic(a in ".{0,60}", b in ".{0,60}") {
        let fa = dhqp_executor::predicate_fingerprint(&a);
        prop_assert_eq!(&fa, &dhqp_executor::predicate_fingerprint(&a));
        prop_assert_eq!(fa.len(), 16);
        if a != b {
            // FNV-1a over distinct short strings: collisions would make
            // `sys.dm_link_health` attribution ambiguous.
            prop_assert_ne!(fa, dhqp_executor::predicate_fingerprint(&b));
        }
    }
}

// ---------------------------------------------------------------------------
// IN-lists: the sorted, deduplicated list answers what a scan answers
// ---------------------------------------------------------------------------

/// NULLs, integers and halves (an integer and a float can be equal), both
/// zeros, NaN, two numbers past 2^53 that one float equals, and strings,
/// which compare with none of the others.
fn arb_in_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..4).prop_map(Value::Int),
        (-8i64..8).prop_map(|h| Value::Float(h as f64 / 2.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        (0i64..2).prop_map(|i| Value::Int((1 << 53) + i)),
        Just(Value::Float((1i64 << 53) as f64)),
        "[ab]{1,1}".prop_map(Value::Str),
    ]
}

/// `v [NOT] IN (list)` as a scan of the list with `sql_eq`.
fn in_by_scan(v: &Value, list: &[Value], negated: bool) -> Value {
    let mut unknown = v.is_null();
    for item in list {
        match v.sql_eq(item) {
            Some(true) => return Value::Bool(!negated),
            Some(false) => {}
            None => unknown = true,
        }
    }
    if unknown {
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

/// Evaluation reads no source.
struct NoSources;

impl dhqp_executor::SourceCatalog for NoSources {
    fn local(&self) -> std::sync::Arc<dyn dhqp_oledb::DataSource> {
        unreachable!("an IN-list reads no table")
    }

    fn linked(&self, _: &str) -> dhqp_types::Result<std::sync::Arc<dyn dhqp_oledb::DataSource>> {
        unreachable!("an IN-list reads no table")
    }
}

proptest! {
    #[test]
    fn in_list_membership_matches_a_scan(
        list in prop::collection::vec(arb_in_value(), 0..8),
        probe in arb_in_value(),
        negated in any::<bool>(),
    ) {
        use dhqp_optimizer::{props::ColumnRegistry, scalar::ScalarExpr, ColumnId};
        let expr = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(ColumnId(0))),
            list: list.clone().into(),
            negated,
        };
        let ctx = dhqp_executor::ExecContext::new(
            std::sync::Arc::new(NoSources),
            Default::default(),
            std::sync::Arc::new(ColumnRegistry::new()),
        );
        let positions = dhqp_executor::eval::positions_of(&[ColumnId(0)]);
        let row = Row::new(vec![probe.clone()]);
        let env = dhqp_executor::RowEnv { positions: &positions, row: &row, ctx: &ctx };
        let got = dhqp_executor::eval_expr(&expr, &env).unwrap();
        prop_assert_eq!(got, in_by_scan(&probe, &list, negated));
    }
}

// ---------------------------------------------------------------------------
// constraint domains: sound against the evaluator
// ---------------------------------------------------------------------------

use dhqp_optimizer::{derive_domains, CmpOp, ColumnId, Domains, JoinKind, LogicalOp, ScalarExpr};

/// A comparison of one of `cols` with a literal, in either operand order,
/// or a `[NOT] IN`-list; literals from `arb_in_value`, NULLs among them.
fn arb_domain_atom(cols: [u32; 2]) -> impl Strategy<Value = ScalarExpr> {
    let column = move || (0usize..2).prop_map(move |i| ScalarExpr::Column(ColumnId(cols[i])));
    prop_oneof![
        (column(), 0usize..6, arb_in_value(), any::<bool>()).prop_map(|(c, op, v, flip)| {
            let op = [
                CmpOp::Eq,
                CmpOp::Neq,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][op];
            let lit = ScalarExpr::Literal(v);
            if flip {
                ScalarExpr::cmp(op, lit, c)
            } else {
                ScalarExpr::cmp(op, c, lit)
            }
        }),
        (
            column(),
            prop::collection::vec(arb_in_value(), 0..4),
            any::<bool>()
        )
            .prop_map(|(c, list, negated)| ScalarExpr::InList {
                expr: Box::new(c),
                list: list.into(),
                negated,
            }),
    ]
}

/// ANDs and ORs of atoms over `cols`, up to two levels deep.
fn arb_domain_pred(cols: [u32; 2]) -> impl Strategy<Value = ScalarExpr> {
    let level = move || {
        prop_oneof![
            arb_domain_atom(cols),
            prop::collection::vec(arb_domain_atom(cols), 2..4).prop_map(ScalarExpr::And),
            prop::collection::vec(arb_domain_atom(cols), 2..4).prop_map(ScalarExpr::Or),
        ]
    };
    prop_oneof![
        level(),
        prop::collection::vec(level(), 2..3).prop_map(ScalarExpr::And),
        prop::collection::vec(level(), 2..3).prop_map(ScalarExpr::Or),
    ]
}

/// What the executor's `eval_predicate` says of `row`, laid out as `cols`.
fn calls_true(pred: &ScalarExpr, cols: &[ColumnId], row: &[Value]) -> bool {
    let ctx = dhqp_executor::ExecContext::new(
        std::sync::Arc::new(NoSources),
        Default::default(),
        std::sync::Arc::new(dhqp_optimizer::ColumnRegistry::new()),
    );
    let positions = dhqp_executor::eval::positions_of(cols);
    let row = Row::new(row.to_vec());
    let env = dhqp_executor::RowEnv {
        positions: &positions,
        row: &row,
        ctx: &ctx,
    };
    dhqp_executor::eval_predicate(pred, &env).unwrap()
}

/// Whether every value of `row` (laid out as `cols`) lies inside its
/// column's domain. NULL is in no domain; `padded` lets it through where an
/// outer join supplies it.
fn inside(domains: &Domains, cols: &[ColumnId], row: &[Value], padded: bool) -> bool {
    cols.iter().zip(row).all(|(c, v)| match domains.get(*c) {
        Some(domain) => domain.contains(v) || (padded && v.is_null()),
        None => true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both derivations are sound: every row the evaluator calls TRUE lies
    /// inside `predicate.domains()`, and every row a Filter, an equi-join or
    /// a UNION ALL makes of such rows lies inside what `derive_domains` gives
    /// the group. A filter it reports empty keeps no row.
    #[test]
    fn domains_hold_every_row_the_evaluator_keeps(
        p in arb_domain_pred([0, 1]),
        f in arb_domain_pred([0, 1]),
        q in arb_domain_pred([2, 3]),
        left in prop::collection::vec((arb_in_value(), arb_in_value()), 0..6),
        right in prop::collection::vec((arb_in_value(), arb_in_value()), 0..6),
    ) {
        let c = ColumnId;
        let (lc, rc, all) = ([c(0), c(1)], [c(2), c(3)], [c(0), c(1), c(2), c(3)]);
        let rows = |pairs: &[(Value, Value)]| -> Vec<Vec<Value>> {
            pairs.iter().map(|(a, b)| vec![a.clone(), b.clone()]).collect()
        };
        let (left, right) = (rows(&left), rows(&right));
        for (pred, cols, rows) in [(&p, &lc, &left), (&f, &lc, &left), (&q, &rc, &right)] {
            let domains = pred.domains();
            for row in rows.iter().filter(|r| calls_true(pred, cols, r)) {
                prop_assert!(inside(&domains, cols, row, false), "{pred} on {row:?}: {domains:?}");
            }
        }
        // The relations: `left` rows p keeps, `right` rows q keeps.
        let l: Vec<_> = left.into_iter().filter(|r| calls_true(&p, &lc, r)).collect();
        let r: Vec<_> = right.into_iter().filter(|r| calls_true(&q, &rc, r)).collect();
        let (pd, qd) = (p.domains(), q.domains());
        let filter = LogicalOp::Filter { predicate: f.clone() };
        let (fd, empty) = derive_domains(&filter, &[(&lc[..], &pd)]);
        for row in l.iter().filter(|row| calls_true(&f, &lc, row)) {
            prop_assert!(!empty && inside(&fd, &lc, row, false), "{p} then {f} on {row:?}");
        }
        let on = ScalarExpr::eq(ScalarExpr::Column(c(0)), ScalarExpr::Column(c(2)));
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
            let join = LogicalOp::Join { kind, predicate: Some(on.clone()) };
            let (jd, _) = derive_domains(&join, &[(&lc[..], &pd), (&rc[..], &qd)]);
            let mut out = Vec::new();
            for a in &l {
                let matched: Vec<Vec<Value>> = r
                    .iter()
                    .map(|b| [a.clone(), b.clone()].concat())
                    .filter(|ab| calls_true(&on, &all, ab))
                    .collect();
                match kind {
                    JoinKind::Inner => out.extend(matched),
                    JoinKind::LeftOuter if matched.is_empty() => {
                        out.push([a.clone(), vec![Value::Null, Value::Null]].concat())
                    }
                    JoinKind::LeftOuter => out.extend(matched),
                    JoinKind::Semi if !matched.is_empty() => out.push(a.clone()),
                    JoinKind::Anti if matched.is_empty() => out.push(a.clone()),
                    _ => {}
                }
            }
            for row in &out {
                let padded = kind == JoinKind::LeftOuter;
                prop_assert!(inside(&jd, &all[..row.len()], row, padded), "{kind:?} {row:?}");
            }
        }
        let union = LogicalOp::UnionAll { output: vec![c(4), c(5)] };
        let (ud, _) = derive_domains(&union, &[(&lc[..], &pd), (&rc[..], &qd)]);
        for row in l.iter().chain(&r) {
            prop_assert!(inside(&ud, &[c(4), c(5)], row, false), "UNION ALL {row:?}");
        }
    }
}

/// Past 2^53 one float equals integers that differ from each other, so a
/// column pinned to two such integers is satisfiable, and no domain may call
/// it a contradiction.
#[test]
fn domains_hold_numbers_past_2_pow_53() {
    let x = || ScalarExpr::Column(ColumnId(0));
    let int = |i: i64| ScalarExpr::Literal(Value::Int(i));
    let both = ScalarExpr::And(vec![
        ScalarExpr::eq(x(), int(1 << 53)),
        ScalarExpr::eq(x(), int((1 << 53) + 1)),
    ]);
    let row = [Value::Float((1u64 << 53) as f64)];
    assert!(calls_true(&both, &[ColumnId(0)], &row));
    assert!(inside(&both.domains(), &[ColumnId(0)], &row, false));
}

// ---------------------------------------------------------------------------
// runtime startup pruning: never skips a member whose range qualifies
// ---------------------------------------------------------------------------

/// A three-member partitioned view over `k` split at `cut1`/`cut2`, with
/// runtime pruning forced on or off.
fn pruning_engine(rows: &[i64], cut1: i64, cut2: i64, eager: bool) -> Engine {
    use dhqp_types::IntervalBound::{Excluded, Included};
    let engine = Engine::new(if eager { "prune-eager" } else { "prune-lazy" });
    engine.set_runtime_prune(eager);
    let domains = [
        IntervalSet::single(Interval::less_than(Value::Int(cut1))),
        IntervalSet::single(Interval {
            low: Included(Value::Int(cut1)),
            high: Excluded(Value::Int(cut2)),
        }),
        IntervalSet::single(Interval::at_least(Value::Int(cut2))),
    ];
    let mut members = Vec::new();
    for (i, domain) in domains.into_iter().enumerate() {
        let table = format!("m{i}");
        engine
            .create_table(TableDef::new(
                &table,
                Schema::new(vec![Column::not_null("k", DataType::Int)]),
            ))
            .unwrap();
        let part: Vec<Row> = rows
            .iter()
            .filter(|k| domain.contains(&Value::Int(**k)))
            .map(|k| Row::new(vec![Value::Int(*k)]))
            .collect();
        engine.insert(&table, &part).unwrap();
        members.push((None, table, domain));
    }
    engine
        .define_partitioned_view("v_all", "k", members)
        .unwrap();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Drive-time startup pruning must never skip the member whose range
    /// contains the bound parameter: eager and lazy evaluation agree with
    /// each other and with the oracle, for any probe — inside any member,
    /// on a cut boundary, or outside every range.
    #[test]
    fn runtime_pruning_never_skips_a_qualifying_member(
        rows in prop::collection::vec(0i64..60, 0..40),
        cut1 in 5i64..25,
        width in 5i64..25,
        probe in -5i64..65,
    ) {
        use std::collections::HashMap;
        let cut2 = cut1 + width;
        let sql = "SELECT k FROM v_all WHERE k = @p";
        let mut params = HashMap::new();
        params.insert("p".to_string(), Value::Int(probe));
        let eager = pruning_engine(&rows, cut1, cut2, true);
        let lazy = pruning_engine(&rows, cut1, cut2, false);
        let a = eager.query_with_params(sql, params.clone()).unwrap();
        let b = lazy.query_with_params(sql, params).unwrap();
        let want = rows.iter().filter(|k| **k == probe).count();
        prop_assert!(a.rows.len() == want, "eager pruning lost rows at probe {probe}");
        prop_assert!(b.rows.len() == want, "lazy startup filters lost rows at probe {probe}");
    }
}

// ---------------------------------------------------------------------------
// auto-parameterization (plan-cache fingerprinting)
// ---------------------------------------------------------------------------

/// One generated comparison predicate plus the literal-erased "shape" it
/// belongs to. Int and float literal *values* are interchangeable within a
/// shape (both auto-parameterize); everything else — columns, operators,
/// string literals, IN lists — is part of the shape.
#[derive(Clone, Debug)]
struct GenPred {
    sql: String,
    shape: String,
}

fn arb_pred() -> impl Strategy<Value = GenPred> {
    fn col() -> impl Strategy<Value = &'static str> {
        prop_oneof![Just("a"), Just("b"), Just("c")]
    }
    let op = prop_oneof![
        Just("="),
        Just("<>"),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">=")
    ];
    prop_oneof![
        // column <op> numeric-literal: parameterized.
        (col(), op, -999i64..999, any::<bool>()).prop_map(|(c, o, n, float)| {
            let lit = if float {
                format!("{:?}", n as f64 / 4.0)
            } else {
                n.to_string()
            };
            GenPred {
                sql: format!("{c} {o} {lit}"),
                shape: format!("{c} {o} ?"),
            }
        }),
        // column = string-literal: stays literal, so the value is shape.
        (col(), "[a-z]{0,5}").prop_map(|(c, s)| GenPred {
            sql: format!("{c} = '{s}'"),
            shape: format!("{c} = '{s}'"),
        }),
        // BETWEEN two numeric literals: both parameterized.
        (col(), -99i64..99, 0i64..99).prop_map(|(c, lo, w)| GenPred {
            sql: format!("{c} BETWEEN {lo} AND {}", lo + w),
            shape: format!("{c} BETWEEN ? AND ?"),
        }),
        // IN list: contents stay literal, so length and values are shape.
        (col(), proptest::collection::vec(-20i64..20, 1..4)).prop_map(|(c, vs)| {
            let list = vs
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            GenPred {
                sql: format!("{c} IN ({list})"),
                shape: format!("{c} IN ({list})"),
            }
        }),
    ]
}

/// A parseable SELECT with its literal-erased shape. Two generated queries
/// have equal shapes iff they differ only in parameterizable literals.
fn arb_parameterizable_select() -> impl Strategy<Value = GenPred> {
    let proj = prop_oneof![
        Just("*".to_string()),
        Just("a, b".to_string()),
        Just("COUNT(*) AS n".to_string()),
    ];
    let table = prop_oneof![Just("t1"), Just("t2")];
    let top = prop_oneof![
        Just(String::new()),
        (1u64..9).prop_map(|n| format!("TOP {n} "))
    ];
    let tail = prop_oneof![
        Just(String::new()),
        Just(" ORDER BY a".to_string()),
        Just(" ORDER BY b DESC".to_string()),
    ];
    (
        top,
        proj,
        table,
        proptest::collection::vec((arb_pred(), any::<bool>()), 1..4),
        tail,
    )
        .prop_map(|(top, proj, table, preds, tail)| {
            let mut where_sql = String::new();
            let mut where_shape = String::new();
            for (i, (p, or)) in preds.iter().enumerate() {
                if i > 0 {
                    let conj = if *or { " OR " } else { " AND " };
                    where_sql.push_str(conj);
                    where_shape.push_str(conj);
                }
                where_sql.push_str(&p.sql);
                where_shape.push_str(&p.shape);
            }
            GenPred {
                sql: format!("SELECT {top}{proj} FROM {table} WHERE {where_sql}{tail}"),
                shape: format!("SELECT {top}{proj} FROM {table} WHERE {where_shape}{tail}"),
            }
        })
}

proptest! {
    /// Extraction followed by re-substitution is the identity, judged at
    /// the AST level (whitespace and token spelling may differ).
    #[test]
    fn auto_parameterization_round_trips(q in arb_parameterizable_select()) {
        let fp = dhqp_sqlfront::fingerprint(&q.sql)
            .expect("generated SELECTs are always fingerprintable");
        let restored = dhqp_sqlfront::fingerprint::substitute(&fp.template, &fp.params)
            .expect("template re-substitution");
        let original = dhqp_sqlfront::parse_statement(&q.sql).expect("generated SQL parses");
        let round = dhqp_sqlfront::parse_statement(&restored).expect("restored SQL parses");
        prop_assert_eq!(format!("{original:?}"), format!("{round:?}"));
        // Every extracted parameter lives in the reserved namespace.
        for (name, _) in &fp.params {
            prop_assert!(name.starts_with(dhqp_sqlfront::AUTO_PARAM_PREFIX));
        }
    }

    /// Literal-only variation collapses to one template; any structural
    /// variation — different columns, operators, strings, IN lists, TOP,
    /// projection, table — always gets its own template.
    #[test]
    fn templates_collide_exactly_on_shape(
        q1 in arb_parameterizable_select(),
        q2 in arb_parameterizable_select(),
    ) {
        let fp1 = dhqp_sqlfront::fingerprint(&q1.sql).unwrap();
        let fp2 = dhqp_sqlfront::fingerprint(&q2.sql).unwrap();
        prop_assert_eq!(fp1.template == fp2.template, q1.shape == q2.shape);
    }

    /// The fingerprinter itself never panics, whatever the input.
    #[test]
    fn fingerprint_never_panics(input in ".{0,100}") {
        let _ = dhqp_sqlfront::fingerprint(&input);
    }
}
