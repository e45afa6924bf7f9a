//! The five workloads: statement classes, templates, and seeded generation.
//!
//! Each workload is one cost class (per-class p50s within 4× of each other,
//! mean ÷ p50 ≤ 1.6 — both enforced as guards in `run`), so its median
//! describes where its time goes. Everything here runs before the clock
//! starts: the engine only ever sees the generated SQL text and parameters.

use crate::fixture::{Scale, DIM_GROUP, MEMBERS, OPENING_BALANCE, REMOTE0};
use dhqp_types::value::{format_date, parse_date};
use dhqp_types::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointHit,
    AdhocCompile,
    ScanShip,
    WanOverlap,
    Dml2pc,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::PointHit,
    Workload::AdhocCompile,
    Workload::ScanShip,
    Workload::WanOverlap,
    Workload::Dml2pc,
];

/// Statement classes; `class.<name>_p50_us` is reported for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    LocalSeek,
    RemotePoint,
    DpvPoint,
    JoinAdhoc,
    DpvRangeAdhoc,
    FulltextAdhoc,
    Fig4Join,
    DpvAgg,
    SemijoinProbe,
    FulltextJoin,
    Range1y,
    Range2y,
    Range4y,
    Update2m,
    DeleteInsert2m,
}

pub const CLASSES: [Class; 15] = [
    Class::LocalSeek,
    Class::RemotePoint,
    Class::DpvPoint,
    Class::JoinAdhoc,
    Class::DpvRangeAdhoc,
    Class::FulltextAdhoc,
    Class::Fig4Join,
    Class::DpvAgg,
    Class::SemijoinProbe,
    Class::FulltextJoin,
    Class::Range1y,
    Class::Range2y,
    Class::Range4y,
    Class::Update2m,
    Class::DeleteInsert2m,
];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::LocalSeek => "local_seek",
            Class::RemotePoint => "remote_point",
            Class::DpvPoint => "dpv_point",
            Class::JoinAdhoc => "join_adhoc",
            Class::DpvRangeAdhoc => "dpv_range_adhoc",
            Class::FulltextAdhoc => "fulltext_adhoc",
            Class::Fig4Join => "fig4_join",
            Class::DpvAgg => "dpv_agg",
            Class::SemijoinProbe => "semijoin_probe",
            Class::FulltextJoin => "fulltext_join",
            Class::Range1y => "range_1y",
            Class::Range2y => "range_2y",
            Class::Range4y => "range_4y",
            Class::Update2m => "update_2m",
            Class::DeleteInsert2m => "delete_insert_2m",
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointHit => "point_hit",
            Workload::AdhocCompile => "adhoc_compile",
            Workload::ScanShip => "scan_ship",
            Workload::WanOverlap => "wan_overlap",
            Workload::Dml2pc => "dml_2pc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn classes(self) -> &'static [Class] {
        match self {
            Workload::PointHit => &[Class::LocalSeek, Class::RemotePoint, Class::DpvPoint],
            Workload::AdhocCompile => {
                &[Class::JoinAdhoc, Class::DpvRangeAdhoc, Class::FulltextAdhoc]
            }
            Workload::ScanShip => &[
                Class::Fig4Join,
                Class::DpvAgg,
                Class::SemijoinProbe,
                Class::FulltextJoin,
            ],
            Workload::WanOverlap => &[Class::Range1y, Class::Range2y, Class::Range4y],
            Workload::Dml2pc => &[Class::Update2m, Class::DeleteInsert2m],
        }
    }

    /// Statements the measured phase runs per `--seconds` second, from this
    /// box at the commit that added the benchmark (about 0.85 of what it
    /// sustains, so the phase ends inside `--seconds`). A pass is 1/`passes`
    /// of the phase, rounded up to the workload's granule, so counts — and
    /// with them the link metrics — repeat exactly for a given `--seconds`.
    fn per_second(self) -> f64 {
        match self {
            Workload::PointHit => 49_000.0,
            Workload::AdhocCompile => 1_600.0,
            Workload::ScanShip => 144.0,
            Workload::WanOverlap => 67.0,
            Workload::Dml2pc => 420.0,
        }
    }

    /// Pass sizes are multiples of this so class counts come out equal (or
    /// in the 85:15 DML ratio) with no remainder.
    fn granule(self) -> usize {
        match self {
            Workload::PointHit => POINT_WEIGHTS.iter().sum(),
            // Whole cycles of the template pool: every template recurs at a
            // distance of the pool size, within a pass and across passes, so
            // it has always been evicted by the time it comes round again.
            Workload::AdhocCompile => adhoc_pool().len(),
            Workload::ScanShip => 4,
            Workload::WanOverlap => 3,
            // 17 updates + 3 statements' worth of delete/insert pairs would
            // not divide; 40 = 34 updates + 3 delete+insert pairs.
            Workload::Dml2pc => 40,
        }
    }

    /// Statements in one of `passes` measured passes. The phase never holds
    /// fewer than 1 000: p99 needs ten pooled samples beyond it.
    pub fn pass_size(self, seconds: u64, passes: usize, scale: &Scale) -> usize {
        let g = self.granule();
        if !scale.is_full() {
            return match self {
                Workload::PointHit => 96,
                // More templates than the 128-entry plan cache holds.
                Workload::AdhocCompile => 160,
                Workload::ScanShip => 8,
                Workload::WanOverlap => 3,
                Workload::Dml2pc => 40,
            };
        }
        let phase = (self.per_second() * seconds as f64).max(1_000.0);
        ((phase / passes as f64).ceil() as usize).div_ceil(g) * g
    }
}

/// What a DML statement does to the harness's model of `accounts_all`.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    None,
    Add { ids: [i64; 2], delta: i64 },
    Delete { ids: [i64; 2] },
    Insert { ids: [i64; 2] },
}

/// Row count and one-column additive checksum of a correct answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expect {
    pub rows: u64,
    pub checksum: u64,
}

#[derive(Debug, Clone)]
pub struct Stmt {
    pub class: Class,
    pub sql: String,
    /// `@name` parameters. Only the `lineitem_all` date point binds one;
    /// every other statement embeds literals, so the engine's own
    /// auto-parameterisation is what gets exercised.
    pub params: Vec<(String, Value)>,
    pub effect: Effect,
    /// Filled in by the check pass.
    pub expect: Expect,
}

impl Stmt {
    fn read(class: Class, sql: String) -> Stmt {
        Stmt {
            class,
            sql,
            params: Vec::new(),
            effect: Effect::None,
            expect: Expect::default(),
        }
    }
}

// ---- literal domains ------------------------------------------------------

/// Zipf(s = 1) over `0..n` by inverse CDF; rank r maps to key
/// `(r × stride) mod n` so the hot keys are spread over the key space (and
/// over DPV members) instead of clustered at 0.
struct Zipf {
    cdf: Vec<f64>,
    n: u64,
}

impl Zipf {
    fn new(n: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, n }
    }

    fn draw(&self, rng: &mut StdRng) -> i64 {
        let u = (rng.gen_range(0u64..(1 << 53)) as f64) / (1u64 << 53) as f64;
        let rank = self.cdf.partition_point(|&c| c < u) as u64;
        // 7919 is prime and coprime to every table size used here.
        ((rank.min(self.n - 1) * 7919) % self.n) as i64
    }
}

const FIRST_DAY: &str = "1992-01-01";
const DAYS: i64 = 7 * 365;

fn day(offset: i64) -> String {
    let base = parse_date(FIRST_DAY).expect("valid date");
    format_date(base + offset as i32)
}

/// First and last day of the `years`-year span starting at year index `y`.
fn year_span(y: i64, years: i64) -> (i64, i64) {
    let base = parse_date(FIRST_DAY).expect("valid date") as i64;
    let lo = parse_date(&format!("{}-01-01", 1992 + y)).expect("valid date") as i64 - base;
    let hi =
        parse_date(&format!("{}-12-31", 1992 + y + years - 1)).expect("valid date") as i64 - base;
    (lo, hi)
}

const TERMS: [&str; 12] = [
    "pasta", "garlic", "basil", "tomato", "latency", "routing", "packet", "compiler", "parser",
    "grammar", "join", "index",
];

struct Domains {
    orders: Zipf,
    customers: Zipf,
    suppliers: Zipf,
    accounts: Zipf,
    days: Zipf,
    nations: i64,
    groups: i64,
    docs: i64,
    scale: Scale,
}

impl Domains {
    fn new(scale: &Scale) -> Domains {
        Domains {
            orders: Zipf::new(scale.tpch.orders as u64),
            customers: Zipf::new(scale.tpch.customers as u64),
            suppliers: Zipf::new(scale.tpch.suppliers as u64),
            accounts: Zipf::new(scale.accounts() as u64),
            days: Zipf::new(DAYS as u64),
            nations: scale.tpch.nations as i64,
            groups: scale.dim_keys / DIM_GROUP,
            docs: scale.docs as i64,
            scale: *scale,
        }
    }
}

/// A literal slot in a template.
#[derive(Debug, Clone, Copy)]
enum Lit {
    Order,
    Customer,
    Supplier,
    Account,
    Day,
    Nation,
    Group,
    Qty,
    DocId,
    Term,
}

impl Lit {
    fn draw(self, d: &Domains, rng: &mut StdRng) -> String {
        match self {
            Lit::Order => d.orders.draw(rng).to_string(),
            Lit::Customer => d.customers.draw(rng).to_string(),
            Lit::Supplier => d.suppliers.draw(rng).to_string(),
            Lit::Account => d.accounts.draw(rng).to_string(),
            Lit::Day => format!("'{}'", day(d.days.draw(rng))),
            Lit::Nation => rng.gen_range(0..d.nations).to_string(),
            Lit::Group => rng.gen_range(0..d.groups).to_string(),
            Lit::Qty => rng.gen_range(5..45i64).to_string(),
            Lit::DocId => rng.gen_range(0..d.docs.min(d.scale.dim_keys)).to_string(),
            Lit::Term => format!("'{}'", TERMS[rng.gen_range(0..TERMS.len())]),
        }
    }
}

/// SQL with `{0}`, `{1}`… literal slots.
#[derive(Debug, Clone)]
struct Template {
    class: Class,
    sql: String,
    lits: Vec<Lit>,
}

impl Template {
    fn new(class: Class, sql: impl Into<String>, lits: &[Lit]) -> Template {
        Template {
            class,
            sql: sql.into(),
            lits: lits.to_vec(),
        }
    }

    fn render(&self, d: &Domains, rng: &mut StdRng) -> Stmt {
        let mut stmt = Stmt::read(self.class, self.sql.clone());
        for (i, lit) in self.lits.iter().enumerate() {
            stmt.sql = stmt.sql.replace(&format!("{{{i}}}"), &lit.draw(d, rng));
        }
        // String date literals are not auto-parameterised, so a template
        // that is to hit the plan cache binds its date as `@d`.
        if stmt.sql.contains("@d") {
            let days = parse_date(FIRST_DAY).expect("valid date") + d.days.draw(rng) as i32;
            stmt.params.push(("d".to_string(), Value::Date(days)));
        }
        stmt
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

// ---- point_hit ------------------------------------------------------------

/// Statements per 24 drawn from each of [`point_templates`], in order. The
/// `lineitem_all` date point costs five times the median statement (seven
/// members to prune at run time, several rows back); at an equal share it
/// alone pushed mean ÷ p50 to 1.5–1.57, too close to the 1.6 guard.
const POINT_WEIGHTS: [usize; 12] = [2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 1];

fn point_templates() -> Vec<Template> {
    use Class::*;
    let r = REMOTE0;
    vec![
        Template::new(
            LocalSeek,
            "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderkey = {0}",
            &[Lit::Order],
        ),
        Template::new(
            LocalSeek,
            "SELECT o_orderkey, o_orderdate FROM orders WHERE o_custkey = {0}",
            &[Lit::Customer],
        ),
        Template::new(
            LocalSeek,
            "SELECT n.n_name, r.r_name FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey \
             WHERE n.n_nationkey = {0}",
            &[Lit::Nation],
        ),
        Template::new(LocalSeek, "SELECT id FROM dim WHERE grp = {0}", &[Lit::Group]),
        Template::new(
            LocalSeek,
            "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = {0}",
            &[Lit::Nation],
        ),
        Template::new(
            RemotePoint,
            format!("SELECT c_name, c_phone FROM {r}customer WHERE c_custkey = {{0}}"),
            &[Lit::Customer],
        ),
        Template::new(
            RemotePoint,
            format!("SELECT c_name, c_address, c_city, c_acctbal FROM {r}customer WHERE c_custkey = {{0}}"),
            &[Lit::Customer],
        ),
        Template::new(
            RemotePoint,
            format!("SELECT s_name, s_acctbal FROM {r}supplier WHERE s_suppkey = {{0}}"),
            &[Lit::Supplier],
        ),
        Template::new(
            RemotePoint,
            format!("SELECT c_nationkey FROM {r}customer WHERE c_custkey = {{0}}"),
            &[Lit::Customer],
        ),
        Template::new(
            DpvPoint,
            "SELECT balance FROM accounts_all WHERE id = {0}",
            &[Lit::Account],
        ),
        Template::new(
            DpvPoint,
            "SELECT id, balance FROM accounts_all WHERE id = {0}",
            &[Lit::Account],
        ),
        Template::new(
            DpvPoint,
            "SELECT l_orderkey, l_quantity FROM lineitem_all WHERE l_commitdate = @d",
            &[],
        ),
    ]
}

// ---- adhoc_compile --------------------------------------------------------

/// Every non-empty subset of `cols`, smallest first, as SELECT lists.
fn projections(cols: &[&str]) -> Vec<String> {
    let mut out: Vec<(u32, String)> = (1u32..(1 << cols.len()))
        .map(|mask| {
            let picked: Vec<&str> = cols
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, c)| *c)
                .collect();
            (mask.count_ones(), picked.join(", "))
        })
        .collect();
    out.sort();
    out.into_iter().map(|(_, s)| s).collect()
}

/// The structurally distinct template pool of `adhoc_compile`: projection
/// subsets × predicate subsets over 2–5-way local/remote joins of the
/// Fig.-4 family, narrow `lineitem_all` ranges, and `CONTAINS` joins. The
/// pool is the same for every seed; the seed shuffles it and draws the
/// literals. Every template is anchored on a key or a narrow range, so
/// execution stays small and compilation is what gets measured.
fn adhoc_pool() -> Vec<Template> {
    let r = REMOTE0;
    let mut pool = Vec::new();

    // (FROM/ON text, anchor predicate, anchor literal, projectable columns)
    let c = format!("{r}customer c");
    let s = format!("{r}supplier s");
    let nation = "JOIN nation n ON c.c_nationkey = n.n_nationkey";
    let region = "JOIN region r ON n.n_regionkey = r.r_regionkey";
    let supplier = format!("JOIN {s} ON c.c_nationkey = s.s_nationkey");
    let nation2 = "JOIN nation n2 ON s.s_nationkey = n2.n_nationkey";
    let on_customer = ("c.c_custkey = {0}", Lit::Customer);
    let on_supplier = ("s.s_suppkey = {0}", Lit::Supplier);
    let joins: Vec<(String, (&str, Lit), [&str; 5])> = vec![
        (
            format!("{c} {nation}"),
            on_customer,
            ["c.c_name", "c.c_phone", "n.n_name", "c.c_acctbal", "c.c_city"],
        ),
        (
            format!("{s} JOIN nation n ON s.s_nationkey = n.n_nationkey"),
            on_supplier,
            ["s.s_name", "s.s_acctbal", "n.n_name", "n.n_regionkey", "s.s_suppkey"],
        ),
        (
            format!("{c} {supplier}"),
            on_customer,
            ["c.c_name", "s.s_name", "s.s_acctbal", "c.c_city", "c.c_phone"],
        ),
        (
            format!("{c} {nation} {region}"),
            on_customer,
            ["c.c_name", "n.n_name", "r.r_name", "c.c_address", "c.c_acctbal"],
        ),
        (
            format!("{s} JOIN nation n ON s.s_nationkey = n.n_nationkey {region}"),
            on_supplier,
            ["s.s_name", "n.n_name", "r.r_name", "s.s_acctbal", "s.s_suppkey"],
        ),
        (
            // The paper's Example 1 / Fig. 4 shape.
            format!("{c}, {s}, nation n"),
            (
                "c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey AND c.c_custkey = {0}",
                Lit::Customer,
            ),
            ["c.c_name", "c.c_address", "c.c_phone", "s.s_name", "n.n_name"],
        ),
        (
            format!("{c} {supplier} {nation}"),
            on_customer,
            ["c.c_name", "s.s_name", "n.n_name", "c.c_city", "s.s_acctbal"],
        ),
        (
            format!("{c} {supplier} {nation} {region}"),
            on_customer,
            ["c.c_name", "s.s_name", "n.n_name", "r.r_name", "c.c_acctbal"],
        ),
        (
            format!("{c} {supplier} {nation} {nation2}"),
            on_customer,
            ["c.c_name", "s.s_name", "n.n_name", "n2.n_regionkey", "c.c_phone"],
        ),
        (
            format!("{c} {supplier} {nation} {region} {nation2}"),
            on_customer,
            ["c.c_name", "s.s_name", "r.r_name", "n2.n_name", "c.c_address"],
        ),
    ];
    // Optional extra predicates on the always-present nation/supplier side
    // are table-specific; the portable extra is a second literal on the
    // anchor table's own key, which every shape has.
    for (from, (anchor, lit), cols) in &joins {
        let key = anchor
            .rsplit(" AND ")
            .next()
            .and_then(|p| p.split(' ').next())
            .expect("anchor names its key column");
        let extras: [(String, Vec<Lit>); 3] = [
            (String::new(), vec![*lit]),
            (format!(" AND {key} >= 0"), vec![*lit]),
            (format!(" AND {key} <> {{1}}"), vec![*lit, *lit]),
        ];
        for proj in projections(cols) {
            for (extra, lits) in &extras {
                pool.push(Template::new(
                    Class::JoinAdhoc,
                    format!("SELECT {proj} FROM {from} WHERE {anchor}{extra}"),
                    lits,
                ));
            }
        }
    }

    // Narrow DPV ranges: one- to three-day windows prune to one member.
    let li_cols = [
        "l_orderkey",
        "l_linenumber",
        "l_suppkey",
        "l_quantity",
        "l_extendedprice",
    ];
    let li_preds: [(&str, Vec<Lit>); 6] = [
        ("l_commitdate = {0}", vec![Lit::Day]),
        (
            "l_commitdate = {0} AND l_quantity < {1}",
            vec![Lit::Day, Lit::Qty],
        ),
        (
            "l_commitdate = {0} AND l_quantity >= {1}",
            vec![Lit::Day, Lit::Qty],
        ),
        (
            "l_commitdate = {0} AND l_suppkey = {1}",
            vec![Lit::Day, Lit::Supplier],
        ),
        ("l_commitdate = {0} AND l_linenumber = 1", vec![Lit::Day]),
        (
            "l_commitdate = {0} AND l_quantity < {1} AND l_linenumber <= 2",
            vec![Lit::Day, Lit::Qty],
        ),
    ];
    for proj in projections(&li_cols) {
        for (pred, lits) in &li_preds {
            pool.push(Template::new(
                Class::DpvRangeAdhoc,
                format!("SELECT {proj} FROM lineitem_all WHERE {pred}"),
                lits,
            ));
        }
    }

    // CONTAINS joins (never plan-cached: the hit list is bound at compile).
    let ft_from = [
        ("docs d".to_string(), vec!["d.id", "d.doc_type"]),
        (
            "docs d JOIN dim m ON d.id = m.id".to_string(),
            vec!["d.id", "d.doc_type", "m.grp", "m.id"],
        ),
    ];
    let ft_preds: [(&str, Vec<Lit>); 3] = [
        (
            "CONTAINS(d.body, {0}) AND d.id = {1}",
            vec![Lit::Term, Lit::DocId],
        ),
        (
            "CONTAINS(d.body, {0}) AND d.id = {1} AND d.doc_type = 'txt'",
            vec![Lit::Term, Lit::DocId],
        ),
        (
            "CONTAINS(d.body, {0}) AND d.id = {1} AND d.doc_type <> 'md'",
            vec![Lit::Term, Lit::DocId],
        ),
    ];
    for (from, cols) in &ft_from {
        // The joined side is anchored on the same key, so it seeks too.
        let also = if from.contains(" m ") {
            " AND m.id = {1}"
        } else {
            ""
        };
        for proj in projections(cols) {
            for (pred, lits) in &ft_preds {
                pool.push(Template::new(
                    Class::FulltextAdhoc,
                    format!("SELECT {proj} FROM {from} WHERE {pred}{also}"),
                    lits,
                ));
            }
        }
    }

    let distinct: BTreeSet<&str> = pool.iter().map(|t| t.sql.as_str()).collect();
    assert_eq!(
        distinct.len(),
        pool.len(),
        "adhoc templates must be distinct"
    );
    pool
}

/// Size of the full `adhoc_compile` template pool.
#[cfg(test)]
pub fn adhoc_pool_size() -> usize {
    adhoc_pool().len()
}

// ---- generation -----------------------------------------------------------

/// `n` statements cycling through `keep` of the `templates` in seed-shuffled
/// order. The kept templates are every k-th of the pool — the same ones for
/// every seed, with the pool's class proportions.
fn cycle(
    templates: &[Template],
    keep: usize,
    n: usize,
    d: &Domains,
    rng: &mut StdRng,
) -> Vec<Stmt> {
    let keep = keep.clamp(1, templates.len());
    let mut order: Vec<usize> = (0..keep).map(|i| i * templates.len() / keep).collect();
    shuffle(&mut order, rng);
    // One rendering per template, replayed each cycle: the plan cache keys
    // on the template, so fresh literals would change nothing but the
    // number of distinct statements the check pass has to run twice.
    let rendered: Vec<Stmt> = order.iter().map(|&t| templates[t].render(d, rng)).collect();
    (0..n).map(|i| rendered[i % keep].clone()).collect()
}

fn scan_ship(n: usize, d: &Domains, rng: &mut StdRng) -> Vec<Stmt> {
    let r = REMOTE0;
    let window = (d.scale.tpch.customers as i64 / 40).max(8);
    // About five months off each end: still four members, about three
    // years of rows, which keeps the class within 4x of the semi-join probe.
    let agg_trim = trims(4, 145..155, rng);
    // A seed draws a few literals per class and reuses them: the check pass
    // runs every distinct statement on two engines, so hundreds of distinct
    // multi-millisecond statements would turn set-up into the long pole.
    let starts: [i64; 16] =
        std::array::from_fn(|_| rng.gen_range(0..d.scale.tpch.customers as i64 - window));
    // The balance floor is pushed to the remote side, so it decides how many
    // customers ship: kept just above the minimum (-999.99) so the bytes
    // hardly move with the seed.
    let floors: [i64; 4] = std::array::from_fn(|_| rng.gen_range(-995..-975i64));
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let stmt = match i % 4 {
            0 => {
                let a = starts[rng.gen_range(0..starts.len())];
                Stmt::read(
                    Class::Fig4Join,
                    format!(
                        "SELECT c.c_name, c.c_address, c.c_phone \
                         FROM {r}customer c, {r}supplier s, nation n \
                         WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey \
                         AND c.c_custkey BETWEEN {a} AND {}",
                        a + window - 1
                    ),
                )
            }
            1 => {
                let start = rng.gen_range(0..4);
                let (lo, hi) = year_span(start, 4);
                let (t_lo, t_hi) = agg_trim[start as usize][rng.gen_range(0..VARIANTS)];
                let (lo, hi) = (lo + t_lo, hi - t_hi);
                Stmt::read(
                    Class::DpvAgg,
                    format!(
                        "SELECT l_suppkey, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem_all \
                         WHERE l_commitdate BETWEEN '{}' AND '{}' GROUP BY l_suppkey",
                        day(lo),
                        day(hi)
                    ),
                )
            }
            2 => Stmt::read(
                Class::SemijoinProbe,
                format!(
                    "SELECT d.id, f.val FROM dim d JOIN {r}fact f ON d.id = f.id WHERE d.grp = {}",
                    rng.gen_range(0..d.groups)
                ),
            ),
            _ => Stmt::read(
                Class::FulltextJoin,
                format!(
                    "SELECT d.id, c.c_name FROM docs d JOIN {r}customer c ON d.id = c.c_custkey \
                     WHERE CONTAINS(d.body, '{}') AND c.c_acctbal > {}",
                    TERMS[rng.gen_range(0..TERMS.len())],
                    floors[rng.gen_range(0..floors.len())]
                ),
            ),
        };
        out.push(stmt);
    }
    shuffle(&mut out, rng);
    out
}

/// Date ranges per (span, seed). String date literals are not
/// auto-parameterised, so every distinct range is its own plan-cache entry;
/// keeping `spans × VARIANTS` well under the 128-entry cache is what lets
/// these statements hit it.
const VARIANTS: usize = 4;

/// `VARIANTS` seed-drawn trims (days off each end, under `max`) per span.
fn trims(
    spans: usize,
    days: std::ops::Range<i64>,
    rng: &mut StdRng,
) -> Vec<[(i64, i64); VARIANTS]> {
    (0..spans)
        .map(|_| {
            std::array::from_fn(|_| (rng.gen_range(days.clone()), rng.gen_range(days.clone())))
        })
        .collect()
}

fn wan_overlap(n: usize, rng: &mut StdRng) -> Vec<Stmt> {
    const SHAPES: [(Class, i64); 3] = [
        (Class::Range1y, 1),
        (Class::Range2y, 2),
        (Class::Range4y, 4),
    ];
    // Each end is trimmed by a seed-drawn number of days, short of a whole
    // member: the member count (1/2/4, so 3/6/12 round trips) stays, the
    // literals move with the seed, and the rows shipped are few enough for
    // 1 000 samples to fit the run (full years would take 24 s).
    let trim: Vec<_> = SHAPES
        .iter()
        .map(|(_, years)| {
            // A ten-day draw: wider, and the rows shipped — hence
            // link_bytes_per_stmt — would differ by percents between seeds.
            let days = match years {
                1 => 85..95,
                2 => 220..230,
                _ => 330..340,
            };
            trims((8 - years) as usize, days, rng)
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (class, years) = SHAPES[i % 3];
        let start = rng.gen_range(0..8 - years);
        let (lo, hi) = year_span(start, years);
        let (t_lo, t_hi) = trim[i % 3][start as usize][rng.gen_range(0..VARIANTS)];
        out.push(Stmt::read(
            class,
            format!(
                "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem_all \
                 WHERE l_commitdate BETWEEN '{}' AND '{}'",
                day(lo + t_lo),
                day(hi - t_hi)
            ),
        ));
    }
    shuffle(&mut out, rng);
    out
}

/// Units of 40 statements: 34 updates and 3 DELETE + re-INSERT pairs
/// (85 % : 15 %). A pair stays adjacent through the shuffle, so the two
/// ids are absent only between its own two statements. Literals, not
/// parameters: the dialect's `IN` lists take literals only, and DML is
/// never plan-cached, so nothing is lost.
fn dml_2pc(n: usize, d: &Domains, rng: &mut StdRng) -> Vec<Stmt> {
    let apm = d.scale.accounts_per_member;
    let two_members = |rng: &mut StdRng| -> [i64; 2] {
        let m1 = rng.gen_range(0..MEMBERS as i64);
        let m2 = (m1 + rng.gen_range(1..MEMBERS as i64)) % MEMBERS as i64;
        [
            m1 * apm + rng.gen_range(0..apm),
            m2 * apm + rng.gen_range(0..apm),
        ]
    };
    let dml = |class, sql: String, effect| Stmt {
        class,
        sql,
        params: Vec::new(),
        effect,
        expect: Expect::default(),
    };
    let mut units: Vec<Vec<Stmt>> = Vec::new();
    for _ in 0..n / 40 {
        for _ in 0..34 {
            let ids @ [a, b] = two_members(rng);
            let delta = rng.gen_range(1..50i64) * if rng.gen_bool(0.5) { 1 } else { -1 };
            let (sign, amount) = if delta < 0 {
                ('-', -delta)
            } else {
                ('+', delta)
            };
            units.push(vec![dml(
                Class::Update2m,
                format!("UPDATE accounts_all SET balance = balance {sign} {amount} WHERE id IN ({a}, {b})"),
                Effect::Add { ids, delta },
            )]);
        }
        for _ in 0..3 {
            let ids @ [a, b] = two_members(rng);
            units.push(vec![
                dml(
                    Class::DeleteInsert2m,
                    format!("DELETE FROM accounts_all WHERE id IN ({a}, {b})"),
                    Effect::Delete { ids },
                ),
                dml(
                    Class::DeleteInsert2m,
                    format!(
                        "INSERT INTO accounts_all (id, balance) VALUES ({a}, {v}), ({b}, {v})",
                        v = OPENING_BALANCE
                    ),
                    Effect::Insert { ids },
                ),
            ]);
        }
    }
    shuffle(&mut units, rng);
    units.into_iter().flatten().collect()
}

/// One pass worth of statements for `workload`, a pure function of
/// `(workload, seed, n, scale, pool)`; `pool` shrinks the `adhoc_compile`
/// template pool (a sensitivity perturbation).
pub fn generate(
    workload: Workload,
    seed: u64,
    n: usize,
    scale: &Scale,
    pool: Option<usize>,
) -> Vec<Stmt> {
    // Decorrelate workloads that share a seed.
    let mut rng = StdRng::seed_from_u64(seed ^ (workload as u64 + 1).wrapping_mul(0x9E37_79B9));
    let d = Domains::new(scale);
    match workload {
        Workload::PointHit => {
            // Fixed counts per template (hence per class), then shuffled.
            let templates = point_templates();
            let slots: Vec<&Template> = templates
                .iter()
                .zip(POINT_WEIGHTS)
                .flat_map(|(t, w)| std::iter::repeat_n(t, w))
                .collect();
            let mut out: Vec<Stmt> = (0..n)
                .map(|i| slots[i % slots.len()].render(&d, &mut rng))
                .collect();
            shuffle(&mut out, &mut rng);
            out
        }
        Workload::AdhocCompile => {
            let templates = adhoc_pool();
            // A pass shorter than the pool (smoke scale) uses as many
            // templates as it has statements.
            cycle(&templates, pool.unwrap_or(n), n, &d, &mut rng)
        }
        Workload::ScanShip => scan_ship(n, &d, &mut rng),
        Workload::WanOverlap => wan_overlap(n, &mut rng),
        Workload::Dml2pc => dml_2pc(n, &d, &mut rng),
    }
}
