//! Parameterized plan cache: hit/miss observability, epoch invalidation
//! through every mutation path, the TTL'd remote-statistics cache, and
//! the regression that a replaced linked server's old plans are never
//! reused.

use dhqp::{BatchConfig, BreakerState, DegradedMode, Engine, EngineDataSource, ParallelConfig};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{
    Command, DataSource, KeyRange, ProviderCapabilities, Reply, Rowset, Session, SessionLayer,
    SourceLayer, TableInfo, Verb,
};
use dhqp_storage::TableDef;
use dhqp_types::{Column, DataType, Interval, IntervalSet, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn local_engine() -> Engine {
    let e = Engine::new("local");
    e.create_table(TableDef::new(
        "t",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
        ]),
    ))
    .unwrap();
    let rows: Vec<Row> = [(1, "alice"), (2, "bob"), (3, "carol")]
        .iter()
        .map(|(id, n)| Row::new(vec![Value::Int(*id), Value::Str(n.to_string())]))
        .collect();
    e.insert("t", &rows).unwrap();
    // Cache behaviour is what this file tests: force it on even when the
    // suite runs under a DHQP_PLAN_CACHE=0 leg.
    e.set_plan_cache_enabled(true);
    e
}

/// A remote engine holding `rt(k, v)` with the given rows, analyzed so a
/// statistics bundle ships with its metadata.
fn remote_with(rows: &[(i64, &str)]) -> Engine {
    remote_named("v", rows)
}

/// [`remote_with`], its second column named `column`.
fn remote_named(column: &str, rows: &[(i64, &str)]) -> Engine {
    let r = Engine::new("remote-engine");
    r.create_table(TableDef::new(
        "rt",
        Schema::new(vec![
            Column::not_null("k", DataType::Int),
            Column::new(column, DataType::Str),
        ]),
    ))
    .unwrap();
    let rows: Vec<Row> = rows
        .iter()
        .map(|(k, v)| Row::new(vec![Value::Int(*k), Value::Str(v.to_string())]))
        .collect();
    r.insert("rt", &rows).unwrap();
    r.analyze("rt", 8).unwrap();
    r
}

fn link(head: &Engine, name: &str, remote: &Engine) {
    head.add_linked_server(name, Arc::new(EngineDataSource::new(remote.clone())))
        .unwrap();
}

/// A head engine with the plan cache force-enabled (env-leg independent).
fn head_engine() -> Engine {
    let head = Engine::new("head");
    head.set_plan_cache_enabled(true);
    head
}

#[test]
fn second_execution_hits_and_explain_analyze_says_so() {
    let e = local_engine();
    let sql = "SELECT name FROM t WHERE id = 2";
    let first = e.execute_analyze(sql).unwrap();
    assert_eq!(first.record.cache_hit, Some(false));
    assert!(
        first.render().contains("[plan cache: miss]"),
        "{}",
        first.render()
    );
    let second = e.execute_analyze(sql).unwrap();
    assert_eq!(second.record.cache_hit, Some(true));
    assert!(
        second.render().contains("[plan cache: hit]"),
        "{}",
        second.render()
    );
    assert_eq!(first.result.rows, second.result.rows);
    // The statement form renders the same marker.
    let r = e
        .execute("EXPLAIN ANALYZE SELECT name FROM t WHERE id = 2")
        .unwrap();
    let text = format!("{:?}", r.rows);
    assert!(text.contains("[plan cache: hit]"), "{text}");
    let m = e.metrics();
    assert!(m.plan_cache_hits >= 2, "{m:?}");
    assert_eq!(m.plan_cache_misses, 1, "{m:?}");
}

#[test]
fn fingerprint_equal_literals_share_one_entry() {
    let e = local_engine();
    let r1 = e.query("SELECT name FROM t WHERE id = 1").unwrap();
    let r2 = e.query("SELECT name FROM t WHERE id = 2").unwrap();
    let r3 = e.query("SELECT name FROM t WHERE id = 3").unwrap();
    assert_eq!(r1.value(0, 0), &Value::Str("alice".into()));
    assert_eq!(r2.value(0, 0), &Value::Str("bob".into()));
    assert_eq!(r3.value(0, 0), &Value::Str("carol".into()));
    assert_eq!(e.plan_cache_len(), 1, "one shared entry for all literals");
    let m = e.metrics();
    assert_eq!(m.plan_cache_misses, 1, "{m:?}");
    assert_eq!(m.plan_cache_hits, 2, "{m:?}");
}

/// A template's plan is chosen by the columns' densities, never by the
/// first literal it happened to be compiled for (DESIGN.md §5): whichever
/// literal comes first, every later one served from the cache returns what
/// an uncached compile — which sees that literal — returns. The skew makes
/// a sniffed plan wrong for somebody: `grp = 0` is half the remote table,
/// every other group one row.
#[test]
fn a_warm_hit_returns_the_cold_plans_rows_for_every_literal() {
    let remote = Engine::new("remote-engine");
    remote
        .create_table(
            TableDef::new(
                "rt",
                Schema::new(vec![
                    Column::not_null("k", DataType::Int),
                    Column::new("grp", DataType::Int),
                    Column::new("v", DataType::Str),
                ]),
            )
            .with_index("pk_rt", &["k"], true)
            .with_index("ix_grp", &["grp"], false),
        )
        .unwrap();
    let rows: Vec<Row> = (0..400)
        .map(|k| {
            let grp = if k < 200 { 0 } else { k };
            Row::new(vec![
                Value::Int(k),
                Value::Int(grp),
                Value::Str(format!("v{k}")),
            ])
        })
        .collect();
    remote.insert("rt", &rows).unwrap();
    remote.analyze("rt", 8).unwrap();

    let sorted = |e: &Engine, sql: &str| {
        let mut rows: Vec<String> = e
            .query(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        rows
    };
    let templates: [fn(i64) -> String; 4] = [
        |n| format!("SELECT k, v FROM r0.db.dbo.rt WHERE k = {n}"),
        |n| format!("SELECT k, v FROM r0.db.dbo.rt WHERE grp = {n}"),
        |n| {
            format!("SELECT t.name, r.v FROM t JOIN r0.db.dbo.rt r ON t.id = r.k WHERE r.grp = {n}")
        },
        |n| format!("SELECT k FROM r0.db.dbo.rt WHERE grp = {n} AND k <> 3 AND k >= 1"),
    ];
    let literals = [0, 1, 2, 250, 399, 1000];
    // Each literal takes a turn at being the one the template is compiled for.
    for first in literals {
        let warm = local_engine();
        link(&warm, "r0", &remote);
        let cold = local_engine();
        cold.set_plan_cache_enabled(false);
        link(&cold, "r0", &remote);
        for template in templates {
            sorted(&warm, &template(first));
            for n in literals {
                let sql = template(n);
                assert_eq!(
                    sorted(&warm, &sql),
                    sorted(&cold, &sql),
                    "{sql} after {first}"
                );
            }
        }
        let m = warm.metrics();
        assert_eq!(m.plan_cache_misses, templates.len() as u64, "{m:?}");
        assert_eq!(
            m.plan_cache_hits,
            (templates.len() * literals.len()) as u64,
            "{m:?}"
        );
    }
}

/// Int and float literals produce the same template (the parameter's type
/// is not part of the shape), so a plan compiled for an integer literal
/// serves a float literal on a hit — and must still compare correctly.
#[test]
fn int_and_float_literals_share_a_template_correctly() {
    let e = local_engine();
    let n = |sql: &str| match e.query(sql).unwrap().scalar().unwrap() {
        Value::Int(n) => *n,
        other => panic!("{other}"),
    };
    assert_eq!(n("SELECT COUNT(*) AS c FROM t WHERE id > 1"), 2);
    assert_eq!(n("SELECT COUNT(*) AS c FROM t WHERE id > 1.5"), 2);
    assert_eq!(n("SELECT COUNT(*) AS c FROM t WHERE id > 2.5"), 1);
    assert_eq!(e.plan_cache_len(), 1, "one template across int and float");
    assert_eq!(e.metrics().plan_cache_hits, 2);
}

#[test]
fn user_params_compose_with_auto_parameterization() {
    let e = local_engine();
    let sql = "SELECT name FROM t WHERE id = @who AND 1 = 1";
    let params = |id: i64| std::collections::HashMap::from([("who".to_string(), Value::Int(id))]);
    let r1 = e.query_with_params(sql, params(1)).unwrap();
    let r2 = e.query_with_params(sql, params(3)).unwrap();
    assert_eq!(r1.value(0, 0), &Value::Str("alice".into()));
    assert_eq!(r2.value(0, 0), &Value::Str("carol".into()));
    assert!(e.metrics().plan_cache_hits >= 1);
}

/// The small-fix regression: re-registering a linked server under the same
/// name must evict the old server's plans — the replacement engine's data
/// (and schema) answer every subsequent execution.
#[test]
fn replaced_server_never_reuses_old_plan() {
    let head = head_engine();
    let old = remote_with(&[(1, "old-world")]);
    link(&head, "srv", &old);
    let sql = "SELECT v FROM srv.db.dbo.rt WHERE k = 1";
    let r = head.query(sql).unwrap();
    assert_eq!(r.value(0, 0), &Value::Str("old-world".into()));
    assert_eq!(head.metrics().plan_cache_misses, 1);

    let new = remote_with(&[(1, "new-world")]);
    link(&head, "srv", &new); // same name: replacement, epoch bump
    let r = head.query(sql).unwrap();
    assert_eq!(
        r.value(0, 0),
        &Value::Str("new-world".into()),
        "stale plan answered from the replaced server"
    );
    let m = head.metrics();
    assert_eq!(m.plan_cache_hits, 0, "old plan must never be a hit: {m:?}");
    assert_eq!(m.plan_cache_misses, 2, "{m:?}");
    assert!(m.plan_cache_evictions >= 1, "{m:?}");
    // The fresh plan is normal: it hits on re-execution.
    head.query(sql).unwrap();
    assert_eq!(head.metrics().plan_cache_hits, 1);
}

/// A source whose first metadata request parks: it says so on `parked`,
/// then waits for `release` before it asks the source it wraps.
struct ParkOnce {
    inner: Arc<dyn DataSource>,
    gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl SourceLayer for ParkOnce {
    fn inner(&self) -> &dyn DataSource {
        &*self.inner
    }

    fn metadata<T>(&self, ask: impl FnOnce(&dyn DataSource) -> Result<T>) -> Result<T> {
        let gate = self.gate.lock().unwrap().take();
        if let Some((parked, release)) = gate {
            parked.send(()).unwrap();
            release.recv().unwrap();
        }
        ask(self.inner())
    }
}

/// A compile whose metadata fetch is still on the wire when its server is
/// re-registered must not leave the replaced server's schema behind: not
/// in the metadata cache (the next bind sees the new columns) and not in
/// the plan cache (the racing template is compiled again).
#[test]
fn a_fetch_from_a_replaced_source_does_not_outlive_it() {
    let head = head_engine();
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let old = ParkOnce {
        inner: Arc::new(EngineDataSource::new(remote_with(&[(1, "old-world")]))),
        gate: Mutex::new(Some((parked_tx, release_rx))),
    };
    head.add_linked_server("srv", Arc::new(old)).unwrap();
    let racing = "SELECT v FROM srv.db.dbo.rt WHERE k = 1";
    let compile = {
        let head = head.clone();
        std::thread::spawn(move || head.query(racing).map(|_| ()))
    };
    parked.recv().unwrap();
    link(&head, "srv", &remote_named("w", &[(1, "new-world")]));
    release.send(()).unwrap();
    // It bound `rt(k, v)` and runs against `rt(k, w)`: whether that run
    // fails is not this test's question.
    let _ = compile.join().unwrap();

    let r = head
        .query("SELECT w FROM srv.db.dbo.rt WHERE k = 1")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Str("new-world".into()));
    let hits = head.metrics().plan_cache_hits;
    let again = head.query(racing);
    assert_eq!(
        head.metrics().plan_cache_hits,
        hits,
        "a plan compiled against the replaced server was reused: {:?}",
        again.map(|r| r.rows)
    );
}

type Hook = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

/// Runs the hook it holds, if any, when one of its sessions next opens a
/// command or a rowset.
struct OnOpen(Arc<dyn DataSource>, Hook);

impl SourceLayer for OnOpen {
    fn inner(&self) -> &dyn DataSource {
        &*self.0
    }

    fn session(&self) -> Result<Box<dyn Session>> {
        let inner = self.0.create_session()?;
        Ok(Box::new(OnOpenSession(inner, Arc::clone(&self.1))))
    }
}

struct OnOpenSession(Box<dyn Session>, Hook);

impl SessionLayer for OnOpenSession {
    fn call(&mut self, verb: Verb<'_>) -> Result<Reply> {
        if matches!(
            verb,
            Verb::CreateCommand() | Verb::OpenIndex(..) | Verb::OpenRowset(..)
        ) {
            let hook = self.1.lock().unwrap().take();
            hook.into_iter().for_each(|hook| hook());
        }
        verb.send(&mut *self.0)
    }
}

/// A remote engine holding `rt(k, <column>)` with the one row `(1, value)`.
fn one_row(column: &str, value: i64) -> Engine {
    let r = Engine::new(format!("remote-{value}"));
    let schema = Schema::new(vec![
        Column::not_null("k", DataType::Int),
        Column::not_null(column, DataType::Int),
    ]);
    r.create_table(TableDef::new("rt", schema)).unwrap();
    r.insert("rt", &[Row::new(vec![Value::Int(1), Value::Int(value)])])
        .unwrap();
    r
}

const BOTH: &str =
    "SELECT v FROM a.db.dbo.rt WHERE k = 1 UNION ALL SELECT v FROM b.db.dbo.rt WHERE k = 1";

/// Runs [`BOTH`] serially, `a` first, while the read of `a` re-registers
/// `b` as a source whose `rt` has `column`, holding 1000 — cold, and as a
/// plan-cache hit. Either way the statement answers as the `b` it bound,
/// and the next statement reads the successor.
fn runs_on_the_servers_it_bound(column: &str) {
    for cached in [false, true] {
        let head = head_engine();
        head.set_parallel_config(ParallelConfig::serial());
        let hook = Hook::default();
        let at_a = OnOpen(
            Arc::new(EngineDataSource::new(one_row("v", 10))),
            Arc::clone(&hook),
        );
        head.add_linked_server("a", Arc::new(at_a)).unwrap();
        link(&head, "b", &one_row("v", 100));
        let answer = |head: &Engine, sql: &str| {
            let rows = head.query(sql).map(|r| r.rows);
            rows.map(|rows| rows.iter().map(|r| r.values.clone()).collect::<Vec<_>>())
        };
        if cached {
            answer(&head, BOTH).unwrap();
        }
        let hits = head.metrics().plan_cache_hits;
        let (engine, successor) = (head.clone(), one_row(column, 1000));
        *hook.lock().unwrap() = Some(Box::new(move || link(&engine, "b", &successor)));

        let got = answer(&head, BOTH);
        assert!(hook.lock().unwrap().is_none(), "b was re-registered");
        assert_eq!(head.metrics().plan_cache_hits, hits + cached as u64);
        let expected = vec![vec![Value::Int(10)], vec![Value::Int(100)]];
        assert_eq!(got, Ok(expected), "{column} successor, cached: {cached}");
        let after = format!("SELECT {column} FROM b.db.dbo.rt WHERE k = 1");
        assert_eq!(answer(&head, &after), Ok(vec![vec![Value::Int(1000)]]));
    }
}

/// The successor has the bound server's schema: the statement still reads
/// the server it bound, not the one its name points at now.
#[test]
fn a_statement_reads_the_registration_it_bound() {
    runs_on_the_servers_it_bound("v");
}

/// The successor's `rt` has no `v`: the statement still answers, instead of
/// failing at execution on a column it bound against the other server.
#[test]
fn a_statement_is_not_refused_by_a_registration_it_did_not_bind() {
    runs_on_the_servers_it_bound("w");
}

#[test]
fn remote_ddl_with_clear_metadata_cache_invalidates() {
    let head = head_engine();
    let remote = remote_with(&[(1, "before")]);
    link(&head, "srv", &remote);
    let sql = "SELECT v FROM srv.db.dbo.rt WHERE k = 1";
    head.query(sql).unwrap();
    head.query(sql).unwrap();
    assert_eq!(head.metrics().plan_cache_hits, 1);

    // Remote DDL: the column the cached plan ships is renamed away.
    remote.storage().drop_table("rt").unwrap();
    remote
        .storage()
        .create_table(TableDef::new(
            "rt",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::new("w", DataType::Str),
            ]),
        ))
        .unwrap();
    remote
        .storage()
        .insert_rows(
            "rt",
            &[Row::new(vec![Value::Int(1), Value::Str("after".into())])],
        )
        .unwrap();

    head.clear_metadata_cache();
    // The old statement now fails its (fresh) bind instead of shipping a
    // stale plan that references the dropped column...
    let err = head.query(sql).unwrap_err();
    assert!(err.to_string().contains('v'), "{err}");
    // ...and the new column resolves against the refetched schema.
    let r = head
        .query("SELECT w FROM srv.db.dbo.rt WHERE k = 1")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Str("after".into()));
    let m = head.metrics();
    assert!(m.plan_cache_evictions >= 1, "{m:?}");
    assert_eq!(m.plan_cache_hits, 1, "no hit after invalidation: {m:?}");
}

/// A DPV member altered behind the federation's back: the cached plan is
/// still *found*, but delayed schema validation re-checks every member the
/// plan touches on each execution and refuses to run it; redefining the
/// view (a member change at the head) then evicts the stale plan.
#[test]
fn dpv_member_drift_fails_cached_plan_and_redefinition_evicts() {
    let head = head_engine();
    let m1 = remote_with(&[(1, "one"), (2, "two")]);
    let m2 = remote_with(&[(10, "ten"), (11, "eleven")]);
    link(&head, "member1", &m1);
    link(&head, "member2", &m2);
    let members = vec![
        (
            Some("member1".to_string()),
            "rt".to_string(),
            IntervalSet::single(Interval::less_than(Value::Int(10))),
        ),
        (
            Some("member2".to_string()),
            "rt".to_string(),
            IntervalSet::single(Interval::at_least(Value::Int(10))),
        ),
    ];
    head.define_partitioned_view("rt_all", "k", members.clone())
        .unwrap();
    let sql = "SELECT v FROM rt_all WHERE k >= 1";
    head.query(sql).unwrap();
    head.query(sql).unwrap();
    assert_eq!(head.metrics().plan_cache_hits, 1);

    // Member 2's schema drifts.
    m2.storage().drop_table("rt").unwrap();
    m2.storage()
        .create_table(TableDef::new(
            "rt",
            Schema::new(vec![Column::not_null("something_else", DataType::Int)]),
        ))
        .unwrap();
    let err = head.query(sql).unwrap_err();
    assert_eq!(err.kind(), "schema-drift", "{err}");

    // Repair the member and redefine the view: the schema epoch bump
    // evicts the stale plan, and a fresh compile succeeds.
    m2.storage().drop_table("rt").unwrap();
    drop(m2);
    let m2b = remote_with(&[(10, "ten"), (11, "eleven")]);
    link(&head, "member2", &m2b);
    head.define_partitioned_view("rt_all", "k", members)
        .unwrap();
    let r = head.query(sql).unwrap();
    assert_eq!(r.len(), 4);
    let m = head.metrics();
    assert!(m.plan_cache_evictions >= 1, "{m:?}");
}

// ---- delayed schema validation rides the open --------------------------------

/// `rt_all` over `rt` on four linked members, `k` in `[10·i, 10·i + 9]` on
/// member `i`, two rows each, every member behind its own link with no
/// fault plan (so the links' request counts are exact under every CI leg).
struct Dpv {
    head: Engine,
    members: Vec<Engine>,
    links: Vec<NetworkLink>,
}

fn reliable(source: Arc<dyn DataSource>, link: &NetworkLink) -> Arc<dyn DataSource> {
    Arc::new(NetworkedDataSource::reliable(source, link.clone()))
}

fn dpv(wrap: impl Fn(Arc<dyn DataSource>, &NetworkLink) -> Arc<dyn DataSource>) -> Dpv {
    let head = head_engine();
    let (mut members, mut links, mut view) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..4i64 {
        let member = remote_with(&[(10 * i + 1, "a"), (10 * i + 2, "b")]);
        let link = NetworkLink::new(format!("m{i}"), NetworkConfig::lan());
        let source = wrap(Arc::new(EngineDataSource::new(member.clone())), &link);
        head.add_linked_server(&format!("m{i}"), source).unwrap();
        view.push((
            Some(format!("m{i}")),
            "rt".to_string(),
            IntervalSet::single(Interval::between(
                Value::Int(10 * i),
                Value::Int(10 * i + 9),
            )),
        ));
        members.push(member);
        links.push(link);
    }
    head.define_partitioned_view("rt_all", "k", view).unwrap();
    Dpv {
        head,
        members,
        links,
    }
}

/// Replace a member's `rt` behind the federation's back.
fn drift(member: &Engine) {
    member.storage().drop_table("rt").unwrap();
    member
        .storage()
        .create_table(TableDef::new(
            "rt",
            Schema::new(vec![Column::not_null("something_else", DataType::Int)]),
        ))
        .unwrap();
}

fn k(value: i64) -> HashMap<String, Value> {
    HashMap::from([("k".to_string(), Value::Int(value))])
}

/// The check that used to run before the first open now travels with each
/// member's open — on whichever thread, in whichever pull protocol, under
/// whichever degraded-mode policy that open happens. Drift is the member's
/// answer to a request, not a transport fault: never retried, never
/// quarantined, and the breaker does not hear of it.
#[test]
fn a_drifted_member_fails_a_cached_plan_in_every_dispatch_mode() {
    let sql = "SELECT v FROM rt_all WHERE k >= 1";
    for parallel in &[ParallelConfig::serial(), ParallelConfig::parallel()] {
        for batch in [BatchConfig::batched(1), BatchConfig::batched(3)] {
            for degraded in [DegradedMode::Fail, DegradedMode::Prune] {
                let mode = format!("{parallel:?} {batch:?} {degraded:?}");
                let f = dpv(reliable);
                f.head.set_parallel_config(parallel.clone());
                f.head.set_batch_config(batch.clone());
                f.head.set_degraded_mode(degraded);
                assert_eq!(f.head.query(sql).unwrap().len(), 8, "{mode}");
                assert_eq!(f.head.query(sql).unwrap().len(), 8, "{mode}");

                drift(&f.members[2]);
                let before = f.head.metrics();
                let err = f.head.query(sql).unwrap_err();
                assert_eq!(err.kind(), "schema-drift", "{mode}: {err}");
                let after = f.head.metrics();
                assert_eq!(
                    after.plan_cache_hits,
                    before.plan_cache_hits + 1,
                    "the stale plan is still found, and refused at run time ({mode})"
                );
                assert_eq!(after.remote_retries, before.remote_retries, "{mode}");
                assert_eq!(
                    after.remote_transient_errors, before.remote_transient_errors,
                    "{mode}"
                );
                assert_eq!(after.members_pruned, before.members_pruned, "{mode}");
                assert_eq!(
                    after.breaker_fast_fails, before.breaker_fast_fails,
                    "{mode}"
                );
                for link in f.head.link_health() {
                    assert_eq!(link.state, BreakerState::Closed, "{mode}: {link:?}");
                    assert_eq!((link.opens, link.consecutive_failures), (0, 0), "{mode}");
                }

                // A member table that is gone altogether keeps the
                // provider's own error.
                f.members[2].storage().drop_table("rt").unwrap();
                let err = f.head.query(sql).unwrap_err();
                assert_eq!(err.kind(), "catalog", "{mode}: {err}");
            }
        }
    }
}

/// A member the statement does not open is not validated, by construction:
/// whether the optimizer pruned it statically or a startup filter skips it
/// for this execution's parameter value, nothing is sent to it — so its
/// drift cannot fail a statement that never reads it.
#[test]
fn a_drifted_member_the_statement_does_not_open_is_never_contacted() {
    // IN-list literals are not auto-parameterized: the optimizer prunes
    // three members away at compile time, and the pruned plan is cached.
    let pruned_sql = "SELECT v FROM rt_all WHERE k IN (1, 2)";
    let param_sql = "SELECT v FROM rt_all WHERE k = @k";
    for parallel in [ParallelConfig::serial(), ParallelConfig::parallel()] {
        let f = dpv(reliable);
        f.head.set_parallel_config(parallel.clone());
        f.head.query(pruned_sql).unwrap();
        f.head.query_with_params(param_sql, k(1)).unwrap();

        drift(&f.members[2]);
        let before = f.links[2].snapshot();
        assert_eq!(f.head.query(pruned_sql).unwrap().len(), 2, "{parallel:?}");
        let one = f.head.query_with_params(param_sql, k(1)).unwrap();
        assert_eq!(one.len(), 1, "{parallel:?}");
        assert!(
            f.links[2].snapshot().since(&before).is_zero(),
            "the drifted member was contacted ({parallel:?})"
        );
        // The same cached plan, aimed at the drifted member, is refused.
        let err = f.head.query_with_params(param_sql, k(21)).unwrap_err();
        assert_eq!(err.kind(), "schema-drift", "{parallel:?}: {err}");
    }
}

/// A decorator written before `Session::check_schema` existed: it forwards
/// the data-access calls it knows and inherits the default for the rest.
struct Unaware(Arc<dyn DataSource>);

impl DataSource for Unaware {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn capabilities(&self) -> ProviderCapabilities {
        self.0.capabilities()
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        self.0.tables()
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        Ok(Box::new(UnawareSession(self.0.create_session()?)))
    }
}

struct UnawareSession(Box<dyn Session>);

impl Session for UnawareSession {
    fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>> {
        self.0.open_rowset(table)
    }

    fn create_command(&mut self) -> Result<Box<dyn Command>> {
        self.0.create_command()
    }

    fn open_index(
        &mut self,
        table: &str,
        index: &str,
        range: &KeyRange,
    ) -> Result<Box<dyn Rowset>> {
        self.0.open_index(table, index, range)
    }
}

/// Behind such a decorator — on the member's side of the link or on the
/// head's — nobody answers the stamp, so the head fetches the member's
/// metadata and compares the columns itself, as it always did: one
/// metadata request per member read, and drift is still drift.
#[test]
fn a_member_behind_an_unaware_decorator_is_validated_by_the_head() {
    type Wrap = fn(Arc<dyn DataSource>, &NetworkLink) -> Arc<dyn DataSource>;
    let member_side: Wrap = |source, link| reliable(Arc::new(Unaware(source)), link);
    let head_side: Wrap = |source, link| Arc::new(Unaware(reliable(source, link)));
    let sql = "SELECT v FROM rt_all WHERE k >= 30";
    for (side, wrap) in [("member side", member_side), ("head side", head_side)] {
        let f = dpv(wrap);
        f.head.set_parallel_config(ParallelConfig::serial());
        // Twice: the plan is cached and the pool holds a session.
        f.head.query(sql).unwrap();
        f.head.query(sql).unwrap();

        let before = f.links[3].snapshot();
        assert_eq!(f.head.query(sql).unwrap().len(), 2, "{side}");
        assert_eq!(
            f.links[3].snapshot().since(&before).requests,
            2,
            "the metadata request and the open ({side})"
        );

        drift(&f.members[3]);
        let before = f.links[3].snapshot();
        let err = f.head.query(sql).unwrap_err();
        assert_eq!(err.kind(), "schema-drift", "{side}: {err}");
        assert!(err.message().contains("view 'rt_all'"), "{side}: {err}");
        assert_eq!(
            f.links[3].snapshot().since(&before).requests,
            1,
            "exactly the metadata request; the open is never sent ({side})"
        );
    }
}

#[test]
fn stats_ttl_zero_forces_refetch() {
    let head = head_engine();
    let remote = remote_with(&[(1, "x"), (2, "y")]);
    link(&head, "srv", &remote);
    head.set_plan_cache_enabled(false); // isolate the metadata path
    head.query("SELECT v FROM srv.db.dbo.rt WHERE k = 1")
        .unwrap();
    head.query("SELECT v FROM srv.db.dbo.rt WHERE k = 2")
        .unwrap();
    let m = head.metrics();
    assert!(m.stats_cache_hits >= 1, "fresh stats served again: {m:?}");
    let base_misses = m.stats_cache_misses;

    head.set_stats_ttl(Duration::ZERO);
    head.query("SELECT v FROM srv.db.dbo.rt WHERE k = 1")
        .unwrap();
    head.query("SELECT v FROM srv.db.dbo.rt WHERE k = 2")
        .unwrap();
    let m = head.metrics();
    assert!(
        m.stats_cache_misses >= base_misses + 2,
        "zero TTL must refetch statistics every bind: {m:?}"
    );
}

#[test]
fn disabling_the_cache_bypasses_it_entirely() {
    let e = local_engine();
    e.set_plan_cache_enabled(false);
    let sql = "SELECT name FROM t WHERE id = 1";
    e.query(sql).unwrap();
    e.query(sql).unwrap();
    let m = e.metrics();
    assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (0, 0), "{m:?}");
    assert_eq!(e.plan_cache_len(), 0);
    // Re-enabling resumes normal miss-then-hit behavior.
    e.set_plan_cache_enabled(true);
    e.query(sql).unwrap();
    e.query(sql).unwrap();
    let m = e.metrics();
    assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (1, 1), "{m:?}");
}

#[test]
fn capacity_pressure_evicts_lru() {
    let e = local_engine();
    e.set_plan_cache_capacity(2);
    e.query("SELECT name FROM t WHERE id = 1").unwrap();
    e.query("SELECT id FROM t WHERE id > 1").unwrap();
    e.query("SELECT COUNT(*) AS n FROM t WHERE id < 3").unwrap();
    assert!(e.plan_cache_len() <= 2);
    let m = e.metrics();
    assert_eq!(m.plan_cache_misses, 3, "{m:?}");
    assert!(m.plan_cache_evictions >= 1, "{m:?}");
    // The evicted (least recently used) shape recompiles as a miss.
    e.query("SELECT name FROM t WHERE id = 2").unwrap();
    assert_eq!(e.metrics().plan_cache_misses, 4);
}

#[test]
fn optimizer_config_change_invalidates() {
    let e = local_engine();
    let sql = "SELECT name FROM t WHERE id = 1";
    e.query(sql).unwrap();
    e.query(sql).unwrap();
    assert_eq!(e.metrics().plan_cache_hits, 1);
    let mut config = e.optimizer_config();
    config.simplify.constraint_pruning = false;
    e.set_optimizer_config(config);
    e.query(sql).unwrap();
    let m = e.metrics();
    assert_eq!(m.plan_cache_hits, 1, "config change must not reuse: {m:?}");
    assert_eq!(m.plan_cache_misses, 2, "{m:?}");
}

#[test]
fn local_ddl_invalidates() {
    let e = local_engine();
    let sql = "SELECT name FROM t WHERE id = 1";
    e.query(sql).unwrap();
    e.query(sql).unwrap();
    assert_eq!(e.metrics().plan_cache_hits, 1);
    e.create_table(TableDef::new(
        "other",
        Schema::new(vec![Column::not_null("x", DataType::Int)]),
    ))
    .unwrap();
    e.query(sql).unwrap();
    let m = e.metrics();
    assert_eq!(m.plan_cache_hits, 1, "DDL must invalidate: {m:?}");
    assert_eq!(m.plan_cache_misses, 2, "{m:?}");
}
