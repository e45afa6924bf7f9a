//! The `--trace 1` run: per-layer metrics, gathered outside-in.
//!
//! Four parts, all driven from this file (no span lives inside the engine):
//!
//! 1. *plain* — two untraced passes on an unwrapped fixture: class p50s,
//!    engine counters, link counters, allocations, and the untraced mean the
//!    tracing overhead is judged against.
//! 2. *engine pass* — the same statements through `Engine::execute` on a
//!    fixture whose links carry a `TimedDataSource` on both sides: provider
//!    time and wire time per statement.
//! 3. *staged pass* — the harness calls each layer's public entry point in
//!    turn (`Lexer`, `fingerprint`, `parse_statement`, `Binder::bind_select`,
//!    `Optimizer::optimize`, `dhqp_executor::open` + drain), one span each.
//! 4. *probes* — direct `StorageEngine`, `SearchService` and DTC calls.

use crate::fixture::{Federation, Scale, SourceWrap, MEMBERS};
use crate::run::{
    execute, guards, measure, run_pass, setup, verify_accounts, Failures, Measured, Metric,
    Options, Outcome, Setup,
};
use crate::sys::{mean, percentile};
use crate::trace::{self, NameTotals, Recorder, TimedDataSource, INNER, OUTER};
use crate::workload::{Class, Effect, Stmt, Workload, CLASSES};
use dhqp::binder::{Binder, BoundSelect};
use dhqp::{DegradedMode, Engine};
use dhqp_executor::{ExecContext, ExecCounters, SourceCatalog};
use dhqp_oledb::{DataSource, KeyRange, RowsetExt};
use dhqp_optimizer::{ColumnRegistry, OptimizationPhase, Optimizer, PhysNode, PhysicalOp};
use dhqp_sqlfront::{fingerprint, parse_statement, Lexer, Statement};
use dhqp_storage::{StorageEngine, TableDef};
use dhqp_types::{Column, DataType, DhqpError, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A traced run's pass is this many measured passes long (a seventh of the
/// measured phase), so every class has enough samples for its p50.
const PASS_LENGTH: usize = 3;
/// Untraced passes of a traced run (timing metrics, class p50s, counters,
/// overhead base): together as long as the measured phase of an untraced
/// run, so the p99 pools at least 1 000 latencies and has ten beyond it.
const PLAIN_PASSES: usize = crate::run::PASSES / PASS_LENGTH;
/// Statements replayed by the traced passes, at most.
const TRACED_STMTS: usize = 20_000;
/// Statements per Chrome-trace file, at most.
const TRACE_FILE_STMTS: u32 = 2_000;

/// Puts a `TimedDataSource` on both sides of every link.
struct Timed(Arc<Recorder>);

impl SourceWrap for Timed {
    fn inner(&self, _: &str, source: Arc<dyn DataSource>) -> Arc<dyn DataSource> {
        Arc::new(TimedDataSource::new(source, Arc::clone(&self.0), INNER))
    }
    fn outer(&self, _: &str, source: Arc<dyn DataSource>) -> Arc<dyn DataSource> {
        Arc::new(TimedDataSource::new(source, Arc::clone(&self.0), OUTER))
    }
}

/// The harness's own `SourceCatalog`: same sources the engine resolves.
struct HarnessCatalog(Engine);

impl SourceCatalog for HarnessCatalog {
    fn local(&self) -> Arc<dyn DataSource> {
        self.0.local_data_source()
    }
    fn linked(&self, server: &str) -> Result<Arc<dyn DataSource>> {
        self.0.linked_server(server)
    }
}

fn is_dpv(class: Class) -> bool {
    !matches!(
        class,
        Class::LocalSeek
            | Class::RemotePoint
            | Class::JoinAdhoc
            | Class::FulltextAdhoc
            | Class::Fig4Join
            | Class::SemijoinProbe
            | Class::FulltextJoin
    )
}

// ---- engine pass ---------------------------------------------------------------

struct EnginePass {
    lat_ns: Vec<u64>,
    /// Σ over DPV statements of member servers that saw traffic.
    members_touched: u64,
    dpv_stmts: u64,
}

fn engine_pass(
    fed: &Federation,
    rec: &Arc<Recorder>,
    stmts: &[Stmt],
    model: &mut crate::run::Model,
    failures: &mut Failures,
) -> EnginePass {
    let mut out = EnginePass {
        lat_ns: Vec::with_capacity(stmts.len()),
        members_touched: 0,
        dpv_stmts: 0,
    };
    let member_requests = |fed: &Federation| -> [u64; MEMBERS] {
        std::array::from_fn(|i| fed.links[i + 1].snapshot().requests)
    };
    for (i, stmt) in stmts.iter().enumerate() {
        let before = member_requests(fed);
        let (result, ns) = {
            let name = if stmt.effect == Effect::None {
                "core.execute"
            } else {
                "core.dml"
            };
            let _root = rec.statement(i as u32, name);
            execute(&fed.head, stmt)
        };
        out.lat_ns.push(ns);
        if is_dpv(stmt.class) {
            let after = member_requests(fed);
            out.dpv_stmts += 1;
            out.members_touched += before.iter().zip(&after).filter(|(b, a)| a > b).count() as u64;
        }
        match result {
            Ok(r) => {
                let rows = r.rows_affected.unwrap_or(r.rows.len() as u64);
                if rows != stmt.expect.rows {
                    failures.add(format!("traced: {} gave {rows} rows", stmt.sql));
                }
                model.apply(&stmt.effect);
            }
            Err(e) => failures.add(format!("traced: {}: {e}", stmt.sql)),
        }
    }
    out
}

// ---- staged pass -----------------------------------------------------------------

struct Compiled {
    plan: PhysNode,
    registry: Arc<ColumnRegistry>,
    /// Remote SQL text the plan ships per execution.
    remote_sql_bytes: u64,
}

#[derive(Default)]
struct StagedCounts {
    tokens: u64,
    compiles: u64,
    groups: u64,
    exprs: u64,
    rules_fired: u64,
    phase_ns: [u64; 3],
    remote_sql_bytes: u64,
}

struct Staged<'a> {
    engine: &'a Engine,
    rec: &'a Arc<Recorder>,
    catalog: Arc<HarnessCatalog>,
    counters: Arc<ExecCounters>,
    /// Harness-side stand-in for the plan cache of the hit workloads.
    cache: HashMap<String, Arc<Compiled>>,
    /// `adhoc_compile`: every statement misses, as it does in the engine.
    compile_always: bool,
    counts: StagedCounts,
}

fn remote_sql_bytes(node: &PhysNode) -> u64 {
    let own = match &node.op {
        PhysicalOp::RemoteQuery { sql, .. } | PhysicalOp::SemiJoinReduce { sql, .. } => {
            sql.len() as u64
        }
        _ => 0,
    };
    own + node.children.iter().map(remote_sql_bytes).sum::<u64>()
}

impl Staged<'_> {
    fn compile(&mut self, template: &str, params: &HashMap<String, Value>) -> Result<Compiled> {
        let parsed = {
            let _s = self.rec.enter("sqlfront.parse");
            parse_statement(template)?
        };
        let Statement::Select(select) = parsed else {
            return Err(DhqpError::Unsupported(
                "staged replay compiles SELECT only".into(),
            ));
        };
        let BoundSelect {
            tree,
            mut registry,
            required,
            ..
        } = {
            let _s = self.rec.enter("core.bind");
            Binder::new(self.engine, params).bind_select(&select)?
        };
        let (plan, stats) = {
            let _s = self.rec.enter("optimizer.optimize");
            Optimizer::new(self.engine.optimizer_config()).optimize(
                tree,
                &mut registry,
                required,
            )?
        };
        let c = &mut self.counts;
        c.compiles += 1;
        c.groups += stats.groups as u64;
        c.exprs += stats.exprs as u64;
        c.rules_fired += stats.rules_fired as u64;
        for (phase, _, spent) in &stats.phases {
            let slot = match phase {
                OptimizationPhase::TransactionProcessing => 0,
                OptimizationPhase::QuickPlan => 1,
                OptimizationPhase::Full => 2,
            };
            c.phase_ns[slot] += spent.as_nanos() as u64;
        }
        Ok(Compiled {
            remote_sql_bytes: remote_sql_bytes(&plan),
            plan,
            registry: Arc::new(registry),
        })
    }

    /// One statement through the layers, one span per layer call; returns
    /// the row count.
    fn statement(&mut self, id: u32, stmt: &Stmt) -> Result<u64> {
        let _root = self.rec.statement(id, "stmt");
        let tokens = {
            let _s = self.rec.enter("sqlfront.lex");
            Lexer::new(&stmt.sql).tokenize()?
        };
        self.counts.tokens += tokens.len() as u64;
        if stmt.effect != Effect::None {
            // DML has no public staged entry points; its execution is the
            // engine pass's `core.dml` span.
            let _s = self.rec.enter("sqlfront.parse");
            parse_statement(&stmt.sql)?;
            return Ok(stmt.expect.rows);
        }
        let fp = {
            let _s = self.rec.enter("sqlfront.fingerprint");
            fingerprint(&stmt.sql)
        }
        .ok_or_else(|| DhqpError::Unsupported(format!("no fingerprint: {}", stmt.sql)))?;
        let mut params: HashMap<String, Value> = stmt.params.iter().cloned().collect();
        params.extend(fp.params.iter().cloned());
        // CONTAINS binds its hit list at compile time: never cached.
        let cacheable = !self.compile_always && !fp.template.contains("CONTAINS");
        let compiled = match self.cache.get(&fp.template) {
            Some(hit) if cacheable => Arc::clone(hit),
            _ => {
                let fresh = Arc::new(self.compile(&fp.template, &params)?);
                if cacheable {
                    self.cache.insert(fp.template.clone(), Arc::clone(&fresh));
                }
                fresh
            }
        };
        self.counts.remote_sql_bytes += compiled.remote_sql_bytes;
        // Building the execution context is executor API cost, so it is
        // inside the span, as it is inside the engine's execute.
        let open = self.rec.enter("executor.open");
        let batch = self.engine.batch_config();
        let ctx = ExecContext::new(
            Arc::clone(&self.catalog) as Arc<dyn SourceCatalog>,
            params,
            Arc::clone(&compiled.registry),
        )
        .with_counters(Arc::clone(&self.counters))
        .with_parallel(self.engine.parallel_config())
        .with_retry(self.engine.retry_policy())
        .with_batch(batch.clone())
        .with_degraded(DegradedMode::Fail)
        .with_runtime_prune(self.engine.runtime_prune_enabled());
        let mut rowset = dhqp_executor::open(&compiled.plan, &ctx)?;
        drop(open);
        let _s = self.rec.enter("executor.drain");
        let rows = rowset.collect_rows_batched(batch.batch_size)?;
        // Inside the drain span: dropping the tree joins exchange workers.
        drop(rowset);
        Ok(rows.len() as u64)
    }
}

// ---- probes ------------------------------------------------------------------------

struct Probes {
    seek_us: f64,
    scan_us_per_krow: f64,
    write_us_per_row: f64,
    dtc_txn_us: f64,
    fulltext_search_us: f64,
    fulltext_hits: f64,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn probes(fed: &Federation, scale: &Scale) -> Result<Probes> {
    let storage = fed.head.storage();
    let orders = scale.tpch.orders as i64;
    let seeks = 2_000;
    let t = Instant::now();
    for i in 0..seeks {
        let key = KeyRange::eq(vec![Value::Int((i * 7919) % orders)]);
        std::hint::black_box(storage.with_table("orders", |t| t.index_range("pk_orders", &key))??);
    }
    let seek_us = us_since(t) / seeks as f64;

    let member = fed.members[0].storage();
    let scans = 20;
    let mut scanned = 0usize;
    let t = Instant::now();
    for _ in 0..scans {
        scanned += std::hint::black_box(member.with_table("lineitem_92", |t| t.scan_rows())?).len();
    }
    let scan_us_per_krow = us_since(t) / (scanned as f64 / 1e3);

    let scratch = StorageEngine::new("probe");
    scratch.create_table(
        TableDef::new(
            "w",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::not_null("balance", DataType::Int),
            ]),
        )
        .with_index("pk_w", &["id"], true),
    )?;
    let rows: Vec<Row> = (0..10_000)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i)]))
        .collect();
    let t = Instant::now();
    for chunk in rows.chunks(100) {
        scratch.insert_rows("w", chunk)?;
    }
    let write_us_per_row = us_since(t) / rows.len() as f64;

    // begin / enlist two members / commit, no writes: the 2PC protocol alone.
    let txns = 10;
    let t = Instant::now();
    for _ in 0..txns {
        let mut txn = fed.head.dtc().begin();
        for server in ["member1", "member2"] {
            txn.enlist(server, fed.head.linked_server(server)?.create_session()?)?;
        }
        txn.commit()?;
    }
    let dtc_txn_us = us_since(t) / txns as f64;

    let terms = ["pasta", "latency", "compiler", "join", "garlic AND basil"];
    let reps = 20;
    let mut hits = 0usize;
    let t = Instant::now();
    for _ in 0..reps {
        for term in terms {
            hits += fed
                .head
                .fulltext_service()
                .query_keys("docs_ft", term)?
                .len();
        }
    }
    let searches = (reps * terms.len()) as f64;
    Ok(Probes {
        seek_us,
        scan_us_per_krow,
        write_us_per_row,
        dtc_txn_us,
        fulltext_search_us: us_since(t) / searches,
        fulltext_hits: hits as f64 / searches,
    })
}

// ---- the traced run -------------------------------------------------------------------

/// Mean latency in µs rebuilt from per-class medians — Σ class count ×
/// class p50 ÷ statements — over one or more passes of `stmts`. A few-percent
/// tracing overhead would drown in a plain mean as soon as either pass had a
/// disturbed stretch; class medians do not move with it.
fn class_weighted_mean_us(workload: Workload, stmts: &[Stmt], passes: &[&[u64]]) -> f64 {
    let weighted: f64 = workload
        .classes()
        .iter()
        .map(|&class| {
            let of_class = |lat: &&[u64]| -> Vec<f64> {
                lat.iter()
                    .zip(stmts)
                    .filter(|(_, s)| s.class == class)
                    .map(|(&ns, _)| ns as f64 / 1e3)
                    .collect()
            };
            let count = stmts.iter().filter(|s| s.class == class).count();
            let lat = crate::sys::sorted(passes.iter().flat_map(of_class).collect());
            count as f64 * percentile(&lat, 50.0)
        })
        .sum();
    weighted / stmts.len() as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn traced(opts: &Options) -> Outcome {
    let mut failures = Failures::default();
    let mut stmts = opts.statements(PASS_LENGTH);
    let workload = opts.workload;

    // 1. plain
    let Setup { fed, mut model, .. } = setup(
        opts,
        &crate::fixture::Unwrapped,
        1,
        &mut stmts,
        &mut failures,
    );
    run_pass(&fed, &stmts, &mut model, &mut failures);
    let plain: Measured = measure(&fed, &stmts, PLAIN_PASSES, &mut model, &mut failures);
    let (class_p50, mean_over_p50) = guards(
        workload,
        &stmts,
        &plain,
        opts.scale.is_full(),
        &mut failures,
    );
    if workload == Workload::Dml2pc {
        verify_accounts(&fed, &model, &mut failures, "after the plain passes");
    }

    // 2. engine pass, on a fixture with both sides of every link timed
    let rec = Recorder::new();
    let timed = Federation::build(&opts.fixture(), &Timed(Arc::clone(&rec)));
    let mut timed_model = crate::run::Model::new(&opts.scale);
    let replay = &stmts[..stmts.len().min(TRACED_STMTS)];
    let m = replay.len() as f64;
    run_pass(&timed, &stmts, &mut timed_model, &mut failures);
    rec.take();
    let engine = engine_pass(&timed, &rec, replay, &mut timed_model, &mut failures);
    let engine_spans = rec.take();

    // 3. staged pass
    let mut staged = Staged {
        engine: &timed.head,
        rec: &rec,
        catalog: Arc::new(HarnessCatalog(timed.head.clone())),
        counters: Arc::new(ExecCounters::default()),
        cache: HashMap::new(),
        compile_always: workload == Workload::AdhocCompile,
        counts: StagedCounts::default(),
    };
    // Fill the harness cache first, as the engine's was by its warm-up.
    for (i, stmt) in replay.iter().enumerate() {
        if let Err(e) = staged.statement(i as u32, stmt) {
            failures.add(format!("staged warm-up: {}: {e}", stmt.sql));
        }
    }
    rec.take();
    staged.counts = StagedCounts::default();
    for (i, stmt) in replay.iter().enumerate() {
        match staged.statement(i as u32, stmt) {
            Ok(rows) if rows == stmt.expect.rows => {}
            Ok(rows) => failures.add(format!("staged: {} gave {rows} rows", stmt.sql)),
            Err(e) => failures.add(format!("staged: {}: {e}", stmt.sql)),
        }
    }
    let staged_spans = rec.take();
    let counts = staged.counts;

    for (spans, part) in [(&engine_spans, "engine"), (&staged_spans, "staged")] {
        let path =
            opts.trace_dir
                .join(format!("{}-seed{}-{part}.json", workload.name(), opts.seed));
        if let Err(e) = trace::write_chrome_trace(&path, spans, TRACE_FILE_STMTS) {
            failures.add(format!("cannot write {}: {e}", path.display()));
        }
    }

    // 4. probes (after every counter delta has been taken)
    let probe = match probes(&fed, &opts.scale) {
        Ok(p) => Some(p),
        Err(e) => {
            failures.add(format!("probes: {e}"));
            None
        }
    };

    // ---- metrics ----
    let e_tot = trace::totals(&engine_spans);
    let s_tot = trace::totals(&staged_spans);
    let get = |t: &HashMap<&'static str, NameTotals>, name: &str| {
        t.get(name).copied().unwrap_or_default()
    };
    let stage_us = |name: &str| get(&s_tot, name).total_ns as f64 / 1e3 / m;
    let prefix = |t: &HashMap<&'static str, NameTotals>, p: &str| -> NameTotals {
        t.iter()
            .filter(|(name, _)| name.starts_with(p))
            .fold(NameTotals::default(), |a, (_, b)| NameTotals {
                count: a.count + b.count,
                total_ns: a.total_ns + b.total_ns,
                self_ns: a.self_ns + b.self_ns,
            })
    };

    let n = plain.statements();
    let nf = n as f64;
    let (b, a) = (&plain.before, &plain.after);
    let link = plain.link_total;
    let rows_out: u64 = plain.passes.iter().map(|p| p.rows_out).sum();
    let plain_lat = plain.latencies_us();
    let plain_mean = mean(&plain_lat);

    let stmt_root = get(&s_tot, "stmt");
    let unattributed = ratio(stmt_root.self_ns, stmt_root.total_ns);
    let stages_us: f64 = [
        "sqlfront.fingerprint",
        "sqlfront.parse",
        "core.bind",
        "optimizer.optimize",
        "executor.open",
        "executor.drain",
    ]
    .iter()
    .map(|s| stage_us(s))
    .sum();
    let reads: Vec<usize> = (0..replay.len())
        .filter(|&i| replay[i].effect == Effect::None)
        .collect();
    let writes = replay.len() - reads.len();
    let read_exec_us = ratio(get(&e_tot, "core.execute").total_ns, reads.len() as u64) / 1e3;
    let dml_us = ratio(get(&e_tot, "core.dml").total_ns, writes as u64) / 1e3;
    // Same statements, traced vs not.
    let plain_lists: Vec<&[u64]> = plain
        .passes
        .iter()
        .map(|p| &p.lat_ns[..replay.len()])
        .collect();
    let base_mean = class_weighted_mean_us(workload, replay, &plain_lists);
    let traced_mean = class_weighted_mean_us(workload, replay, &[&engine.lat_ns]);
    let overhead = traced_mean / base_mean - 1.0;

    let compile_share = ratio(
        [
            "sqlfront.lex",
            "sqlfront.fingerprint",
            "sqlfront.parse",
            "core.bind",
            "optimizer.optimize",
        ]
        .iter()
        .map(|s| get(&s_tot, s).self_ns)
        .sum(),
        stmt_root.total_ns,
    );
    if workload == Workload::AdhocCompile && compile_share < 0.60 {
        failures.add(format!(
            "guard: sqlfront + core.bind + optimizer do {compile_share:.3} of adhoc_compile, expected >= 0.60"
        ));
    }

    let config = opts.fixture().link;
    let modeled_wire_us = (link.requests * config.latency_us) as f64 / nf
        + if config.bytes_per_ms == 0 {
            0.0
        } else {
            link.bytes as f64 * 1e3 / config.bytes_per_ms as f64 / nf
        };
    let netsim = prefix(&e_tot, "netsim.");
    let providers = prefix(&e_tot, "providers.");
    let hits = a.plan_cache_hits - b.plan_cache_hits;
    let misses = a.plan_cache_misses - b.plan_cache_misses;
    let meta_hits = a.meta_cache_hits - b.meta_cache_hits;
    let meta_misses = a.meta_cache_misses - b.meta_cache_misses;
    let touched = ratio(engine.members_touched, engine.dpv_stmts);

    let mut metrics = plain.timing();
    metrics.extend([
        Metric::new("sqlfront.lex_us", stage_us("sqlfront.lex"), "us"),
        Metric::new("sqlfront.parse_us", stage_us("sqlfront.parse"), "us"),
        Metric::new(
            "sqlfront.tokens_per_stmt",
            counts.tokens as f64 / m,
            "count",
        ),
        Metric::new(
            "sqlfront.fingerprint_us",
            stage_us("sqlfront.fingerprint"),
            "us",
        ),
        Metric::new("core.statement_overhead_us", read_exec_us - stages_us, "us"),
        Metric::new(
            "core.plan_cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        Metric::new(
            "core.plan_cache_evictions_per_stmt",
            (a.plan_cache_evictions - b.plan_cache_evictions) as f64 / nf,
            "count",
        ),
        Metric::new("core.bind_us", stage_us("core.bind"), "us"),
        Metric::new(
            "core.meta_cache_hit_ratio",
            ratio(meta_hits, meta_hits + meta_misses),
            "ratio",
        ),
        Metric::new("core.dml_us", dml_us, "us"),
        Metric::new(
            "optimizer.optimize_us",
            stage_us("optimizer.optimize"),
            "us",
        ),
        Metric::new(
            "optimizer.phase_tp_us",
            counts.phase_ns[0] as f64 / 1e3 / m,
            "us",
        ),
        Metric::new(
            "optimizer.phase_quick_us",
            counts.phase_ns[1] as f64 / 1e3 / m,
            "us",
        ),
        Metric::new(
            "optimizer.phase_full_us",
            counts.phase_ns[2] as f64 / 1e3 / m,
            "us",
        ),
        Metric::new(
            "optimizer.groups_per_stmt",
            counts.groups as f64 / m,
            "count",
        ),
        Metric::new("optimizer.exprs_per_stmt", counts.exprs as f64 / m, "count"),
        Metric::new(
            "optimizer.rules_fired_per_stmt",
            counts.rules_fired as f64 / m,
            "count",
        ),
        Metric::new(
            "optimizer.remote_sql_bytes_per_stmt",
            counts.remote_sql_bytes as f64 / m,
            "B",
        ),
        Metric::new("executor.open_us", stage_us("executor.open"), "us"),
        Metric::new("executor.drain_us", stage_us("executor.drain"), "us"),
        Metric::new("executor.rows_out_per_stmt", rows_out as f64 / nf, "count"),
        Metric::new(
            "executor.remote_opens_per_stmt",
            (a.remote_roundtrips - b.remote_roundtrips) as f64 / nf,
            "count",
        ),
        Metric::new(
            "executor.retries_per_stmt",
            (a.remote_retries - b.remote_retries) as f64 / nf,
            "count",
        ),
        Metric::new(
            "executor.semijoin_reductions_per_stmt",
            (a.semijoin_reductions - b.semijoin_reductions) as f64 / nf,
            "count",
        ),
        Metric::new(
            "executor.rows_shipped_per_row_out",
            ratio(link.rows, rows_out),
            "ratio",
        ),
        Metric::new(
            "executor.exchange_workers_per_stmt",
            (a.exchange_workers - b.exchange_workers) as f64 / nf,
            "count",
        ),
        Metric::new("alloc.count_per_stmt", plain.allocs.0 as f64 / nf, "count"),
        Metric::new("alloc.bytes_per_stmt", plain.allocs.1 as f64 / nf, "B"),
        Metric::new(
            "netsim.overlap_ratio",
            modeled_wire_us / plain_mean,
            "ratio",
        ),
        Metric::new(
            "netsim.wire_wait_us_per_stmt",
            netsim.self_ns as f64 / 1e3 / m,
            "us",
        ),
        Metric::new(
            "netsim.rows_per_round_trip",
            ratio(link.rows, link.batches),
            "count",
        ),
        Metric::new("netsim.bytes_per_row", ratio(link.bytes, link.rows), "B"),
        Metric::new("netsim.modeled_wire_us_per_stmt", modeled_wire_us, "us"),
        Metric::new(
            "providers.remote_exec_us_per_stmt",
            providers.total_ns as f64 / 1e3 / m,
            "us",
        ),
        Metric::new(
            "providers.commands_per_stmt",
            get(&e_tot, "providers.execute").count as f64 / m,
            "count",
        ),
        Metric::new(
            "storage.seek_us",
            probe.as_ref().map_or(0.0, |p| p.seek_us),
            "us",
        ),
        Metric::new(
            "storage.scan_us_per_krow",
            probe.as_ref().map_or(0.0, |p| p.scan_us_per_krow),
            "us",
        ),
        Metric::new(
            "storage.write_us_per_row",
            probe.as_ref().map_or(0.0, |p| p.write_us_per_row),
            "us",
        ),
        Metric::new("federation.members_touched_per_stmt", touched, "count"),
        Metric::new(
            "federation.prune_ratio",
            if engine.dpv_stmts == 0 {
                0.0
            } else {
                1.0 - touched / MEMBERS as f64
            },
            "ratio",
        ),
        Metric::new(
            "dtc.txn_us",
            probe.as_ref().map_or(0.0, |p| p.dtc_txn_us),
            "us",
        ),
        Metric::new(
            "dtc.commits_per_stmt",
            (a.dtc_commits - b.dtc_commits) as f64 / nf,
            "count",
        ),
        Metric::new("dtc.aborts", (a.dtc_aborts - b.dtc_aborts) as f64, "count"),
        Metric::new("dtc.in_doubt", a.dtc_in_doubt as f64, "count"),
        Metric::new(
            "fulltext.search_us",
            probe.as_ref().map_or(0.0, |p| p.fulltext_search_us),
            "us",
        ),
        Metric::new(
            "fulltext.hits_per_search",
            probe.as_ref().map_or(0.0, |p| p.fulltext_hits),
            "count",
        ),
    ]);
    for class in CLASSES {
        let p50 = class_p50
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0.0, |c| c.1);
        metrics.push(Metric::new(
            format!("class.{}_p50_us", class.name()),
            p50,
            "us",
        ));
    }
    metrics.push(Metric::new("mix.mean_over_p50", mean_over_p50, "ratio"));
    metrics.push(Metric::new("trace.overhead_share", overhead, "ratio"));
    metrics.push(Metric::new(
        "trace.unattributed_share",
        unattributed,
        "ratio",
    ));

    let header = vec![
        format!(
            "traced run: {PLAIN_PASSES} plain passes x {} statements, then {} statements through the \
             timed fixture (engine pass) and through the staged pipeline; {} + {} spans",
            stmts.len(),
            replay.len(),
            engine_spans.len(),
            staged_spans.len()
        ),
        format!(
            "untraced mean {plain_mean:.1}us p50 {:.1}us; traced mean {traced_mean:.1}us vs {base_mean:.1}us \
             on the same statements; staged compiles {}; compile share {compile_share:.3}",
            percentile(&plain_lat, 50.0),
            counts.compiles
        ),
        format!("span files: {}/{}-seed{}-{{engine,staged}}.json", opts.trace_dir.display(), workload.name(), opts.seed),
    ];
    Outcome {
        attempted: n + 2 * replay.len() as u64,
        failures,
        metrics,
        header,
    }
}
