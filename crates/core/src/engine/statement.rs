//! The statement driver: every entry point runs begin → compile → run →
//! finish through [`Engine::run_statement`].

use super::{Engine, LinkedServer};
use crate::analyze::{text_result, AnalyzeReport};
use crate::binder::Binder;
use crate::dml;
use crate::knobs::Knobs;
use crate::metrics::StatementKind;
use crate::plan_cache::{self, CachedSelect};
use crate::record::{self, StatementRecord};
use crate::result::QueryResult;
use crate::trace::TraceBuilder;
use dhqp_executor::{PruneLog, RuntimeStatsCollector};
use dhqp_oledb::{emit_event, has_hook, record_wait, RowsetExt, ScopeGuard, WaitClass, WaitStats};
use dhqp_optimizer::explain::ExplainPlan;
use dhqp_optimizer::Optimizer;
use dhqp_sqlfront::{fingerprint, parse_statement, SelectStmt, Statement, AUTO_PARAM_PREFIX};
use dhqp_storage::LocalSession;
use dhqp_types::{DhqpError, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

impl Engine {
    /// Run any statement without parameters.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with_params(sql, HashMap::new())
    }

    /// Run any statement with `@name` parameter values.
    pub fn execute_with_params(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> Result<QueryResult> {
        self.execute_recorded(sql, params).0
    }

    /// [`Engine::execute_with_params`], returning the statement's record
    /// beside its outcome — on failure too, and for text that does not
    /// parse. This statement's own record: on an engine other sessions
    /// share, the rings' newest entry may be somebody else's.
    pub fn execute_recorded(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> (Result<QueryResult>, Arc<StatementRecord>) {
        let (output, record) = self.run_statement(sql, params, false, None);
        (output.map(Output::into_query_result), record)
    }

    /// Run statement text that arrived through a command object on
    /// `session`, a consumer's session with this engine's storage. What it
    /// writes goes through that session — buffered under the consumer's
    /// transaction when the session is enlisted in one, and voted on (or
    /// committed) with it when the vote (or the commit) was asked to ride
    /// the next write — instead of committing on its own; it may only write
    /// a plain local table.
    pub(crate) fn execute_on_session(
        &self,
        sql: &str,
        session: &mut LocalSession,
    ) -> Result<QueryResult> {
        let (output, _) = self.run_statement(sql, HashMap::new(), false, Some(session));
        output.map(Output::into_query_result)
    }

    /// Run a SELECT (alias of [`Engine::execute`] that asserts a rowset).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)
    }

    pub fn query_with_params(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> Result<QueryResult> {
        self.execute_with_params(sql, params)
    }

    /// Optimize without executing: the plan and search telemetry.
    pub fn explain(&self, sql: &str) -> Result<ExplainPlan> {
        self.explain_with_params(sql, HashMap::new())
    }

    pub fn explain_with_params(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> Result<ExplainPlan> {
        let stmt = match parse_statement(sql)? {
            Statement::Select(stmt) => stmt,
            // Tolerate an explicit EXPLAIN wrapper.
            Statement::Explain { stmt, .. } => *stmt,
            _ => {
                return Err(DhqpError::Unsupported(
                    "EXPLAIN supports SELECT statements".into(),
                ))
            }
        };
        let (compiled, _) = self.compile_select(&stmt, &params, None, &self.knobs())?;
        Ok(ExplainPlan::new(&compiled.plan, compiled.opt_stats.clone()))
    }

    /// Execute a SELECT with per-operator runtime statistics attached and
    /// return the full `EXPLAIN ANALYZE` report. Accepts a bare SELECT or
    /// an `EXPLAIN [ANALYZE]` wrapper. Counted like the same statement sent
    /// to [`Engine::execute`] as `EXPLAIN ANALYZE …` text.
    pub fn execute_analyze(&self, sql: &str) -> Result<AnalyzeReport> {
        self.execute_analyze_with_params(sql, HashMap::new())
    }

    pub fn execute_analyze_with_params(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> Result<AnalyzeReport> {
        self.execute_analyze_recorded(sql, params).0
    }

    /// [`Engine::execute_analyze_with_params`], returning the statement's
    /// record on failure too (a report carries its own).
    pub fn execute_analyze_recorded(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> (Result<AnalyzeReport>, Arc<StatementRecord>) {
        let (output, record) = self.run_statement(sql, params, true, None);
        let report = output.map(|output| match output {
            Output::Report(report) => *report,
            Output::Rows(_) => unreachable!("an analyze run ends in a report or an error"),
        });
        (report, record)
    }

    /// The statement driver every entry point goes through: begin, compile,
    /// run, finish. `analyze` runs a SELECT (bare or under any `EXPLAIN`
    /// wrapper) as `EXPLAIN ANALYZE` and refuses everything else. `ambient`
    /// is the session INSERT/UPDATE/DELETE write through
    /// ([`Engine::execute_on_session`]).
    fn run_statement(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
        analyze: bool,
        mut ambient: Option<&mut LocalSession>,
    ) -> (Result<Output>, Arc<StatementRecord>) {
        let mut run = self.begin_statement(sql, analyze);
        let ran = self.compile_and_run(&mut run, params, ambient.as_deref_mut());
        // The statement ran in the place of the consumer's next write: it
        // answers a vote or commit that rides that write, whether it wrote,
        // found nothing to write, or failed before writing.
        let ran = match ambient {
            Some(session) => session.settle_ride(ran),
            None => ran,
        };
        self.finish_statement(run, ran)
    }

    /// The compile and run stages of one statement. Whatever the epilogue
    /// reports about a statement that fails half-way is left on `run`.
    fn compile_and_run(
        &self,
        run: &mut StatementRun<'_>,
        mut params: HashMap<String, Value>,
        ambient: Option<&mut LocalSession>,
    ) -> Result<QueryResult> {
        let tracer = run.tracer.as_ref();
        let knobs = Arc::clone(&run.knobs);
        // Through the plan cache first: a SELECT (bare or under EXPLAIN
        // ANALYZE) is auto-parameterized and served from — or compiled
        // into — the cache. User parameters in the reserved namespace would
        // collide with the extracted literals, and plain EXPLAIN never
        // executes, so neither takes this path.
        let mut cached = None;
        if knobs.plan_cache.enabled && !params.keys().any(|k| k.starts_with(AUTO_PARAM_PREFIX)) {
            let fp = fingerprint(run.sql).filter(|fp| run.analyze || fp.explain != Some(false));
            if let Some(fp) = fp {
                let mut merged = params.clone();
                merged.extend(fp.params);
                if let Some(found) = self.compile_cached(&fp.template, &merged, tracer, &knobs) {
                    run.analyze |= fp.explain == Some(true);
                    run.kind = Some(select_kind(run.analyze));
                    run.fingerprint = Some(fp.template);
                    params = merged;
                    cached = Some(found);
                }
            }
        }
        // Everything the cache declined compiles from the original text, so
        // an error quotes the user's literals.
        let (compiled, servers, cache_hit) = match cached {
            Some((compiled, servers, hit)) => (compiled, servers, Some(hit)),
            None => {
                let began = Instant::now();
                let parsed = parse_statement(run.sql)?;
                compile_stage(tracer, "parse", began);
                let select = match parsed {
                    Statement::Select(select) => select,
                    Statement::Explain { analyze, stmt } if analyze || run.analyze => {
                        run.analyze = true;
                        *stmt
                    }
                    Statement::Explain { stmt, .. } => {
                        run.kind = Some(StatementKind::Explain);
                        let (compiled, _) = self.compile_select(&stmt, &params, tracer, &knobs)?;
                        let plan = ExplainPlan::new(&compiled.plan, compiled.opt_stats.clone());
                        return Ok(text_result(&plan.render()));
                    }
                    _ if run.analyze => {
                        return Err(DhqpError::Unsupported(
                            "EXPLAIN ANALYZE supports SELECT statements".into(),
                        ))
                    }
                    Statement::Insert(stmt) => {
                        run.kind = Some(StatementKind::Insert);
                        return dml::run_insert(self, &knobs, &stmt, &params, ambient);
                    }
                    Statement::Update(stmt) => {
                        run.kind = Some(StatementKind::Update);
                        return dml::run_update(self, &knobs, &stmt, &params, ambient);
                    }
                    Statement::Delete(stmt) => {
                        run.kind = Some(StatementKind::Delete);
                        return dml::run_delete(self, &knobs, &stmt, &params, ambient);
                    }
                };
                run.kind = Some(select_kind(run.analyze));
                let (compiled, servers) = self.compile_select(&select, &params, tracer, &knobs)?;
                (compiled, servers, None)
            }
        };
        run.select = Some((Arc::clone(&compiled), cache_hit));
        run.servers = servers;
        // Per-operator spans need runtime stats, so tracing instruments the
        // plan even outside EXPLAIN ANALYZE — as do the query store and the
        // cardinality feedback loop (they consume per-operator actuals) and
        // an armed slow-query log (it wants annotation summaries).
        let instrument = run.analyze
            || tracer.is_some()
            || knobs.query_store.enabled
            || knobs.card_feedback
            || knobs.slow_query.is_some();
        run.collector = instrument.then(|| Arc::new(RuntimeStatsCollector::new()));
        // The `execute` span, which the epilogue hangs operator spans under.
        let began = Instant::now();
        let stats = run.collector.as_ref();
        let result = self.execute_plan(&compiled, &run.servers, params, stats, &run.pruned, &knobs);
        if let Some(tr) = tracer {
            tr.stage("execute", began);
        }
        result
    }

    /// Compile through the plan cache: a current entry is a hit, anything
    /// else compiles the template once and caches it. Either way the plan
    /// comes with the linked servers it runs on. `None` declines —
    /// the statement's compile is not pure, or the template failed to
    /// parse, bind or optimize — and the caller compiles the original text
    /// instead, which reproduces any error exactly.
    fn compile_cached(
        &self,
        template: &str,
        params: &HashMap<String, Value>,
        tracer: Option<&TraceBuilder>,
        knobs: &Arc<Knobs>,
    ) -> Option<(Arc<CachedSelect>, Vec<Arc<LinkedServer>>, bool)> {
        if let Some((entry, servers)) = self.plan_cache_lookup(template) {
            if let Some(tr) = tracer {
                tr.stage_with(
                    "plan-cache",
                    Instant::now(),
                    vec![("hit".to_string(), "true".to_string())],
                );
            }
            return Some((entry, servers, true));
        }
        let began = Instant::now();
        let stmt = match parse_statement(template) {
            Ok(Statement::Select(stmt)) if plan_cache::is_cacheable(&stmt) => stmt,
            _ => return None,
        };
        compile_stage(tracer, "parse", began);
        let (entry, servers) = self.compile_select(&stmt, params, tracer, knobs).ok()?;
        self.counters().plan_cache_misses.bump();
        if has_hook() {
            emit_event("plan_cache_miss", &[("template", template.to_string())]);
        }
        let evicted = self
            .inner
            .plan_cache
            .lock()
            .insert(template.to_string(), Arc::clone(&entry));
        self.counters().plan_cache_evictions.add(evicted as u64);
        Some((entry, servers, false))
    }

    /// Bind and optimize one SELECT into a plan plus everything needed to
    /// run it (and, for the plan cache, to tell when it went stale), and the
    /// linked servers its bind resolved. Each stage is a `PLAN_COMPILE` wait
    /// and, when `tracer` is given, a span.
    fn compile_select(
        &self,
        stmt: &SelectStmt,
        params: &HashMap<String, Value>,
        tracer: Option<&TraceBuilder>,
        knobs: &Arc<Knobs>,
    ) -> Result<(Arc<CachedSelect>, Vec<Arc<LinkedServer>>)> {
        let began = Instant::now();
        let bound = Binder::for_statement(self, Arc::clone(knobs), params).bind_select(stmt)?;
        compile_stage(tracer, "bind", began);
        let optimizer = Optimizer::new(knobs.optimizer.clone());
        let deps = self.current_deps(&bound.servers);
        let mut registry = bound.registry;
        let began = Instant::now();
        let (plan, opt_stats) = optimizer.optimize(bound.tree, &mut registry, bound.required)?;
        record_wait(WaitClass::PlanCompile, began.elapsed());
        if let Some(tr) = tracer {
            tr.stage_optimize(began, &opt_stats);
        }
        let compiled = CachedSelect {
            plan,
            registry: Arc::new(registry),
            output: bound.output,
            view_members: bound.view_members,
            opt_stats,
            deps,
            stats_as_of: bound.stats_as_of,
            used_feedback: bound.used_feedback,
            execution_count: AtomicU64::new(0),
            total_elapsed_us: AtomicU64::new(0),
            total_rows: AtomicU64::new(0),
        };
        Ok((Arc::new(compiled), bound.servers))
    }

    /// The one epilogue, on every exit: build the statement's record —
    /// the one reading of the stopwatch, the waits and the runtime stats —
    /// then let every surface read it (DESIGN.md §21): Query Store and
    /// cardinality feedback, counters and rings, `query_end`, and the
    /// report when the statement ran as EXPLAIN ANALYZE.
    fn finish_statement(
        &self,
        mut run: StatementRun<'_>,
        ran: Result<QueryResult>,
    ) -> (Result<Output>, Arc<StatementRecord>) {
        let elapsed = run.started.elapsed();
        let waits = run.waits.snapshot();
        let (select, cache_hit) = run.select.take().unzip();
        let (compiled, cache_hit) = (select.as_deref(), cache_hit.flatten());
        let operators = match (compiled, run.collector.take()) {
            (Some(compiled), Some(collector)) => {
                record::operators(&compiled.plan, collector.snapshot())
            }
            _ => Vec::new(),
        };
        // When `elapsed` was read: ages are taken against it, not a new clock.
        let finished = run.started + elapsed;
        let record = Arc::new(StatementRecord {
            sql: run.sql.to_string(),
            kind: run.kind,
            fingerprint: run.fingerprint.take(),
            cache_hit,
            plan_hash: (!operators.is_empty()).then(|| record::plan_hash(&operators)),
            elapsed,
            rows: match &ran {
                Ok(r) => r.rows_affected.unwrap_or(r.rows.len() as u64),
                Err(_) => 0,
            },
            error: ran.as_ref().err().map(|e| e.to_string()),
            waits,
            pruned: run.pruned.members(),
            startup_pruned: run.pruned.startup_members(),
            stats_age: cache_hit
                .and(compiled)
                .and_then(|compiled| compiled.stats_as_of)
                .map(|as_of| finished.saturating_duration_since(as_of)),
            feedback: compiled.is_some_and(|compiled| compiled.used_feedback),
            trace: run
                .tracer
                .take()
                .map(|tracer| tracer.finish(elapsed, &waits, &operators)),
            operators,
        });
        if let (Ok(_), Some(compiled)) = (&ran, compiled) {
            self.observe_execution(&run.knobs, compiled, &run.servers, &record);
        }
        self.publish(&record, run.knobs.slow_query);
        let output = ran.map(|result| match compiled {
            Some(compiled) if run.analyze => Output::Report(Box::new(AnalyzeReport {
                result,
                plan: compiled.plan.clone(),
                explain: ExplainPlan::new(&compiled.plan, compiled.opt_stats.clone()),
                record: Arc::clone(&record),
            })),
            _ => Output::Rows(result),
        });
        (output, record)
    }

    /// A SELECT inside another statement (INSERT ... SELECT, scalar
    /// subqueries): compiled and run, not a statement of its own. Prunes
    /// are tracked for the engine counters but not attributed to a record.
    pub(crate) fn run_select(
        &self,
        stmt: &SelectStmt,
        params: &HashMap<String, Value>,
        knobs: &Arc<Knobs>,
    ) -> Result<QueryResult> {
        let (compiled, servers) = self.compile_select(stmt, params, None, knobs)?;
        let pruned = Arc::new(PruneLog::default());
        self.execute_plan(&compiled, &servers, params.clone(), None, &pruned, knobs)
    }

    /// Execute one compiled plan on the linked servers it bound. Delayed
    /// schema validation (§4.1.5) rides every execution: the context carries
    /// what the plan assumed about its partitioned-view members, and each
    /// member is re-checked on the session that opens it — so even a cached
    /// plan re-checks exactly the members it reads, and no member it does
    /// not open is contacted.
    fn execute_plan(
        &self,
        compiled: &CachedSelect,
        servers: &[Arc<LinkedServer>],
        params: HashMap<String, Value>,
        stats: Option<&Arc<RuntimeStatsCollector>>,
        pruned: &Arc<PruneLog>,
        knobs: &Arc<Knobs>,
    ) -> Result<QueryResult> {
        let (plan, registry) = (&compiled.plan, &compiled.registry);
        let mut ctx = self
            .exec_context(knobs, params, Arc::clone(registry), servers)
            .with_degraded(knobs.degraded)
            .with_pruned(Arc::clone(pruned))
            .with_view_members(&compiled.view_members);
        if let Some(collector) = stats {
            ctx = ctx.with_stats(Arc::clone(collector));
        }
        let mut rowset = dhqp_executor::open(plan, &ctx)?;
        let all_rows = rowset.collect_rows_batched(ctx.batch().batch_size)?;
        // Trim to the visible SELECT-list columns, in order.
        let mut positions = Vec::with_capacity(compiled.output.len());
        let mut columns = Vec::with_capacity(compiled.output.len());
        for (name, id) in &compiled.output {
            positions.push(plan.output.iter().position(|c| c == id).ok_or_else(|| {
                DhqpError::Execute(format!("output column '{name}' missing from plan"))
            })?);
            let m = registry.meta(*id);
            columns.push(dhqp_types::Column {
                name: name.clone(),
                data_type: m.data_type,
                nullable: m.nullable,
            });
        }
        let rows = all_rows
            .into_iter()
            .map(|r| Row::new(positions.iter().map(|&p| r.values[p].clone()).collect()))
            .collect();
        // Drop the operator tree now so instrumented operators flush their
        // runtime stats before the caller snapshots the collector.
        drop(rowset);
        Ok(QueryResult {
            schema: Schema::new(columns),
            rows,
            rows_affected: None,
        })
    }

    /// Evaluate an uncorrelated scalar subquery eagerly at bind time.
    pub(crate) fn evaluate_scalar_subquery(
        &self,
        stmt: &SelectStmt,
        params: &HashMap<String, Value>,
        knobs: &Arc<Knobs>,
    ) -> Result<Value> {
        let result = self.run_select(stmt, params, knobs)?;
        if result.schema.len() != 1 {
            return Err(DhqpError::Bind(
                "scalar subquery must select exactly one column".into(),
            ));
        }
        match result.rows.len() {
            0 => Ok(Value::Null),
            1 => Ok(result.rows[0].get(0).clone()),
            n => Err(DhqpError::Execute(format!(
                "scalar subquery returned {n} rows"
            ))),
        }
    }
}

/// What a statement hands back to its entry point.
enum Output {
    Rows(QueryResult),
    Report(Box<AnalyzeReport>),
}

impl Output {
    fn into_query_result(self) -> QueryResult {
        match self {
            Output::Rows(result) => result,
            Output::Report(report) => report.to_query_result(),
        }
    }
}

/// What the compile and run stages leave for the epilogue, filled in as the
/// statement advances so an error exit reports as much as a success does.
pub(super) struct StatementRun<'a> {
    /// Restores the enclosing statement's activity scope when this one ends.
    pub(super) _activity: ScopeGuard,
    /// The configuration this statement runs under from begin to end:
    /// every stage reads this, never the engine's knob lock.
    pub(super) knobs: Arc<Knobs>,
    /// This statement's own wait sink.
    pub(super) waits: Arc<WaitStats>,
    pub(super) sql: &'a str,
    pub(super) started: Instant,
    pub(super) tracer: Option<TraceBuilder>,
    /// One prune log per statement: members degraded mode or startup
    /// pruning skip land here and surface in EXPLAIN ANALYZE /
    /// `sys.dm_exec_requests`.
    pub(super) pruned: Arc<PruneLog>,
    /// `None` until the text classifies as a statement.
    pub(super) kind: Option<StatementKind>,
    /// The plan-cache template, once the cache served or compiled the
    /// statement.
    pub(super) fingerprint: Option<String>,
    /// The SELECT being executed: its compiled plan and plan-cache outcome
    /// (`Some(hit)` through the cache, `None` compiled uncached).
    pub(super) select: Option<(Arc<CachedSelect>, Option<bool>)>,
    /// The linked servers it bound — and runs on, and feeds back into.
    pub(super) servers: Vec<Arc<LinkedServer>>,
    /// Its runtime stats, when a collector was attached.
    pub(super) collector: Option<Arc<RuntimeStatsCollector>>,
    /// Whether it runs as EXPLAIN ANALYZE: the epilogue builds the report.
    pub(super) analyze: bool,
}

/// How an executed SELECT is counted.
fn select_kind(analyze: bool) -> StatementKind {
    match analyze {
        true => StatementKind::ExplainAnalyze,
        false => StatementKind::Select,
    }
}

/// One finished compile stage: a `PLAN_COMPILE` wait and, when tracing, a
/// span.
fn compile_stage(tracer: Option<&TraceBuilder>, name: &str, began: Instant) {
    record_wait(WaitClass::PlanCompile, began.elapsed());
    if let Some(tr) = tracer {
        tr.stage(name, began);
    }
}
