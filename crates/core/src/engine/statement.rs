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
use dhqp_oledb::{
    emit_event, has_hook, install_scope, record_wait, ActivityScope, CommandResult, MemRowset,
    Rowset, RowsetExt, WaitClass, WaitStats,
};
use dhqp_optimizer::explain::ExplainPlan;
use dhqp_optimizer::Optimizer;
use dhqp_sqlfront::{fingerprint, parse_statement, SelectStmt, Statement, AUTO_PARAM_PREFIX};
use dhqp_storage::LocalSession;
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema, Value};
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
    /// `session`, a consumer's session with this engine's storage, to
    /// completion. What it writes goes through that session — buffered
    /// under the consumer's transaction when the session is enlisted in one,
    /// and voted on (or committed) with it when the vote (or the commit) was
    /// asked to ride the next write — instead of committing on its own; it
    /// may only write a plain local table.
    pub(crate) fn execute_on_session(
        &self,
        sql: &str,
        session: &mut LocalSession,
    ) -> Result<CommandResult> {
        let (output, _) = self.run_statement(sql, HashMap::new(), false, Some(session));
        output.map(|output| command_result(output.into_query_result()))
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
    /// run, finish. The run stage opens a SELECT's operator tree and this
    /// drains it; a statement sent through a command object is pulled by
    /// its consumer instead ([`Engine::open_statement`]). `analyze` runs a
    /// SELECT (bare or under any `EXPLAIN` wrapper) as `EXPLAIN ANALYZE` and
    /// refuses everything else. `ambient` is the session INSERT/UPDATE/DELETE
    /// write through ([`Engine::execute_on_session`]).
    fn run_statement(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
        analyze: bool,
        mut ambient: Option<&mut LocalSession>,
    ) -> (Result<Output>, Arc<StatementRecord>) {
        let (mut run, _activity) = self.begin_statement(sql, analyze);
        let ran = self
            .compile_and_open(&mut run, params, ambient.as_deref_mut())
            .and_then(|ran| match ran {
                Ran::Done(result) => Ok(result),
                Ran::Open(plan) => plan.drain(run.knobs.batch.batch_size),
            });
        // The statement ran in the place of the consumer's next write: it
        // answers a vote or commit that rides that write, whether it wrote,
        // found nothing to write, or failed before writing.
        let ran = match ambient {
            Some(session) => session.settle_ride(ran),
            None => ran,
        };
        self.finish_statement(run, ran)
    }

    /// Begin a SELECT sent through a command object and hand it on open,
    /// as a stream its consumer pulls ([`StatementStream`]). A statement
    /// that fails before its tree opens finishes here.
    pub(crate) fn open_statement(&self, sql: &str) -> Result<CommandResult> {
        let (mut run, activity) = self.begin_statement(sql, false);
        let ran = match self.compile_and_open(&mut run, HashMap::new(), None) {
            Ok(Ran::Open(plan)) => {
                return Ok(CommandResult::Rowset(Box::new(StatementStream {
                    engine: self.clone(),
                    schema: plan.schema.clone(),
                    live: Some((run, plan)),
                    scope: activity.suspend(),
                    rows: 0,
                    failed: None,
                })));
            }
            Ok(Ran::Done(result)) => Ok(result),
            Err(e) => Err(e),
        };
        let (output, _) = self.finish_statement(run, ran);
        output.map(|output| command_result(output.into_query_result()))
    }

    /// The compile and run stages of one statement: a SELECT ends with its
    /// operator tree open, anything else with its answer. Whatever the
    /// epilogue reports about a statement that fails half-way is left on
    /// `run`.
    fn compile_and_open(
        &self,
        run: &mut StatementRun,
        mut params: HashMap<String, Value>,
        ambient: Option<&mut LocalSession>,
    ) -> Result<Ran> {
        let tracer = run.tracer.as_ref();
        let knobs = Arc::clone(&run.knobs);
        // Through the plan cache first: a SELECT (bare or under EXPLAIN
        // ANALYZE) is auto-parameterized and served from — or compiled
        // into — the cache. User parameters in the reserved namespace would
        // collide with the extracted literals, and plain EXPLAIN never
        // executes, so neither takes this path.
        let mut cached = None;
        if knobs.plan_cache.enabled && !params.keys().any(|k| k.starts_with(AUTO_PARAM_PREFIX)) {
            let fp = fingerprint(&run.sql).filter(|fp| run.analyze || fp.explain != Some(false));
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
                let parsed = parse_statement(&run.sql)?;
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
                        return Ok(Ran::Done(text_result(&plan.render())));
                    }
                    _ if run.analyze => {
                        return Err(DhqpError::Unsupported(
                            "EXPLAIN ANALYZE supports SELECT statements".into(),
                        ))
                    }
                    Statement::Insert(stmt) => {
                        run.kind = Some(StatementKind::Insert);
                        return dml::run_insert(self, &knobs, &stmt, &params, ambient)
                            .map(Ran::Done);
                    }
                    Statement::Update(stmt) => {
                        run.kind = Some(StatementKind::Update);
                        return dml::run_update(self, &knobs, &stmt, &params, ambient)
                            .map(Ran::Done);
                    }
                    Statement::Delete(stmt) => {
                        run.kind = Some(StatementKind::Delete);
                        return dml::run_delete(self, &knobs, &stmt, &params, ambient)
                            .map(Ran::Done);
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
        // The `execute` span, which the epilogue hangs operator spans under,
        // runs from here to the end of the stream.
        run.executing = Some(Instant::now());
        let stats = run.collector.as_ref();
        let plan = self.open_plan(&compiled, &run.servers, params, stats, &run.pruned, &knobs)?;
        Ok(Ran::Open(plan))
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

    /// The epilogue of a statement that ends with its answer in hand: its
    /// record ([`Engine::record_statement`]), and the report when it ran as
    /// EXPLAIN ANALYZE.
    fn finish_statement(
        &self,
        mut run: StatementRun,
        ran: Result<QueryResult>,
    ) -> (Result<Output>, Arc<StatementRecord>) {
        let rows = match &ran {
            Ok(result) => Ok(result.rows_affected.unwrap_or(result.rows.len() as u64)),
            Err(e) => Err(e),
        };
        let record = self.record_statement(&mut run, rows, true);
        let output = ran.map(|result| match &run.select {
            Some((compiled, _)) if run.analyze => Output::Report(Box::new(AnalyzeReport {
                result,
                plan: compiled.plan.clone(),
                explain: ExplainPlan::new(&compiled.plan, compiled.opt_stats.clone()),
                record: Arc::clone(&record),
            })),
            _ => Output::Rows(result),
        });
        (output, record)
    }

    /// The one epilogue, run once on every exit with the statement's
    /// activity scope installed: build the statement's record — the one
    /// reading of the stopwatch, the waits and the runtime stats — then let
    /// every surface read it (DESIGN.md §21): Query Store and cardinality
    /// feedback (only when `observe`: a stream its consumer dropped before
    /// the end is counted, not learned from), counters and rings,
    /// `query_end`. `outcome` is the rows the statement returned or
    /// affected, or its error.
    fn record_statement(
        &self,
        run: &mut StatementRun,
        outcome: std::result::Result<u64, &DhqpError>,
        observe: bool,
    ) -> Arc<StatementRecord> {
        // The `execute` span ends before `elapsed` is read, which it fits in.
        if let (Some(tr), Some(began)) = (&run.tracer, run.executing) {
            tr.stage("execute", began);
        }
        let elapsed = run.started.elapsed();
        let waits = run.waits.snapshot();
        let (compiled, cache_hit) = match &run.select {
            Some((compiled, cache_hit)) => (Some(&**compiled), *cache_hit),
            None => (None, None),
        };
        let operators = match (compiled, run.collector.take()) {
            (Some(compiled), Some(collector)) => {
                record::operators(&compiled.plan, collector.snapshot())
            }
            _ => Vec::new(),
        };
        // When `elapsed` was read: ages are taken against it, not a new clock.
        let finished = run.started + elapsed;
        let record = Arc::new(StatementRecord {
            sql: std::mem::take(&mut run.sql),
            kind: run.kind,
            fingerprint: run.fingerprint.take(),
            cache_hit,
            plan_hash: (!operators.is_empty()).then(|| record::plan_hash(&operators)),
            elapsed,
            rows: *outcome.as_ref().unwrap_or(&0),
            error: outcome.as_ref().err().map(|e| e.to_string()),
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
        if let (Ok(_), Some(compiled), true) = (outcome, compiled, observe) {
            self.observe_execution(&run.knobs, compiled, &run.servers, &record);
        }
        self.publish(&record, run.knobs.slow_query);
        record
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

    /// Execute one compiled plan on the linked servers it bound: open it
    /// and drain it.
    fn execute_plan(
        &self,
        compiled: &CachedSelect,
        servers: &[Arc<LinkedServer>],
        params: HashMap<String, Value>,
        stats: Option<&Arc<RuntimeStatsCollector>>,
        pruned: &Arc<PruneLog>,
        knobs: &Arc<Knobs>,
    ) -> Result<QueryResult> {
        self.open_plan(compiled, servers, params, stats, pruned, knobs)?
            .drain(knobs.batch.batch_size)
    }

    /// Open one compiled plan on the linked servers it bound. Delayed
    /// schema validation (§4.1.5) rides every execution: the context carries
    /// what the plan assumed about its partitioned-view members, and each
    /// member is re-checked on the session that opens it — so even a cached
    /// plan re-checks exactly the members it reads, and no member it does
    /// not open is contacted.
    fn open_plan(
        &self,
        compiled: &CachedSelect,
        servers: &[Arc<LinkedServer>],
        params: HashMap<String, Value>,
        stats: Option<&Arc<RuntimeStatsCollector>>,
        pruned: &Arc<PruneLog>,
        knobs: &Arc<Knobs>,
    ) -> Result<PlanStream> {
        let (plan, registry) = (&compiled.plan, &compiled.registry);
        let mut ctx = self
            .exec_context(knobs, params, Arc::clone(registry), servers)
            .with_degraded(knobs.degraded)
            .with_pruned(Arc::clone(pruned))
            .with_view_members(&compiled.view_members);
        if let Some(collector) = stats {
            ctx = ctx.with_stats(Arc::clone(collector));
        }
        // Where each visible SELECT-list column sits in the plan's output.
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
        Ok(PlanStream {
            rowset: dhqp_executor::open(plan, &ctx)?,
            trim: Trim::new(positions),
            schema: Schema::new(columns),
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
pub(super) struct StatementRun {
    /// The configuration this statement runs under from begin to end:
    /// every stage reads this, never the engine's knob lock.
    pub(super) knobs: Arc<Knobs>,
    /// This statement's own wait sink.
    pub(super) waits: Arc<WaitStats>,
    pub(super) sql: String,
    pub(super) started: Instant,
    /// When the run stage began opening the plan: the `execute` span.
    pub(super) executing: Option<Instant>,
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

/// What the run stage leaves: a finished answer, or a SELECT's operator
/// tree open for its consumer to pull.
enum Ran {
    Done(QueryResult),
    Open(PlanStream),
}

/// A statement's answer as a command object's result: an affected count,
/// or its rows as a rowset.
fn command_result(result: QueryResult) -> CommandResult {
    match result.rows_affected {
        Some(n) => CommandResult::RowCount(n),
        None => CommandResult::Rowset(Box::new(MemRowset::new(result.schema, result.rows))),
    }
}

/// An open SELECT: its operator tree, each row trimmed to the SELECT list
/// as it passes.
struct PlanStream {
    rowset: Box<dyn Rowset>,
    trim: Trim,
    schema: Schema,
}

impl PlanStream {
    /// Every row, for a caller that wants the answer whole. The operator
    /// tree drops here, so instrumented operators have flushed their
    /// runtime stats when this returns.
    fn drain(mut self, pull: usize) -> Result<QueryResult> {
        let rows = self.collect_rows_batched(pull)?;
        Ok(QueryResult {
            schema: self.schema,
            rows,
            rows_affected: None,
        })
    }

    /// Up to `max` rows, pulling until the demand is met or the tree ends,
    /// so a link that ships one batch per round trip sees batches as full
    /// as a materialized answer's. Beside the rows: whether the tree ended,
    /// or the error it raised after them.
    fn fill(&mut self, max: usize) -> (Option<RowBatch>, Result<bool>) {
        let max = max.max(1);
        let mut filled: Option<RowBatch> = None;
        loop {
            let have = filled.as_ref().map_or(0, RowBatch::len);
            if have >= max {
                return (filled, Ok(false));
            }
            match self.next_batch(max - have) {
                Ok(Some(batch)) => match &mut filled {
                    None => filled = Some(batch),
                    Some(rows) => batch.into_iter().for_each(|row| rows.push(row)),
                },
                Ok(None) => return (filled, Ok(true)),
                Err(e) => return (filled, Err(e)),
            }
        }
    }
}

impl Rowset for PlanStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let Some(batch) = self.rowset.next_batch(max)? else {
            return Ok(None);
        };
        let mut rows = batch.into_rows();
        for row in &mut rows {
            self.trim.apply(row);
        }
        Ok(Some(RowBatch::from(rows)))
    }

    fn size_hint(&self) -> Option<usize> {
        self.rowset.size_hint()
    }
}

/// How a plan's output row becomes a SELECT-list row. Values move; only a
/// column the SELECT list names twice is cloned.
enum Trim {
    /// The SELECT list is the plan's first `n` columns, in order.
    Prefix(usize),
    /// Per SELECT-list column: the plan position its value moves from, or
    /// the earlier SELECT-list column it repeats.
    Pick(Vec<Pick>),
}

enum Pick {
    Move(usize),
    Repeat(usize),
}

impl Trim {
    fn new(positions: Vec<usize>) -> Trim {
        if positions.iter().enumerate().all(|(i, &p)| i == p) {
            return Trim::Prefix(positions.len());
        }
        let picks = positions
            .iter()
            .enumerate()
            .map(|(i, p)| match positions[..i].iter().position(|q| q == p) {
                Some(first) => Pick::Repeat(first),
                None => Pick::Move(*p),
            })
            .collect();
        Trim::Pick(picks)
    }

    fn apply(&self, row: &mut Row) {
        row.bookmark = None;
        let picks = match self {
            Trim::Prefix(n) => return row.values.truncate(*n),
            Trim::Pick(picks) => picks,
        };
        let mut values: Vec<Value> = Vec::with_capacity(picks.len());
        for pick in picks {
            let value = match *pick {
                Pick::Move(p) => std::mem::replace(&mut row.values[p], Value::Null),
                Pick::Repeat(first) => values[first].clone(),
            };
            values.push(value);
        }
        row.values = values;
    }
}

/// A SELECT sent through a command object, answered as a stream (the
/// paper's rowset model, §2.2): its consumer pulls the operator tree a
/// batch at a time, on the consumer's thread. The statement finishes —
/// record, counters, `query_end` — exactly once: at the end of the stream,
/// at its first error, or when the consumer drops it. Its activity scope is
/// installed only while a pull runs, so what the statement waits on lands
/// in its own record, not in its consumer's (DESIGN.md §21).
struct StatementStream {
    engine: Engine,
    schema: Schema,
    /// The statement and its open tree, until it finishes.
    live: Option<(StatementRun, PlanStream)>,
    /// The statement's activity scope, parked between pulls.
    scope: ActivityScope,
    /// Rows handed to the consumer.
    rows: u64,
    /// An error raised after rows the consumer is handed first.
    failed: Option<DhqpError>,
}

impl StatementStream {
    /// Drop the tree and run the epilogue, with the scope installed.
    /// `observe` is false when the consumer stopped pulling first.
    fn finish(&mut self, outcome: std::result::Result<(), &DhqpError>, observe: bool) {
        if let Some((mut run, plan)) = self.live.take() {
            drop(plan);
            let rows = outcome.map(|()| self.rows);
            self.engine.record_statement(&mut run, rows, observe);
        }
    }
}

impl Rowset for StatementStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let Some((_, plan)) = &mut self.live else {
            return Ok(None);
        };
        let activity = install_scope(std::mem::take(&mut self.scope));
        let (batch, status) = plan.fill(max);
        self.rows += batch.as_ref().map_or(0, |b| b.len() as u64);
        let out = match status {
            Ok(false) => Ok(batch),
            Ok(true) => {
                self.finish(Ok(()), true);
                Ok(batch)
            }
            Err(e) => {
                self.finish(Err(&e), true);
                match batch {
                    Some(batch) => {
                        self.failed = Some(e);
                        Ok(Some(batch))
                    }
                    None => Err(e),
                }
            }
        };
        self.scope = activity.suspend();
        out
    }
}

impl Drop for StatementStream {
    fn drop(&mut self) {
        if self.live.is_some() && !std::thread::panicking() {
            let _activity = install_scope(std::mem::take(&mut self.scope));
            self.finish(Ok(()), false);
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: &[i64]) -> Row {
        Row::with_bookmark(values.iter().map(|&v| Value::Int(v)).collect(), 7)
    }

    #[test]
    fn a_trim_moves_each_listed_value_and_clones_only_a_repeat() {
        // (plan positions of the SELECT list, the trimmed row of (10, 11, 12))
        let cases: [(&[usize], &[i64]); 4] = [
            (&[0, 1, 2], &[10, 11, 12]),
            (&[0, 1], &[10, 11]),
            (&[2, 0], &[12, 10]),
            (&[1, 2, 1], &[11, 12, 11]),
        ];
        for (positions, want) in cases {
            let trim = Trim::new(positions.to_vec());
            assert_eq!(
                matches!(trim, Trim::Prefix(_)),
                positions.iter().enumerate().all(|(i, &p)| i == p),
                "{positions:?}"
            );
            let mut got = row(&[10, 11, 12]);
            trim.apply(&mut got);
            assert_eq!(got, Row::new(row(want).values), "{positions:?}");
        }
    }
}
