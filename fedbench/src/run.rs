//! The run protocol: set-up, check pass, warm-up, measured passes, guards.
//!
//! One session thread drives a closed loop: the next statement is sent only
//! after the previous answer has been checked. End-to-end numbers come from
//! timing `Engine::execute*` and nothing else; the per-layer numbers of a
//! `--trace 1` run are gathered in `layers`.

use crate::fixture::{
    build_oracle, oracle_sql, wan_links, Federation, FixtureConfig, Scale, SourceWrap, Unwrapped,
};
use crate::sys::{self, mean, median, percentile, sorted};
use crate::workload::{generate, Class, Effect, Expect, Stmt, Workload};
use dhqp::{Engine, MetricsSnapshot, ParallelConfig, QueryResult};
use dhqp_netsim::TrafficSnapshot;
use dhqp_types::{Result, Value};
use std::collections::HashMap;
use std::time::Instant;

/// Measured passes per run. `stmt_per_s` and `cpu_us_per_stmt` are medians
/// over them; the latency percentiles pool them. Many short passes rather
/// than seven long ones: interference on a shared box comes in bursts of
/// seconds, and a median over passes shrugs off a burst only if the burst
/// disturbs fewer than half of them.
pub const PASSES: usize = 21;
/// Times an untraced run sets up from scratch; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Guard: the slowest class's p50 over the fastest's.
pub const MAX_CLASS_SPREAD: f64 = 4.0;
/// Guard: workload mean latency over its p50.
pub const MAX_MEAN_OVER_P50: f64 = 1.6;
/// Default one-way latency of the sleeping `wan_overlap` links.
pub const WAN_LATENCY_US: u64 = 2_000;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Sensitivity perturbations (harness-only; see README).
    /// Shrink the `adhoc_compile` template pool to this many templates.
    pub pool: Option<usize>,
    pub link_latency_us: Option<u64>,
    pub serial: bool,
    pub trace_dir: std::path::PathBuf,
}

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace: false,
            scale: Scale::full(),
            pool: None,
            link_latency_us: None,
            serial: false,
            trace_dir: "fedbench/target/trace".into(),
        }
    }

    pub fn fixture(&self) -> FixtureConfig {
        let wan = self.workload == Workload::WanOverlap;
        FixtureConfig {
            scale: self.scale,
            link: if wan {
                wan_links(self.link_latency_us.unwrap_or(WAN_LATENCY_US))
            } else {
                // Accounting only: the shipped LAN parameters, no sleeping.
                dhqp_netsim::NetworkConfig::lan()
            },
            parallel: if wan && !self.serial {
                ParallelConfig::parallel()
            } else {
                ParallelConfig::serial()
            },
        }
    }

    pub fn pass_size(&self) -> usize {
        self.workload.pass_size(self.seconds, PASSES, &self.scale)
    }

    /// The statements of one pass, `passes` measured passes long.
    pub fn statements(&self, passes: usize) -> Vec<Stmt> {
        generate(
            self.workload,
            self.seed,
            passes * self.pass_size(),
            &self.scale,
            self.pool,
        )
    }
}

/// The harness's model of `accounts_all`: what every balance must be if
/// each acknowledged DML statement took effect exactly once.
pub struct Model {
    balances: Vec<Option<i64>>,
}

impl Model {
    pub fn new(scale: &Scale) -> Model {
        Model {
            balances: vec![Some(crate::fixture::OPENING_BALANCE); scale.accounts() as usize],
        }
    }

    pub fn apply(&mut self, effect: &Effect) {
        match effect {
            Effect::None => {}
            Effect::Add { ids, delta } => {
                for id in ids {
                    if let Some(b) = &mut self.balances[*id as usize] {
                        *b += delta;
                    }
                }
            }
            Effect::Delete { ids } => {
                for id in ids {
                    self.balances[*id as usize] = None;
                }
            }
            Effect::Insert { ids } => {
                for id in ids {
                    self.balances[*id as usize] = Some(crate::fixture::OPENING_BALANCE);
                }
            }
        }
    }

    fn total(&self) -> i64 {
        self.balances.iter().flatten().sum()
    }

    fn count(&self) -> i64 {
        self.balances.iter().flatten().count() as i64
    }
}

/// A failed statement, wrong answer or violated guard.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, note: String) {
        self.count += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    fn guard(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.add(format!("guard: {}", what()));
        }
    }
}

// ---- executing and checking one statement ----------------------------------

/// One-column additive checksum: order-independent (exchange output order
/// is not deterministic), no allocation, one pass over the first column.
pub fn checksum(result: &QueryResult) -> u64 {
    result.rows.iter().fold(0u64, |acc, row| {
        acc.wrapping_add(match row.values.first() {
            Some(Value::Int(i)) => *i as u64,
            Some(Value::Date(d)) => *d as u64,
            Some(Value::Float(f)) => f.to_bits(),
            Some(Value::Str(s)) => {
                (s.len() as u64) << 8 | u64::from(s.as_bytes().last().copied().unwrap_or(0))
            }
            Some(Value::Bool(b)) => u64::from(*b),
            Some(Value::Null) | None => 1,
        })
    })
}

fn observed(result: &QueryResult) -> Expect {
    Expect {
        rows: result.rows_affected.unwrap_or(result.rows.len() as u64),
        checksum: checksum(result),
    }
}

/// Send one statement; returns the answer and the `Engine::execute*`
/// latency in nanoseconds. Parameters are materialised before the clock
/// starts: they are inputs, not engine work.
#[inline]
pub fn execute(engine: &Engine, stmt: &Stmt) -> (Result<QueryResult>, u64) {
    execute_sql(engine, &stmt.sql, &stmt.params)
}

fn execute_sql(
    engine: &Engine,
    sql: &str,
    params: &[(String, Value)],
) -> (Result<QueryResult>, u64) {
    if params.is_empty() {
        let t = Instant::now();
        let r = engine.execute(sql);
        (r, t.elapsed().as_nanos() as u64)
    } else {
        let params: HashMap<String, Value> = params.iter().cloned().collect();
        let t = Instant::now();
        let r = engine.execute_with_params(sql, params);
        (r, t.elapsed().as_nanos() as u64)
    }
}

fn canonical(result: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = result
        .rows
        .iter()
        .map(|r| format!("{:?}", r.values))
        .collect();
    rows.sort_unstable();
    rows
}

// ---- set-up -----------------------------------------------------------------

pub struct Setup {
    pub fed: Federation,
    pub model: Model,
    /// Seconds each repetition took: fixture and oracle build + load +
    /// ANALYZE + check pass.
    pub seconds: Vec<f64>,
}

/// The check pass: every distinct read runs once on the federation and once
/// on the oracle and the multisets must match; the federation's answer then
/// becomes the statement's `expect`. DML runs its first pass on the
/// federation and the whole `accounts_all` state is compared with the model.
fn check_pass(
    fed: &Federation,
    oracle: &Engine,
    stmts: &mut [Stmt],
    model: &mut Model,
    failures: &mut Failures,
) {
    let mut seen: HashMap<String, Expect> = HashMap::new();
    for stmt in stmts.iter_mut() {
        if stmt.effect != Effect::None {
            match execute(&fed.head, stmt).0 {
                Ok(r) => {
                    stmt.expect = Expect {
                        rows: 2,
                        checksum: 0,
                    };
                    if observed(&r) != stmt.expect {
                        failures.add(format!(
                            "check: {} affected {:?}",
                            stmt.sql, r.rows_affected
                        ));
                    }
                    model.apply(&stmt.effect);
                }
                Err(e) => failures.add(format!("check: {}: {e}", stmt.sql)),
            }
            continue;
        }
        let key = format!("{}{:?}", stmt.sql, stmt.params);
        if let Some(expect) = seen.get(&key) {
            stmt.expect = *expect;
            continue;
        }
        let federated = execute(&fed.head, stmt).0;
        let local = execute_sql(oracle, &oracle_sql(&stmt.sql), &stmt.params).0;
        match (federated, local) {
            (Ok(f), Ok(o)) => {
                if canonical(&f) != canonical(&o) {
                    failures.add(format!(
                        "check: federation ({} rows) and oracle ({} rows) disagree on {}",
                        f.rows.len(),
                        o.rows.len(),
                        stmt.sql
                    ));
                }
                stmt.expect = observed(&f);
            }
            (Err(e), _) | (_, Err(e)) => failures.add(format!("check: {}: {e}", stmt.sql)),
        }
        seen.insert(key, stmt.expect);
    }
    verify_accounts(fed, model, failures, "after the check pass");
}

/// `accounts_all` against the model: every balance from member storage, and
/// `COUNT`/`SUM` through the view.
pub fn verify_accounts(fed: &Federation, model: &Model, failures: &mut Failures, when: &str) {
    let apm = fed.scale.accounts_per_member as usize;
    for (m, member) in fed.members.iter().enumerate() {
        let stored: HashMap<i64, i64> = member
            .storage()
            .with_table(&format!("accounts_{m}"), |t| t.scan_rows())
            .unwrap_or_default()
            .iter()
            .filter_map(|r| match (r.get(0), r.get(1)) {
                (Value::Int(id), Value::Int(b)) => Some((*id, *b)),
                _ => None,
            })
            .collect();
        let expected: HashMap<i64, i64> = model.balances[m * apm..(m + 1) * apm]
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|b| ((m * apm + i) as i64, b)))
            .collect();
        if stored != expected {
            failures.add(format!("accounts_{m} differs from the model {when}"));
        }
    }
    if fed.stored_balance() != model.total() {
        failures.add(format!("stored SUM(balance) differs from the model {when}"));
    }
    match fed
        .head
        .execute("SELECT COUNT(*) AS n, SUM(balance) AS total FROM accounts_all")
    {
        Ok(r) if r.rows.len() == 1 => {
            let got = (r.value(0, 0).clone(), r.value(0, 1).clone());
            let want = (Value::Int(model.count()), Value::Int(model.total()));
            if format!("{got:?}") != format!("{want:?}") {
                failures.add(format!("accounts_all {got:?} != model {want:?} {when}"));
            }
        }
        other => failures.add(format!("accounts_all total unreadable {when}: {other:?}")),
    }
}

/// Set up `reps` times from scratch — fixture, oracle, check pass — and keep
/// the last. The check pass is what fills the plan and metadata caches, so
/// it belongs to the set-up a user would wait for.
pub fn setup(
    opts: &Options,
    wrap: &dyn SourceWrap,
    reps: usize,
    stmts: &mut [Stmt],
    failures: &mut Failures,
) -> Setup {
    let config = opts.fixture();
    let mut seconds = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        let t = Instant::now();
        let fed = Federation::build(&config, wrap);
        let oracle = build_oracle(&config.scale);
        let mut model = Model::new(&config.scale);
        check_pass(&fed, &oracle, stmts, &mut model, failures);
        seconds.push(t.elapsed().as_secs_f64());
        kept = Some((fed, model));
    }
    let (fed, model) = kept.expect("at least one set-up");
    Setup {
        fed,
        model,
        seconds,
    }
}

// ---- passes ------------------------------------------------------------------

/// What one pass observed.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    /// `Engine::execute*` nanoseconds, by statement index.
    pub lat_ns: Vec<u64>,
    /// Σ of per-statement link deltas.
    pub traffic: TrafficSnapshot,
    /// Rows returned (reads) or affected (DML).
    pub rows_out: u64,
    /// Process CPU seconds spent during the pass, all threads.
    pub cpu_s: f64,
}

/// Run `stmts` once, checking every answer.
pub fn run_pass(
    fed: &Federation,
    stmts: &[Stmt],
    model: &mut Model,
    failures: &mut Failures,
) -> Pass {
    let mut pass = Pass {
        lat_ns: Vec::with_capacity(stmts.len()),
        ..Pass::default()
    };
    let cpu_before = sys::cpu_seconds();
    let started = Instant::now();
    for stmt in stmts {
        let before = fed.traffic();
        let (result, ns) = execute(&fed.head, stmt);
        let after = fed.traffic();
        pass.traffic = pass.traffic + after.since(&before);
        pass.lat_ns.push(ns);
        match result {
            Ok(r) => {
                let got = observed(&r);
                pass.rows_out += got.rows;
                if got != stmt.expect {
                    failures.add(format!(
                        "wrong answer: {} gave {got:?}, expected {:?}",
                        stmt.sql, stmt.expect
                    ));
                }
                model.apply(&stmt.effect);
                std::hint::black_box(r);
            }
            Err(e) => failures.add(format!("error: {}: {e}", stmt.sql)),
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.cpu_s = sys::cpu_seconds() - cpu_before;
    pass
}

/// Everything the measured phase produced.
pub struct Measured {
    pub passes: Vec<Pass>,
    pub link_total: TrafficSnapshot,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub faults: u64,
    pub allocs: (u64, u64),
}

impl Measured {
    pub fn statements(&self) -> u64 {
        self.passes.iter().map(|p| p.lat_ns.len() as u64).sum()
    }

    pub fn link_sum(&self) -> TrafficSnapshot {
        self.passes
            .iter()
            .fold(TrafficSnapshot::default(), |a, p| a + p.traffic)
    }

    pub fn pass_rates(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.lat_ns.len() as f64 / p.wall_s)
            .collect()
    }

    /// Per-pass CPU µs per statement (process user + sys, all threads).
    pub fn pass_cpu_us(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.cpu_s * 1e6 / p.lat_ns.len() as f64)
            .collect()
    }

    /// The four timing metrics: medians over passes for throughput and CPU,
    /// percentiles of the pooled latencies.
    pub fn timing(&self) -> Vec<Metric> {
        let lat = self.latencies_us();
        vec![
            Metric::new("stmt_per_s", median(&self.pass_rates()), "1/s"),
            Metric::new("lat_p50_us", percentile(&lat, 50.0), "us"),
            Metric::new("lat_p99_us", percentile(&lat, 99.0), "us"),
            Metric::new("cpu_us_per_stmt", median(&self.pass_cpu_us()), "us"),
        ]
    }

    /// Pooled latencies in µs, ascending.
    pub fn latencies_us(&self) -> Vec<f64> {
        sorted(
            self.passes
                .iter()
                .flat_map(|p| p.lat_ns.iter().map(|&ns| ns as f64 / 1e3))
                .collect(),
        )
    }

    /// Pooled latencies of one class in µs, ascending.
    pub fn class_latencies_us(&self, stmts: &[Stmt], class: Class) -> Vec<f64> {
        sorted(
            self.passes
                .iter()
                .flat_map(|p| {
                    p.lat_ns
                        .iter()
                        .zip(stmts)
                        .filter(move |(_, s)| s.class == class)
                        .map(|(&ns, _)| ns as f64 / 1e3)
                })
                .collect(),
        )
    }
}

pub fn measure(
    fed: &Federation,
    stmts: &[Stmt],
    passes: usize,
    model: &mut Model,
    failures: &mut Failures,
) -> Measured {
    let before = fed.head.metrics();
    let links_before = fed.traffic();
    let faults_before = fed.faults_injected();
    let allocs_before = sys::alloc_counters();
    let passes: Vec<Pass> = (0..passes)
        .map(|_| run_pass(fed, stmts, model, failures))
        .collect();
    let allocs_after = sys::alloc_counters();
    Measured {
        passes,
        link_total: fed.traffic().since(&links_before),
        before,
        after: fed.head.metrics(),
        faults: fed.faults_injected() - faults_before,
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
    }
}

/// Per-class p50s (µs) of the workload's classes, and mean ÷ p50 of the mix.
fn mix_shape(workload: Workload, stmts: &[Stmt], m: &Measured) -> MixShape {
    let class_p50: Vec<(Class, f64)> = workload
        .classes()
        .iter()
        .map(|&c| (c, percentile(&m.class_latencies_us(stmts, c), 50.0)))
        .collect();
    // Median over passes, so one disturbed pass cannot trip the guard.
    let per_pass: Vec<f64> = m
        .passes
        .iter()
        .map(|p| {
            let lat = sorted(p.lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
            mean(&lat) / percentile(&lat, 50.0)
        })
        .collect();
    (class_p50, median(&per_pass))
}

/// `(per-class p50s in µs, mean ÷ p50 of the mix)`.
pub type MixShape = (Vec<(Class, f64)>, f64);

/// The validity guards of a measured phase; each violation is a failure.
/// Returns the mix shape it judged, for the caller to report.
pub fn guards(
    workload: Workload,
    stmts: &[Stmt],
    m: &Measured,
    full_scale: bool,
    failures: &mut Failures,
) -> MixShape {
    let (b, a) = (&m.before, &m.after);
    let n = m.statements();
    let hits = a.plan_cache_hits - b.plan_cache_hits;
    let misses = a.plan_cache_misses - b.plan_cache_misses;
    match workload {
        Workload::PointHit | Workload::ScanShip | Workload::WanOverlap => failures
            .guard(hits > 0 && misses == 0, || {
                format!("plan-cache hit ratio must be 1.0, saw {hits} hits / {misses} misses")
            }),
        Workload::AdhocCompile => failures.guard(hits == 0 && misses > 0, || {
            format!("plan-cache hit ratio must be 0.0, saw {hits} hits / {misses} misses")
        }),
        Workload::Dml2pc => {}
    }
    let meta_misses = a.meta_cache_misses - b.meta_cache_misses;
    failures.guard(meta_misses == 0, || {
        format!("{meta_misses} metadata-cache misses after warm-up")
    });
    for (what, delta) in [
        ("statement errors", a.statement_errors - b.statement_errors),
        ("remote retries", a.remote_retries - b.remote_retries),
        (
            "transient errors",
            a.remote_transient_errors - b.remote_transient_errors,
        ),
        ("injected faults", m.faults),
        (
            "breaker fast-fails",
            a.breaker_fast_fails - b.breaker_fast_fails,
        ),
        ("pruned members", a.members_pruned - b.members_pruned),
        ("DTC aborts", a.dtc_aborts - b.dtc_aborts),
        ("in-doubt transactions", a.dtc_in_doubt),
    ] {
        failures.guard(delta == 0, || format!("{delta} {what}, expected none"));
    }
    let commits = a.dtc_commits - b.dtc_commits;
    let want_commits = if workload == Workload::Dml2pc { n } else { 0 };
    failures.guard(commits == want_commits, || {
        format!("{commits} DTC commits for {n} statements, expected {want_commits}")
    });
    failures.guard(m.link_sum() == m.link_total, || {
        format!(
            "Σ per-statement link deltas {:?} != link counters {:?}",
            m.link_sum(),
            m.link_total
        )
    });
    let (class_p50, mean_over_p50) = mix_shape(workload, stmts, m);
    // The one-cost-class shape is a property of the full-scale data; the
    // smoke scale only checks the plumbing.
    if !full_scale {
        return (class_p50, mean_over_p50);
    }
    let lo = class_p50.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    let hi = class_p50.iter().map(|c| c.1).fold(0.0, f64::max);
    failures.guard(hi <= MAX_CLASS_SPREAD * lo, || {
        format!(
            "per-class p50 spread {:.2}x > {MAX_CLASS_SPREAD}x: {class_p50:?}",
            hi / lo
        )
    });
    failures.guard(mean_over_p50 <= MAX_MEAN_OVER_P50, || {
        format!("mean/p50 = {mean_over_p50:.3} > {MAX_MEAN_OVER_P50}")
    });
    (class_p50, mean_over_p50)
}

// ---- the end-to-end run --------------------------------------------------------

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result line.
    pub header: Vec<String>,
}

fn spaced(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| format!("{x:.1}")).collect();
    v.join(" ")
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(opts: &Options) -> Outcome {
    let mut failures = Failures::default();
    let mut stmts = opts.statements(1);
    let Setup {
        fed,
        mut model,
        seconds: setup_s,
    } = setup(opts, &Unwrapped, SETUP_REPS, &mut stmts, &mut failures);

    let warm = run_pass(&fed, &stmts, &mut model, &mut failures);
    let m = measure(&fed, &stmts, PASSES, &mut model, &mut failures);
    let (class_p50, mean_over_p50) = guards(
        opts.workload,
        &stmts,
        &m,
        opts.scale.is_full(),
        &mut failures,
    );
    if opts.workload == Workload::Dml2pc {
        verify_accounts(&fed, &model, &mut failures, "after the measured passes");
    }

    let n = m.statements() as f64;
    let metrics = vec![
        Metric::new("link_bytes_per_stmt", m.link_total.bytes as f64 / n, "B"),
        Metric::new(
            "link_round_trips_per_stmt",
            m.link_total.requests as f64 / n,
            "count",
        ),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
    ];
    let header = vec![
        format!(
            "passes: 1 warm-up ({:.2}s) + {PASSES} measured x {} statements, {} latency samples",
            warm.wall_s,
            stmts.len(),
            m.statements()
        ),
        format!("per-pass stmt/s: {}", spaced(&m.pass_rates())),
        format!("per-pass cpu us/stmt: {}", spaced(&m.pass_cpu_us())),
        // Per-layer metrics (`--trace 1` reports them): shown here because
        // every run measures them, not because this run is judged by them.
        format!(
            "timing: {}",
            m.timing()
                .iter()
                .map(|t| format!("{}={:.3} {}", t.name, t.value, t.unit))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "setup (build + load + ANALYZE + check pass) s: {}",
            setup_s
                .iter()
                .map(|t| format!("{t:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "class p50 us: {}; mean/p50 {mean_over_p50:.3}",
            class_p50
                .iter()
                .map(|(c, p)| format!("{}={p:.1}", c.name()))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    Outcome {
        attempted: m.statements(),
        failures,
        metrics,
        header,
    }
}
