//! Hierarchical query tracing: parse → bind → optimize → execute as a tree
//! of spans with wall times.
//!
//! Tracing is off by default and costs nothing when off — the engine only
//! constructs a [`TraceBuilder`] when armed (via `DHQP_TRACE` or
//! [`crate::Engine::set_trace_config`]), so the untraced path allocates no
//! spans at all. When armed, each compilation stage records one span, the
//! optimize span carries per-rule application counts from the memo search,
//! and the execute span gets one child per plan operator (reusing the
//! executor's pre-order node ids) annotated with rows, opens, cumulative
//! and self time. The finished [`QueryTrace`] rides the statement's
//! [`crate::StatementRecord`] and is exportable as JSON.

use crate::record::OperatorRecord;
use dhqp_oledb::{WaitClass, WaitSnapshot};
use dhqp_optimizer::search::OptimizerStats;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Tracing switch (`DHQP_TRACE`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    pub enabled: bool,
}

impl TraceConfig {
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }

    pub fn disabled() -> Self {
        TraceConfig { enabled: false }
    }
}

/// One timed region of a statement's lifetime.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    pub name: String,
    /// Offset from the root span's start.
    pub start: Duration,
    pub elapsed: Duration,
    /// Free-form `(key, value)` annotations (rule counts, row counts, ...).
    pub attrs: Vec<(String, String)>,
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// This span plus all descendants.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceSpan::span_count)
            .sum::<usize>()
    }

    /// Depth-first search by span name.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Attribute value by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let _ = write!(out, "{pad}{} {:.2?}", self.name, self.elapsed);
        for (k, v) in &self.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    fn json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_us\":{},\"elapsed_us\":{},\"attrs\":{{",
            json_escape(&self.name),
            self.start.as_micros(),
            self.elapsed.as_micros()
        );
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("},\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.json_into(out);
        }
        out.push_str("]}");
    }
}

/// The finished trace of one statement.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Statement text as submitted.
    pub sql: String,
    /// Root span (`query`) covering the whole statement; compilation and
    /// execution stages are its children.
    pub root: TraceSpan,
}

impl QueryTrace {
    pub fn span_count(&self) -> usize {
        self.root.span_count()
    }

    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        self.root.find(name)
    }

    /// Indented text rendering, one line per span.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(0, &mut out);
        out
    }

    /// The whole tree as one JSON document (hand-rolled: the offline serde
    /// shim is marker-only).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"sql\":\"{}\",\"root\":", json_escape(&self.sql));
        self.root.json_into(&mut out);
        out.push('}');
        out
    }

    /// The trace as a Chrome/Perfetto `trace_event` JSON document: one
    /// complete (`"ph":"X"`) event per span, timestamps and durations in
    /// microseconds. Spans named `worker-N` open their own thread track
    /// (`tid` N+1, inherited by their children — the wait slices), so the
    /// exchange's worker timelines render as parallel lanes under the
    /// query's main track (`tid` 0). Load the output in `ui.perfetto.dev`
    /// or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        chrome_events(&self.root, 0, &mut first, &mut out);
        out.push_str("]}");
        out
    }
}

/// Emit `span` and its subtree as trace_event objects onto `out`.
fn chrome_events(span: &TraceSpan, tid: u64, first: &mut bool, out: &mut String) {
    let tid = worker_tid(&span.name).unwrap_or(tid);
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{",
        json_escape(&span.name),
        span.start.as_micros(),
        span.elapsed.as_micros()
    );
    for (i, (k, v)) in span.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("}}");
    for c in &span.children {
        chrome_events(c, tid, first, out);
    }
}

/// `worker-N` → track id N+1; anything else stays on its parent's track.
fn worker_tid(name: &str) -> Option<u64> {
    let n: u64 = name.strip_prefix("worker-")?.parse().ok()?;
    Some(n + 1)
}

/// `s` as the body of a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Accumulates spans for one statement while it runs. Constructed only
/// when tracing is armed; the engine threads `Option<&TraceBuilder>`
/// through its pipeline, so the disabled path never allocates.
pub(crate) struct TraceBuilder {
    start: Instant,
    sql: String,
    phases: Mutex<Vec<TraceSpan>>,
}

impl TraceBuilder {
    /// `started` is the statement's own stopwatch: span offsets count from
    /// the instant `elapsed` counts from.
    pub fn new(sql: &str, started: Instant) -> Self {
        TraceBuilder {
            start: started,
            sql: sql.to_string(),
            phases: Mutex::new(Vec::new()),
        }
    }

    /// Record one completed top-level stage that began at `began`.
    pub fn stage(&self, name: &str, began: Instant) {
        self.stage_with(name, began, Vec::new());
    }

    /// Record one completed stage with annotations.
    pub fn stage_with(&self, name: &str, began: Instant, attrs: Vec<(String, String)>) {
        let span = TraceSpan {
            name: name.to_string(),
            start: began.duration_since(self.start),
            elapsed: began.elapsed(),
            attrs,
            children: Vec::new(),
        };
        self.phases.lock().push(span);
    }

    /// Record the optimize stage, annotated with the memo search's per-rule
    /// application counts and sizes.
    pub fn stage_optimize(&self, began: Instant, stats: &OptimizerStats) {
        let mut attrs = vec![
            ("groups".to_string(), stats.groups.to_string()),
            ("exprs".to_string(), stats.exprs.to_string()),
            ("rules_fired".to_string(), stats.rules_fired.to_string()),
        ];
        for (rule, n) in &stats.rule_counts {
            attrs.push((format!("rule.{rule}"), n.to_string()));
        }
        self.stage_with("optimize", began, attrs);
    }

    /// Assemble the final trace. The root span is the statement's
    /// `elapsed` and carries its waits as `wait.CLASS` attributes; the
    /// `execute` stage gets one child span per operator.
    pub fn finish(
        self,
        elapsed: Duration,
        waits: &WaitSnapshot,
        operators: &[OperatorRecord],
    ) -> QueryTrace {
        let mut phases = self.phases.into_inner();
        let execute = phases.iter_mut().rfind(|span| span.name == "execute");
        if let (Some(execute), false) = (execute, operators.is_empty()) {
            let root = operator_span(operators, &mut 0, execute.start);
            execute.children.push(root);
        }
        let attrs = waits
            .nonzero()
            .into_iter()
            .map(|(class, totals)| {
                (
                    format!("wait.{}", class.name()),
                    format!("{}x/{}us", totals.count, totals.total_us),
                )
            })
            .collect();
        let root = TraceSpan {
            name: "query".to_string(),
            start: Duration::ZERO,
            elapsed,
            attrs,
            children: phases,
        };
        QueryTrace {
            sql: self.sql,
            root,
        }
    }
}

/// The span of the operator at `*next` (advanced past its whole subtree):
/// cumulative cursor time as the span length, self time as an attribute,
/// pre-order node id as in EXPLAIN ANALYZE.
fn operator_span(operators: &[OperatorRecord], next: &mut usize, base: Duration) -> TraceSpan {
    let id = *next;
    let op = &operators[id];
    *next += 1;
    let mut children = Vec::new();
    while operators
        .get(*next)
        .is_some_and(|below| below.depth > op.depth)
    {
        children.push(operator_span(operators, next, base));
    }
    let mut attrs = vec![("node".to_string(), id.to_string())];
    match &op.runtime {
        Some(rt) => {
            attrs.push(("rows".to_string(), rt.rows.to_string()));
            attrs.push(("opens".to_string(), rt.opens.to_string()));
            attrs.push(("self_us".to_string(), op.self_time.as_micros().to_string()));
            if let Some(exchange) = &rt.exchange {
                attrs.push(("workers".to_string(), exchange.workers.to_string()));
                for (i, ws) in exchange.worker_spans.iter().enumerate() {
                    children.push(worker_span(i, ws, base));
                }
            }
        }
        None => attrs.push(("never_executed".to_string(), "true".to_string())),
    }
    TraceSpan {
        name: op.label.clone(),
        start: base,
        elapsed: op.time(),
        attrs,
        children,
    }
}

/// One exchange worker's lifetime as a `worker-N` span (its own Perfetto
/// track), with a nested wait slice for time blocked on the full output
/// channel. Worker offsets are relative to the exchange's open, which the
/// trace approximates with the execute stage's start (`base`).
fn worker_span(i: usize, ws: &dhqp_executor::WorkerSpan, base: Duration) -> TraceSpan {
    let start = base + Duration::from_micros(ws.start_us);
    let mut children = Vec::new();
    if ws.send_wait_us > 0 {
        children.push(TraceSpan {
            name: format!("wait:{}", WaitClass::ExchangeQueueFull.name()),
            start,
            elapsed: Duration::from_micros(ws.send_wait_us),
            attrs: Vec::new(),
            children: Vec::new(),
        });
    }
    TraceSpan {
        name: format!("worker-{i}"),
        start,
        elapsed: Duration::from_micros(ws.elapsed_us),
        attrs: vec![
            ("rows".to_string(), ws.rows.to_string()),
            ("send_wait_us".to_string(), ws.send_wait_us.to_string()),
        ],
        children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder(sql: &str) -> TraceBuilder {
        TraceBuilder::new(sql, Instant::now())
    }

    fn finish(b: TraceBuilder) -> QueryTrace {
        b.finish(Duration::ZERO, &WaitSnapshot::default(), &[])
    }

    #[test]
    fn builder_assembles_a_tree() {
        let b = builder("SELECT 1");
        let t0 = Instant::now();
        b.stage("parse", t0);
        b.stage("bind", Instant::now());
        let trace = finish(b);
        assert_eq!(trace.span_count(), 3); // query + parse + bind
        assert!(trace.find("parse").is_some());
        assert!(trace.find("optimize").is_none());
        assert!(trace.render().contains("query"));
    }

    #[test]
    fn json_is_escaped_and_shaped() {
        let b = builder("SELECT '\"quoted\"\nline'");
        b.stage("parse", Instant::now());
        let json = finish(b).to_json();
        assert!(json.starts_with("{\"sql\":\"SELECT '\\\"quoted\\\"\\nline'\""));
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains("\"children\":["));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn waits_land_as_root_attrs() {
        use dhqp_oledb::WaitStats;
        let stats = WaitStats::default();
        stats.record(WaitClass::NetworkIo, Duration::from_micros(1500));
        stats.record(WaitClass::NetworkIo, Duration::from_micros(500));
        let elapsed = Duration::from_millis(3);
        let trace = builder("q").finish(elapsed, &stats.snapshot(), &[]);
        assert_eq!(trace.root.elapsed, elapsed);
        assert_eq!(trace.root.attr("wait.NETWORK_IO"), Some("2x/2000us"));
        assert_eq!(trace.root.attr("wait.SPOOL"), None);
    }

    #[test]
    fn chrome_json_assigns_worker_tracks() {
        let worker = TraceSpan {
            name: "worker-1".to_string(),
            start: Duration::from_micros(10),
            elapsed: Duration::from_micros(90),
            attrs: vec![("rows".to_string(), "7".to_string())],
            children: vec![TraceSpan {
                name: "wait:EXCHANGE_QUEUE_FULL".to_string(),
                start: Duration::from_micros(10),
                elapsed: Duration::from_micros(5),
                attrs: Vec::new(),
                children: Vec::new(),
            }],
        };
        let trace = QueryTrace {
            sql: "q".to_string(),
            root: TraceSpan {
                name: "query".to_string(),
                start: Duration::ZERO,
                elapsed: Duration::from_micros(100),
                attrs: Vec::new(),
                children: vec![worker],
            },
        };
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Root rides tid 0; the worker and its wait slice ride tid 2.
        assert!(json
            .contains("\"name\":\"query\",\"ph\":\"X\",\"ts\":0,\"dur\":100,\"pid\":1,\"tid\":0"));
        assert!(json.contains(
            "\"name\":\"worker-1\",\"ph\":\"X\",\"ts\":10,\"dur\":90,\"pid\":1,\"tid\":2"
        ));
        assert!(json.contains("\"name\":\"wait:EXCHANGE_QUEUE_FULL\",\"ph\":\"X\",\"ts\":10,\"dur\":5,\"pid\":1,\"tid\":2"));
    }

    #[test]
    fn optimize_stage_carries_rule_counts() {
        let stats = OptimizerStats {
            groups: 4,
            exprs: 9,
            rules_fired: 3,
            rule_counts: vec![("JoinCommute", 2), ("PushFilter", 1)],
            phases: vec![],
            early_exit: false,
        };
        let b = builder("q");
        b.stage_optimize(Instant::now(), &stats);
        let trace = finish(b);
        let opt = trace.find("optimize").unwrap();
        assert_eq!(opt.attr("rule.JoinCommute"), Some("2"));
        assert_eq!(opt.attr("rules_fired"), Some("3"));
    }
}
