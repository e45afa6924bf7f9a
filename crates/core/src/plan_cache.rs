//! The parameterized plan cache.
//!
//! SQL Server amortizes its Cascades compiles through a plan cache keyed by
//! the auto-parameterized statement text; this module is that cache for the
//! reproduction. An entry stores the optimized physical plan together with
//! everything `Engine::execute` needs to run it again, plus what it was
//! compiled against — the linked servers its bind resolved and the global
//! schema / optimizer-config epochs. A lookup validates them and treats any
//! mismatch as a miss (lazy invalidation), so re-registered servers, remote
//! DDL (`clear_metadata_cache`), local DDL and config changes can never
//! resurrect a stale plan.
//!
//! Cacheability is deliberately conservative: statements whose *bind*
//! consults live data — scalar subqueries and `OPENROWSET`/`OPENQUERY`
//! pass-through (materialized eagerly at bind time) and full-text
//! `CONTAINS` (hit lists frozen at bind time) — are never cached, because
//! their plans embed query *results*, not just shapes.

use crate::engine::LinkedServer;
use dhqp_executor::MemberSchema;
use dhqp_optimizer::search::OptimizerStats;
use dhqp_optimizer::{ColumnId, ColumnRegistry, PhysNode};
use dhqp_sqlfront::{Expr, SelectItem, SelectStmt, TableRef};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// What a plan was compiled against.
pub(crate) struct CacheDeps {
    /// Every linked server the plan's bind resolved, as registered then.
    /// The plan is current while each is still what its name is registered
    /// as; `Weak`, so a cached plan never keeps a replaced pool alive.
    pub servers: Vec<Weak<LinkedServer>>,
    /// Global local-DDL/statistics epoch.
    pub schema_epoch: u64,
    /// Optimizer configuration epoch.
    pub config_epoch: u64,
}

/// One cached compile: the plan plus everything needed to re-execute it.
pub(crate) struct CachedSelect {
    pub plan: PhysNode,
    pub registry: Arc<ColumnRegistry>,
    /// Visible SELECT-list columns, in order.
    pub output: Vec<(String, ColumnId)>,
    /// What the plan assumes about the partitioned-view members it may read
    /// (delayed schema validation re-checks the ones an execution opens,
    /// cached or not).
    pub view_members: Arc<[MemberSchema]>,
    pub opt_stats: OptimizerStats,
    pub deps: CacheDeps,
    /// When the oldest remote metadata/statistics bundle consulted at
    /// compile time was fetched (`None` for purely local plans).
    pub stats_as_of: Option<Instant>,
    /// Whether the compile consulted feedback-corrected statistics
    /// (`[feedback: applied]` in EXPLAIN output).
    pub used_feedback: bool,
    /// Per-fingerprint execution aggregates (the `sys.dm_exec_query_stats`
    /// substrate): the epilogue folds in each succeeded statement's record
    /// — its `elapsed`, in whole µs, and its `rows` — cache hit or the
    /// compiling miss alike.
    pub execution_count: AtomicU64,
    pub total_elapsed_us: AtomicU64,
    pub total_rows: AtomicU64,
}

/// Plan-cache knobs: `DHQP_PLAN_CACHE` switches it, `DHQP_PLAN_CACHE_SIZE`
/// bounds the entry count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCacheConfig {
    pub enabled: bool,
    pub capacity: usize,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig {
            enabled: true,
            capacity: 128,
        }
    }
}

/// Bounded LRU map from template text to cached compile.
pub(crate) struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, (u64, Arc<CachedSelect>)>,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Shrink (or grow) the bound; returns how many entries were evicted.
    pub fn set_capacity(&mut self, capacity: usize) -> usize {
        self.capacity = capacity.max(1);
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            self.evict_lru();
            evicted += 1;
        }
        evicted
    }

    pub fn get(&mut self, key: &str) -> Option<Arc<CachedSelect>> {
        self.tick += 1;
        let tick = self.tick;
        let (last_used, entry) = self.entries.get_mut(key)?;
        *last_used = tick;
        Some(Arc::clone(entry))
    }

    /// Insert one compile; returns how many entries were evicted to fit.
    pub fn insert(&mut self, key: String, entry: Arc<CachedSelect>) -> usize {
        self.tick += 1;
        self.entries.insert(key, (self.tick, entry));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            self.evict_lru();
            evicted += 1;
        }
        evicted
    }

    pub fn remove(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Every `(template, entry)` pair, in no particular order (the
    /// `sys.dm_exec_query_stats` scan; does not touch LRU recency).
    pub fn entries(&self) -> Vec<(String, Arc<CachedSelect>)> {
        self.entries
            .iter()
            .map(|(k, (_, e))| (k.clone(), Arc::clone(e)))
            .collect()
    }

    /// Drop every plan that depends on `server`; returns the eviction
    /// count.
    pub fn purge_server(&mut self, server: &Arc<LinkedServer>) -> usize {
        let before = self.entries.len();
        let server = Arc::as_ptr(server);
        self.entries
            .retain(|_, (_, e)| !e.deps.servers.iter().any(|s| s.as_ptr() == server));
        before - self.entries.len()
    }

    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }

    fn evict_lru(&mut self) {
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, (used, _))| *used)
            .map(|(k, _)| k.clone())
        {
            self.entries.remove(&key);
        }
    }
}

/// Whether a statement's compile is pure (a function of catalog metadata
/// only) and therefore safe to reuse. Statements that run queries *during
/// bind* embed results in the plan and must recompile every time.
pub(crate) fn is_cacheable(stmt: &SelectStmt) -> bool {
    stmt.projections.iter().all(|item| match item {
        SelectItem::Expr { expr, .. } => expr_cacheable(expr),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => true,
    }) && stmt.from.iter().all(table_cacheable)
        && stmt.where_clause.as_ref().is_none_or(expr_cacheable)
        && stmt.group_by.iter().all(expr_cacheable)
        && stmt.having.as_ref().is_none_or(expr_cacheable)
        && stmt.order_by.iter().all(|o| expr_cacheable(&o.expr))
        && stmt
            .union_branches
            .iter()
            .all(|(branch, _)| is_cacheable(branch))
}

fn table_cacheable(t: &TableRef) -> bool {
    match t {
        TableRef::Named { .. } => true,
        TableRef::Join {
            left, right, on, ..
        } => {
            table_cacheable(left)
                && table_cacheable(right)
                && on.as_ref().is_none_or(expr_cacheable)
        }
        TableRef::Derived { query, .. } => is_cacheable(query),
        // Pass-through rowsets are materialized at bind time.
        TableRef::OpenRowset { .. } | TableRef::OpenQuery { .. } => false,
    }
}

fn expr_cacheable(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) | Expr::CountStar => true,
        Expr::Unary { operand, .. } => expr_cacheable(operand),
        Expr::Binary { left, right, .. } => expr_cacheable(left) && expr_cacheable(right),
        Expr::InList { expr, list, .. } => expr_cacheable(expr) && list.iter().all(expr_cacheable),
        Expr::InSubquery { expr, subquery, .. } => expr_cacheable(expr) && is_cacheable(subquery),
        Expr::Between {
            expr, low, high, ..
        } => expr_cacheable(expr) && expr_cacheable(low) && expr_cacheable(high),
        Expr::Like { expr, pattern, .. } => expr_cacheable(expr) && expr_cacheable(pattern),
        Expr::IsNull { expr, .. } => expr_cacheable(expr),
        Expr::Exists { subquery, .. } => is_cacheable(subquery),
        // Evaluated eagerly at bind time: the result would be frozen into
        // the cached plan.
        Expr::ScalarSubquery(_) => false,
        // CONTAINS materializes full-text hits at bind time.
        Expr::Function { name, args, .. } => {
            !name.eq_ignore_ascii_case("CONTAINS") && args.iter().all(expr_cacheable)
        }
        Expr::Cast { expr, .. } => expr_cacheable(expr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_sqlfront::{parse_statement, Statement};

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn cacheability_rules() {
        assert!(is_cacheable(&select("SELECT a FROM t WHERE k = @p")));
        assert!(is_cacheable(&select(
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)"
        )));
        assert!(!is_cacheable(&select(
            "SELECT a FROM t WHERE k = (SELECT MAX(k) FROM u)"
        )));
        assert!(!is_cacheable(&select(
            "SELECT a FROM t WHERE CONTAINS(body, 'x')"
        )));
        assert!(!is_cacheable(&select(
            "SELECT a FROM OPENQUERY(srv, 'select 1') AS q"
        )));
        assert!(!is_cacheable(&select(
            "SELECT x FROM (SELECT a AS x FROM OPENROWSET('p','d','q') AS r) AS d"
        )));
        assert!(is_cacheable(&select(
            "SELECT a FROM t UNION ALL SELECT a FROM u"
        )));
    }

    #[test]
    fn lru_eviction_and_purge() {
        fn server(name: &str) -> Arc<LinkedServer> {
            let storage = Arc::new(dhqp_storage::StorageEngine::new(name));
            let source = Arc::new(dhqp_storage::LocalDataSource::new(storage));
            let health = Arc::new(dhqp_executor::HealthRegistry::new(Default::default()));
            let breaker = Arc::new(dhqp_executor::Breaker::new(name, &health));
            Arc::new(LinkedServer::new(name, source, breaker))
        }
        fn entry(servers: &[&Arc<LinkedServer>]) -> Arc<CachedSelect> {
            Arc::new(CachedSelect {
                plan: PhysNode::new(
                    dhqp_optimizer::PhysicalOp::Values {
                        columns: vec![],
                        rows: Arc::new(vec![]),
                    },
                    vec![],
                    vec![],
                ),
                registry: Arc::new(ColumnRegistry::default()),
                output: vec![],
                view_members: Arc::new([]),
                opt_stats: OptimizerStats::default(),
                deps: CacheDeps {
                    servers: servers.iter().map(|s| Arc::downgrade(s)).collect(),
                    schema_epoch: 0,
                    config_epoch: 0,
                },
                stats_as_of: None,
                used_feedback: false,
                execution_count: AtomicU64::new(0),
                total_elapsed_us: AtomicU64::new(0),
                total_rows: AtomicU64::new(0),
            })
        }
        let (srv1, srv2) = (server("srv1"), server("srv2"));
        let mut cache = PlanCache::new(2);
        assert_eq!(cache.insert("a".into(), entry(&[])), 0);
        assert_eq!(cache.insert("b".into(), entry(&[&srv1])), 0);
        assert!(cache.get("a").is_some()); // "b" is now least-recently used
        assert_eq!(cache.insert("c".into(), entry(&[&srv2])), 1);
        assert!(cache.get("b").is_none(), "LRU entry evicted");
        assert_eq!(cache.purge_server(&srv1), 0);
        assert_eq!(cache.purge_server(&srv2), 1);
        assert!(cache.get("c").is_none());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.clear(), 1);
    }
}
