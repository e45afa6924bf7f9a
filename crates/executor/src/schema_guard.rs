//! Delayed schema validation (§4.1.5) as part of the open.
//!
//! A plan over a partitioned view is compiled against the definition-time
//! snapshot of every member, without contacting any of them. What the plan
//! assumed is re-checked at execution — but only for a member the executor
//! actually opens, and on the session that opens it: the stamp of the
//! assumed column list goes to the provider with
//! [`Session::check_schema`] right after the session is leased, so the
//! check travels with the open request instead of costing a round trip
//! before it. A member that is statically pruned, startup-skipped or
//! refused by an open circuit breaker is never opened and therefore never
//! contacted; a retried open re-sends its stamp; exchange workers validate
//! their own member in parallel.
//!
//! A provider that does not implement `check_schema` answers
//! `Unsupported`, and the check falls back in place to what the engine used
//! to do for every member up front: fetch [`DataSource::table`] and compare
//! the full column list. Third-party providers and decorators that have
//! never heard of stamps stay exactly as safe and merely keep the request.

use dhqp_oledb::{DataSource, Session, TableInfo};
use dhqp_types::{DhqpError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The full comparison of a member's live metadata against what the plan
/// assumed (`PartitionedView::validate_member`, bound to its member).
pub type ValidateMember = Box<dyn Fn(&TableInfo) -> Result<()> + Send + Sync>;

/// What a compiled plan assumes about one partitioned-view member.
pub struct MemberSchema {
    /// Linked server holding the member; `None` = a local member.
    pub server: Option<String>,
    pub table: String,
    /// [`TableInfo::schema_stamp`] of the snapshot the plan was compiled
    /// against.
    pub stamp: u64,
    /// For providers that cannot check a stamp themselves.
    pub validate: ValidateMember,
}

impl MemberSchema {
    /// Is this the expectation for `table` on `server` (names compare
    /// ASCII-case-insensitively, `None` = the local source)?
    pub fn is(&self, server: Option<&str>, table: &str) -> bool {
        self.on(server) && self.table.eq_ignore_ascii_case(table)
    }

    fn on(&self, server: Option<&str>) -> bool {
        match (self.server.as_deref(), server) {
            (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
            (None, None) => true,
            _ => false,
        }
    }
}

/// One statement execution's validation state: the plan's expectations and
/// which of them a member has already confirmed. Shared by every clone of
/// the [`crate::ExecContext`] — re-opens under a nested-loop join and
/// mid-stream rewinds find their member validated and send nothing.
pub(crate) struct SchemaGuard {
    members: Arc<[MemberSchema]>,
    /// Relaxed is enough: the flag publishes no other data, and a stale
    /// `false` only repeats a check.
    validated: Vec<AtomicBool>,
}

impl SchemaGuard {
    /// `None` for a plan that reads no partitioned view, so such statements
    /// carry no guard at all.
    pub(crate) fn new(members: &Arc<[MemberSchema]>) -> Option<Arc<SchemaGuard>> {
        (!members.is_empty()).then(|| {
            Arc::new(SchemaGuard {
                members: Arc::clone(members),
                validated: members.iter().map(|_| AtomicBool::new(false)).collect(),
            })
        })
    }

    /// The members a request naming `table` on `server` reads.
    pub(crate) fn checks_for_table(
        self: &Arc<Self>,
        server: Option<&str>,
        table: &str,
    ) -> MemberChecks {
        self.checks(|m| m.is(server, table))
    }

    /// The members a statement pushed to `server` reads: the decoder quotes
    /// every table it names as `[table]`.
    pub(crate) fn checks_in_sql(self: &Arc<Self>, server: &str, sql: &str) -> MemberChecks {
        if !self.members.iter().any(|m| m.on(Some(server))) {
            return MemberChecks::default();
        }
        let sql = sql.to_ascii_lowercase();
        self.checks(|m| {
            m.on(Some(server)) && sql.contains(&format!("[{}]", m.table.to_ascii_lowercase()))
        })
    }

    fn checks(self: &Arc<Self>, reads: impl Fn(&MemberSchema) -> bool) -> MemberChecks {
        let members: Vec<usize> = (0..self.members.len())
            .filter(|&i| reads(&self.members[i]))
            .collect();
        if members.is_empty() {
            return MemberChecks::default();
        }
        MemberChecks {
            guard: Some(Arc::clone(self)),
            members,
        }
    }
}

/// The view members one plan node reads, resolved once when the node opens
/// and captured by its (re-)open factory.
#[derive(Clone, Default)]
pub(crate) struct MemberChecks {
    guard: Option<Arc<SchemaGuard>>,
    members: Vec<usize>,
}

impl MemberChecks {
    /// Lease a session on `source`, send the stamp of every member this
    /// node reads that has not been validated yet, and run `open` on that
    /// session. A member counts as validated once the request its stamp
    /// rode has been answered — an open that fails in transit validated
    /// nothing, so its retry sends the stamp again.
    pub(crate) fn open_session<T>(
        &self,
        source: &Arc<dyn DataSource>,
        open: impl FnOnce(&mut dyn Session) -> Result<T>,
    ) -> Result<T> {
        let mut session = source.create_session()?;
        let Some(guard) = &self.guard else {
            return open(&mut *session);
        };
        let mut riding = Vec::new();
        for &m in &self.members {
            if guard.validated[m].load(Ordering::Relaxed) {
                continue;
            }
            let member = &guard.members[m];
            match session.check_schema(&member.table, member.stamp) {
                Ok(()) => riding.push(m),
                Err(DhqpError::Unsupported(_)) => {
                    (member.validate)(&source.table(&member.table)?)?;
                    guard.validated[m].store(true, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
        let opened = open(&mut *session)?;
        for m in riding {
            guard.validated[m].store(true, Ordering::Relaxed);
        }
        Ok(opened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_oledb::{ColumnInfo, MemRowset, ProviderCapabilities, Rowset};
    use dhqp_types::{DataType, Schema};
    use std::sync::atomic::AtomicUsize;

    /// A provider with one table `t(k INT)`; `aware` decides whether its
    /// sessions answer `check_schema` or leave the default.
    struct Source {
        aware: bool,
        checks: AtomicUsize,
        metadata: AtomicUsize,
    }

    fn live() -> TableInfo {
        TableInfo::new("t", vec![ColumnInfo::not_null("k", DataType::Int)])
    }

    impl DataSource for Source {
        fn name(&self) -> &str {
            "src"
        }

        fn capabilities(&self) -> ProviderCapabilities {
            ProviderCapabilities::simple("src")
        }

        fn tables(&self) -> Result<Vec<TableInfo>> {
            self.metadata.fetch_add(1, Ordering::Relaxed);
            Ok(vec![live()])
        }

        fn create_session(&self) -> Result<Box<dyn Session>> {
            Ok(Box::new(SourceSession {
                aware: self.aware,
                stamp: live().schema_stamp(),
            }))
        }
    }

    struct SourceSession {
        aware: bool,
        stamp: u64,
    }

    impl Session for SourceSession {
        fn open_rowset(&mut self, _table: &str) -> Result<Box<dyn Rowset>> {
            Ok(Box::new(MemRowset::empty(Schema::empty())))
        }

        fn check_schema(&mut self, table: &str, stamp: u64) -> Result<()> {
            if !self.aware {
                return Err(DhqpError::Unsupported("no stamps".into()));
            }
            if stamp == self.stamp {
                Ok(())
            } else {
                Err(DhqpError::SchemaDrift(format!("'{table}' drifted")))
            }
        }
    }

    fn source(aware: bool) -> (Arc<Source>, Arc<dyn DataSource>) {
        let s = Arc::new(Source {
            aware,
            checks: AtomicUsize::new(0),
            metadata: AtomicUsize::new(0),
        });
        (Arc::clone(&s), s as Arc<dyn DataSource>)
    }

    /// A guard expecting `snapshot` of member `t` on server `m1`; the
    /// fallback comparison counts its calls on `src.checks`.
    fn guard(src: &Arc<Source>, snapshot: TableInfo) -> Arc<SchemaGuard> {
        let counted = Arc::clone(src);
        let stamp = snapshot.schema_stamp();
        let members: Arc<[MemberSchema]> = Arc::new([MemberSchema {
            server: Some("M1".into()),
            table: "T".into(),
            stamp,
            validate: Box::new(move |current| {
                counted.checks.fetch_add(1, Ordering::Relaxed);
                if current.schema_stamp() == stamp {
                    Ok(())
                } else {
                    Err(DhqpError::SchemaDrift("fallback saw drift".into()))
                }
            }),
        }]);
        SchemaGuard::new(&members).expect("one member")
    }

    fn open(checks: &MemberChecks, ds: &Arc<dyn DataSource>) -> Result<()> {
        checks.open_session(ds, |s| s.open_rowset("t")).map(|_| ())
    }

    #[test]
    fn a_plan_without_views_carries_no_guard() {
        let none: Arc<[MemberSchema]> = Arc::new([]);
        assert!(SchemaGuard::new(&none).is_none());
        let (_, ds) = source(true);
        open(&MemberChecks::default(), &ds).unwrap();
    }

    #[test]
    fn members_resolve_by_server_and_table_ignoring_case() {
        let (src, _) = source(true);
        let g = guard(&src, live());
        assert_eq!(g.checks_for_table(Some("m1"), "t").members, vec![0]);
        assert!(g.checks_for_table(Some("m2"), "t").members.is_empty());
        assert!(g.checks_for_table(None, "t").members.is_empty());
        assert!(g.checks_for_table(Some("m1"), "other").members.is_empty());
        assert_eq!(
            g.checks_in_sql("m1", "SELECT [k] FROM [t] AS [x]").members,
            vec![0]
        );
        assert!(g
            .checks_in_sql("m1", "SELECT 1 FROM [tt]")
            .members
            .is_empty());
        assert!(g
            .checks_in_sql("m2", "SELECT 1 FROM [t]")
            .members
            .is_empty());
    }

    #[test]
    fn an_aware_provider_checks_the_stamp_once_and_sends_no_metadata_request() {
        let (src, ds) = source(true);
        let checks = guard(&src, live()).checks_for_table(Some("m1"), "t");
        open(&checks, &ds).unwrap();
        open(&checks, &ds).unwrap();
        assert_eq!(src.metadata.load(Ordering::Relaxed), 0);
        assert_eq!(src.checks.load(Ordering::Relaxed), 0);
        let mut drifted = live();
        drifted.columns[0].data_type = DataType::Str;
        let err = open(&guard(&src, drifted).checks_for_table(Some("m1"), "t"), &ds).unwrap_err();
        assert_eq!(err.kind(), "schema-drift");
        assert_eq!(src.metadata.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn an_unaware_provider_gets_the_full_comparison_once() {
        let (src, ds) = source(false);
        let checks = guard(&src, live()).checks_for_table(Some("m1"), "t");
        open(&checks, &ds).unwrap();
        open(&checks, &ds).unwrap();
        assert_eq!(src.metadata.load(Ordering::Relaxed), 1);
        assert_eq!(src.checks.load(Ordering::Relaxed), 1);
        let mut drifted = live();
        drifted.columns[0].name = "renamed".into();
        let err = open(&guard(&src, drifted).checks_for_table(Some("m1"), "t"), &ds).unwrap_err();
        assert_eq!(err.kind(), "schema-drift");
        assert_eq!(err.message(), "fallback saw drift");
    }

    #[test]
    fn a_failed_open_validated_nothing() {
        let (src, ds) = source(true);
        let g = guard(&src, live());
        let checks = g.checks_for_table(Some("m1"), "t");
        let lost: Result<()> = checks.open_session(&ds, |_| {
            Err(DhqpError::Unavailable("lost in transit".into()))
        });
        assert!(lost.is_err());
        assert!(!g.validated[0].load(Ordering::Relaxed));
        open(&checks, &ds).unwrap();
        assert!(g.validated[0].load(Ordering::Relaxed));
    }
}
