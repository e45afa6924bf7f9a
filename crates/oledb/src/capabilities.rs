//! Provider capability descriptions (paper §3.1.1, §3.3).
//!
//! A data source object "supports interfaces used by DHQP to query the
//! capabilities of remote sources" — the SQL dialect level
//! (`DBPROP_SQLSUPPORT`), index and statistics support, and dialect details
//! (quoting characters, date literal formats, nested-SELECT support) that
//! the decoder needs to emit compliant SQL. The optimizer "constructs plans
//! such that the provider's capabilities are fully used while not
//! overshooting its limitations".

use dhqp_types::value::format_date;
use dhqp_types::Value;
use serde::{Deserialize, Serialize};

/// Level of SQL the provider's command object accepts — the analog of the
/// `DBPROP_SQLSUPPORT` property. Ordered: each level includes the previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SqlSupport {
    /// No command support at all: the provider can only open named rowsets
    /// (§3.3 "simple provider"). DHQP supplies *all* query functionality.
    None,
    /// "SQL Minimum": single-table SELECT with simple comparison predicates
    /// and projection. No joins, ordering, or grouping.
    Minimum,
    /// "ODBC Core": adds multi-table joins, ORDER BY, IN/BETWEEN/LIKE.
    OdbcCore,
    /// "SQL-92 Entry/Intermediate/Full": adds GROUP BY/aggregates and
    /// nested subqueries — a fully capable query processor.
    Sql92,
}

impl SqlSupport {
    pub fn supports_joins(&self) -> bool {
        *self >= SqlSupport::OdbcCore
    }

    pub fn supports_order_by(&self) -> bool {
        *self >= SqlSupport::OdbcCore
    }

    pub fn supports_group_by(&self) -> bool {
        *self >= SqlSupport::Sql92
    }

    pub fn supports_subqueries(&self) -> bool {
        *self >= SqlSupport::Sql92
    }

    /// Name as reported in explain output and the capability matrix bench.
    pub fn name(&self) -> &'static str {
        match self {
            SqlSupport::None => "none",
            SqlSupport::Minimum => "sql-minimum",
            SqlSupport::OdbcCore => "odbc-core",
            SqlSupport::Sql92 => "sql-92",
        }
    }
}

/// Broad classification from paper §3.3, derivable from the capability set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProviderClass {
    /// Connect + named rowsets only.
    Simple,
    /// Has a command object with a *proprietary* syntax: only pass-through
    /// (`OPENQUERY`) is possible.
    QueryPassThrough,
    /// Command object accepting a standard SQL dialect: full remoting.
    Sql,
    /// Additionally exposes index metadata, index rowsets and bookmarks.
    Index,
}

/// Dialect details the decoder consults when composing remote SQL
/// (paper §4.1.3: "the decoder responds to different parameter settings of
/// the connection ... e.g. the SQL dialect the remote sources support").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dialect {
    /// Identifier quoting: `"name"` vs `[name]` vs none.
    pub quote_open: char,
    pub quote_close: char,
    /// How date literals must be written, e.g. `DATE '1992-01-01'` vs
    /// `'1992-01-01'` vs `{d '1992-01-01'}` (ODBC escape).
    pub date_literal: DateLiteralStyle,
    /// Whether `SELECT ... FROM (SELECT ...)` derived tables are accepted —
    /// one of the extended properties the paper says providers communicate
    /// "beyond what is defined in SQL".
    pub nested_select: bool,
    /// Row-limit syntax available in this dialect, if any.
    pub limit_syntax: LimitSyntax,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DateLiteralStyle {
    /// `'1992-01-01'` (SQL Server style, collation-dependent).
    PlainString,
    /// `DATE '1992-01-01'` (SQL-92).
    Keyword,
    /// `{d '1992-01-01'}` (ODBC escape sequence).
    OdbcEscape,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LimitSyntax {
    None,
    /// `SELECT TOP n ...`
    Top,
    /// `... LIMIT n`
    Limit,
}

impl Default for Dialect {
    fn default() -> Self {
        Dialect {
            quote_open: '[',
            quote_close: ']',
            date_literal: DateLiteralStyle::PlainString,
            nested_select: true,
            limit_syntax: LimitSyntax::Top,
        }
    }
}

impl Dialect {
    /// Quote an identifier for this dialect, doubling any embedded closing
    /// quote character.
    pub fn quote_ident(&self, name: &str) -> String {
        let mut s = String::with_capacity(name.len() + 2);
        s.push(self.quote_open);
        for c in name.chars() {
            s.push(c);
            if c == self.quote_close {
                s.push(c);
            }
        }
        s.push(self.quote_close);
        s
    }

    /// Render a date literal (ISO text already formatted by the caller).
    pub fn date_literal(&self, iso: &str) -> String {
        match self.date_literal {
            DateLiteralStyle::PlainString => format!("'{iso}'"),
            DateLiteralStyle::Keyword => format!("DATE '{iso}'"),
            DateLiteralStyle::OdbcEscape => format!("{{d '{iso}'}}"),
        }
    }

    /// Render a value as a literal of this dialect: the decoder's literals
    /// and the parameter values substituted into a shipped statement alike.
    pub fn literal(&self, v: &Value) -> String {
        match v {
            Value::Date(d) => self.date_literal(&format_date(*d)),
            other => other.to_sql_literal(),
        }
    }
}

/// Everything the optimizer learns about a provider before planning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderCapabilities {
    /// Human-readable provider name ("SQLOLEDB", "MSIDXS", ...).
    pub provider_name: String,
    pub sql_support: SqlSupport,
    /// Command object exists but speaks a proprietary language (full-text,
    /// MDX, LDAP...): only pass-through queries are possible.
    pub proprietary_command: bool,
    /// Index metadata + `open_index` + bookmark fetch available.
    pub index_support: bool,
    /// Histogram/cardinality statistics available (§3.2.4).
    pub statistics_support: bool,
    /// Can enlist in distributed transactions (MSDTC analog).
    pub transaction_support: bool,
    pub dialect: Dialect,
    /// Estimated per-request latency in microseconds, advertised through
    /// connection properties; feeds the remote cost model.
    pub latency_hint_us: u64,
}

impl ProviderCapabilities {
    /// A provider exposing only named rowsets.
    pub fn simple(name: impl Into<String>) -> Self {
        ProviderCapabilities {
            provider_name: name.into(),
            sql_support: SqlSupport::None,
            proprietary_command: false,
            index_support: false,
            statistics_support: false,
            transaction_support: false,
            dialect: Dialect::default(),
            latency_hint_us: 0,
        }
    }

    /// A fully capable SQL-92 provider with indexes and statistics (the
    /// "remote SQL Server" shape).
    pub fn sql_server(name: impl Into<String>) -> Self {
        ProviderCapabilities {
            provider_name: name.into(),
            sql_support: SqlSupport::Sql92,
            proprietary_command: false,
            index_support: true,
            statistics_support: true,
            transaction_support: true,
            dialect: Dialect::default(),
            latency_hint_us: 500,
        }
    }

    /// The §3.3 provider classification.
    pub fn class(&self) -> ProviderClass {
        if self.proprietary_command {
            ProviderClass::QueryPassThrough
        } else if self.index_support {
            ProviderClass::Index
        } else if self.sql_support == SqlSupport::None {
            ProviderClass::Simple
        } else {
            ProviderClass::Sql
        }
    }

    /// Whether any textual command can be sent at all.
    pub fn has_command(&self) -> bool {
        self.proprietary_command || self.sql_support != SqlSupport::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_support_levels_are_ordered() {
        assert!(SqlSupport::None < SqlSupport::Minimum);
        assert!(SqlSupport::Minimum < SqlSupport::OdbcCore);
        assert!(SqlSupport::OdbcCore < SqlSupport::Sql92);
        assert!(!SqlSupport::Minimum.supports_joins());
        assert!(SqlSupport::OdbcCore.supports_joins());
        assert!(!SqlSupport::OdbcCore.supports_group_by());
        assert!(SqlSupport::Sql92.supports_subqueries());
    }

    #[test]
    fn classification_follows_paper_categories() {
        let mut caps = ProviderCapabilities::simple("CSV");
        assert_eq!(caps.class(), ProviderClass::Simple);
        assert!(!caps.has_command());

        caps.proprietary_command = true; // e.g. MSIDXS full-text
        assert_eq!(caps.class(), ProviderClass::QueryPassThrough);
        assert!(caps.has_command());

        let sql = ProviderCapabilities::sql_server("SQLOLEDB");
        assert_eq!(sql.class(), ProviderClass::Index);
        let mut no_idx = sql.clone();
        no_idx.index_support = false;
        assert_eq!(no_idx.class(), ProviderClass::Sql);
    }

    #[test]
    fn ident_quoting_escapes_close_char() {
        let d = Dialect::default();
        assert_eq!(d.quote_ident("Order Details"), "[Order Details]");
        assert_eq!(d.quote_ident("a]b"), "[a]]b]");
        let dq = Dialect {
            quote_open: '"',
            quote_close: '"',
            ..Dialect::default()
        };
        assert_eq!(dq.quote_ident("x\"y"), "\"x\"\"y\"");
    }

    #[test]
    fn date_literal_styles() {
        let mut d = Dialect::default();
        assert_eq!(d.date_literal("1992-01-01"), "'1992-01-01'");
        d.date_literal = DateLiteralStyle::Keyword;
        assert_eq!(d.date_literal("1992-01-01"), "DATE '1992-01-01'");
        d.date_literal = DateLiteralStyle::OdbcEscape;
        assert_eq!(d.date_literal("1992-01-01"), "{d '1992-01-01'}");
    }
}
