//! SQL frontend: lexer, AST and parser for the engine's T-SQL-flavoured
//! dialect.
//!
//! The dialect covers what the paper's scenarios need: four-part names for
//! linked servers (`remote0.tpch10g.dbo.customer`, §2.1), `OPENROWSET` /
//! `OPENQUERY` for ad-hoc and pass-through access (§2.2, §3.3), `CONTAINS`
//! full-text predicates (§2.3), parameters (`@customerId`, §4.1.5), plus
//! ordinary SELECT/INSERT/UPDATE/DELETE with joins, subqueries, grouping,
//! UNION \[ALL\] and TOP.

pub mod ast;
pub mod fingerprint;
pub mod lexer;
pub mod parser;

pub use ast::*;
pub use fingerprint::{fingerprint, Fingerprint, AUTO_PARAM_PREFIX};
// The stable hash lives in `dhqp_types` (the member-schema stamp needs it
// below the SQL front end); re-exported so existing call sites keep compiling.
pub use dhqp_types::hash::{self, fnv1a_64, hash_lines, Fnv1a};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_expression, parse_statement, Parser};
