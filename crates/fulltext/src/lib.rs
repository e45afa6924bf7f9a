//! The full-text search service — the Microsoft Search Service analog
//! (paper §2.2–§2.3, Figure 2).
//!
//! "Given a full-text predicate, the search service determines which
//! entries in the index meet the full-text selection criteria. For each
//! entry \[it\] returns an OLE DB Rowset containing the identity of the row
//! whose columns match the search criteria, and a ranking value."
//!
//! Pieces:
//! * [`tokenizer`] + [`stemmer`] — word extraction and inflection folding
//!   ("'runner', 'run', and 'ran' can all be equivalent").
//! * [`index`] — positional inverted index with tf-idf ranking.
//! * [`query`] — the Index-Server-style query language: words, "phrases",
//!   AND/OR/NOT, NEAR proximity.
//! * [`service`] — catalogs over document stores, with IFilter-style text
//!   extractors per document type.
//! * [`provider`] — the `MSIDXS` OLE DB-style provider: a *query provider
//!   with proprietary syntax* (§3.3), reachable only via pass-through
//!   command text, returning (key, rank) rowsets the relational engine
//!   joins back to base tables.

pub mod index;
pub mod provider;
pub mod query;
pub mod service;
pub mod stemmer;
pub mod tokenizer;

pub use index::{InvertedIndex, Postings};
pub use provider::FullTextProvider;
pub use query::FtQuery;
pub use service::{Document, FullTextCatalog, SearchService};
