//! The search service: catalogs, document stores and IFilter-style text
//! extraction (paper §2.2–§2.3).
//!
//! "Users need to setup a full-text catalog/index first [...] For all
//! third-party document types, one needs to install necessary IFilters. The
//! IFilter is an interface for retrieving text and properties out of
//! documents."

use crate::index::InvertedIndex;
use crate::query::FtQuery;
use dhqp_types::{DhqpError, Result};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};

/// A document registered in a catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    pub id: u64,
    /// File-system path.
    pub path: String,
    /// Lowercased extension used to pick an IFilter ("txt", "html", ...).
    pub doc_type: String,
    /// Raw (pre-filter) content.
    pub raw: String,
    pub size: u64,
    /// Days since epoch.
    pub created: i32,
    pub modified: i32,
}

impl Document {
    pub fn file_name(&self) -> &str {
        self.path.rsplit(['/', '\\']).next().unwrap_or(&self.path)
    }
}

/// IFilter analog: extracts indexable text from one document format.
pub trait IFilter: Send + Sync {
    fn extract(&self, raw: &str) -> String;
}

/// Plain text passes through.
pub struct PlainTextFilter;

impl IFilter for PlainTextFilter {
    fn extract(&self, raw: &str) -> String {
        raw.to_string()
    }
}

/// Strips `<tags>` and unescapes a few entities.
pub struct HtmlFilter;

impl IFilter for HtmlFilter {
    fn extract(&self, raw: &str) -> String {
        let mut out = String::with_capacity(raw.len());
        let mut in_tag = false;
        for c in raw.chars() {
            match c {
                '<' => in_tag = true,
                '>' => {
                    in_tag = false;
                    out.push(' ');
                }
                c if !in_tag => out.push(c),
                _ => {}
            }
        }
        out.replace("&amp;", "&")
            .replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&nbsp;", " ")
    }
}

/// Strips Markdown syntax characters.
pub struct MarkdownFilter;

impl IFilter for MarkdownFilter {
    fn extract(&self, raw: &str) -> String {
        raw.chars()
            .map(|c| {
                if matches!(c, '#' | '*' | '`' | '_' | '[' | ']' | '(' | ')') {
                    ' '
                } else {
                    c
                }
            })
            .collect()
    }
}

/// One full-text catalog: an index over a document collection (or over the
/// rows of a SQL table, where the "document id" is the row's bookmark).
#[derive(Default)]
pub struct FullTextCatalog {
    pub name: String,
    index: InvertedIndex,
    documents: BTreeMap<u64, Document>,
    next_id: u64,
}

impl FullTextCatalog {
    pub fn new(name: impl Into<String>) -> Self {
        FullTextCatalog {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Index text for a row key directly (the §2.3 relational path: the
    /// caller extracts the column text and keys by row identity).
    pub fn index_row(&mut self, key: u64, text: &str) {
        self.index.add_document(key, text);
    }

    /// Drop a row from the index (maintenance on UPDATE/DELETE).
    pub fn remove_row(&mut self, key: u64) {
        self.index.remove_document(key);
        self.documents.remove(&key);
    }

    pub fn doc_count(&self) -> usize {
        self.index.doc_count()
    }

    pub fn document(&self, id: u64) -> Option<&Document> {
        self.documents.get(&id)
    }

    /// All registered documents in id order.
    pub fn documents_iter(&self) -> impl Iterator<Item = &Document> + '_ {
        self.documents.values()
    }

    /// Evaluate a query, ranked descending; rank scaled to 0..=1000 like
    /// the search service's rank column.
    pub fn query(&self, text: &str) -> Result<Vec<(u64, i64)>> {
        let q = FtQuery::parse(text)?;
        let scores = q.evaluate(&self.index)?;
        let max = scores.values().cloned().fold(0.0f64, f64::max);
        let mut ranked: Vec<(u64, i64)> = scores
            .into_iter()
            .map(|(doc, s)| {
                (
                    doc,
                    if max > 0.0 {
                        (s / max * 1000.0) as i64
                    } else {
                        0
                    },
                )
            })
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(ranked)
    }
}

/// The search service: named catalogs plus the installed IFilter registry.
pub struct SearchService {
    catalogs: RwLock<HashMap<String, FullTextCatalog>>,
    filters: HashMap<String, Box<dyn IFilter>>,
}

impl Default for SearchService {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchService {
    /// A service with the standard filters installed (txt, log, html, md).
    pub fn new() -> Self {
        let mut filters: HashMap<String, Box<dyn IFilter>> = HashMap::new();
        filters.insert("txt".into(), Box::new(PlainTextFilter));
        filters.insert("log".into(), Box::new(PlainTextFilter));
        filters.insert("html".into(), Box::new(HtmlFilter));
        filters.insert("htm".into(), Box::new(HtmlFilter));
        filters.insert("md".into(), Box::new(MarkdownFilter));
        SearchService {
            catalogs: RwLock::new(HashMap::new()),
            filters,
        }
    }

    /// Install an additional IFilter for a document type.
    pub fn install_filter(&mut self, doc_type: &str, filter: Box<dyn IFilter>) {
        self.filters.insert(doc_type.to_lowercase(), filter);
    }

    pub fn create_catalog(&self, name: &str) -> Result<()> {
        let mut catalogs = self.catalogs.write();
        if catalogs.contains_key(&name.to_lowercase()) {
            return Err(DhqpError::Catalog(format!(
                "full-text catalog '{name}' already exists"
            )));
        }
        catalogs.insert(name.to_lowercase(), FullTextCatalog::new(name));
        Ok(())
    }

    pub fn has_catalog(&self, name: &str) -> bool {
        self.catalogs.read().contains_key(&name.to_lowercase())
    }

    /// Index one document into a catalog, running it through the installed
    /// IFilter for its type. Unknown types fail, as in the real service.
    pub fn index_document(&self, catalog: &str, mut doc: Document) -> Result<u64> {
        let filter = self
            .filters
            .get(&doc.doc_type.to_lowercase())
            .ok_or_else(|| {
                DhqpError::Unsupported(format!(
                    "no IFilter installed for document type '{}'",
                    doc.doc_type
                ))
            })?;
        let text = filter.extract(&doc.raw);
        let mut catalogs = self.catalogs.write();
        let cat = catalogs
            .get_mut(&catalog.to_lowercase())
            .ok_or_else(|| DhqpError::Catalog(format!("no full-text catalog '{catalog}'")))?;
        if doc.id == 0 {
            cat.next_id += 1;
            doc.id = cat.next_id;
        }
        let id = doc.id;
        cat.index
            .add_document(id, &format!("{} {}", doc.path, text));
        cat.documents.insert(id, doc);
        Ok(id)
    }

    /// Index text keyed by an external row identity (§2.3 relational path).
    pub fn index_row(&self, catalog: &str, key: u64, text: &str) -> Result<()> {
        let mut catalogs = self.catalogs.write();
        let cat = catalogs
            .get_mut(&catalog.to_lowercase())
            .ok_or_else(|| DhqpError::Catalog(format!("no full-text catalog '{catalog}'")))?;
        cat.index_row(key, text);
        Ok(())
    }

    /// Swap in a catalog's rebuilt index — the maintenance rule for a
    /// catalog over a table column: build from the table, then swap
    /// (DESIGN.md §24).
    pub fn replace_index(&self, catalog: &str, index: InvertedIndex) -> Result<()> {
        let mut catalogs = self.catalogs.write();
        let cat = catalogs
            .get_mut(&catalog.to_lowercase())
            .ok_or_else(|| DhqpError::Catalog(format!("no full-text catalog '{catalog}'")))?;
        cat.index = index;
        Ok(())
    }

    pub fn remove_row(&self, catalog: &str, key: u64) -> Result<()> {
        let mut catalogs = self.catalogs.write();
        let cat = catalogs
            .get_mut(&catalog.to_lowercase())
            .ok_or_else(|| DhqpError::Catalog(format!("no full-text catalog '{catalog}'")))?;
        cat.remove_row(key);
        Ok(())
    }

    /// Ranked `(key, rank)` results for a query — the rowset the relational
    /// engine joins with base tables on row identity (Figure 2).
    pub fn query_keys(&self, catalog: &str, query: &str) -> Result<Vec<(u64, i64)>> {
        let catalogs = self.catalogs.read();
        let cat = catalogs
            .get(&catalog.to_lowercase())
            .ok_or_else(|| DhqpError::Catalog(format!("no full-text catalog '{catalog}'")))?;
        cat.query(query)
    }

    /// Run `f` against a catalog under the read lock.
    pub fn with_catalog<R>(
        &self,
        catalog: &str,
        f: impl FnOnce(&FullTextCatalog) -> R,
    ) -> Result<R> {
        let catalogs = self.catalogs.read();
        let cat = catalogs
            .get(&catalog.to_lowercase())
            .ok_or_else(|| DhqpError::Catalog(format!("no full-text catalog '{catalog}'")))?;
        Ok(f(cat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(path: &str, doc_type: &str, raw: &str) -> Document {
        Document {
            id: 0,
            path: path.into(),
            doc_type: doc_type.into(),
            raw: raw.into(),
            size: raw.len() as u64,
            created: 10_000,
            modified: 10_001,
        }
    }

    fn service_with_docs() -> SearchService {
        let svc = SearchService::new();
        svc.create_catalog("DQLiterature").unwrap();
        svc.index_document(
            "DQLiterature",
            doc(
                "d:\\docs\\parallel.txt",
                "txt",
                "Parallel database systems survey",
            ),
        )
        .unwrap();
        svc.index_document(
            "DQLiterature",
            doc(
                "d:\\docs\\hetero.html",
                "html",
                "<h1>Heterogeneous query</h1> processing notes",
            ),
        )
        .unwrap();
        svc.index_document(
            "DQLiterature",
            doc("d:\\docs\\misc.md", "md", "# Cooking *pasta*"),
        )
        .unwrap();
        svc
    }

    #[test]
    fn paper_scenario_query_over_catalog() {
        let svc = service_with_docs();
        let hits = svc
            .query_keys(
                "dqliterature",
                "\"Parallel database\" OR \"heterogeneous query\"",
            )
            .unwrap();
        assert_eq!(hits.len(), 2);
        // Ranks are scaled 0..=1000, descending.
        assert!(hits[0].1 >= hits[1].1);
        assert!(hits[0].1 <= 1000);
    }

    #[test]
    fn ifilters_strip_markup() {
        let svc = service_with_docs();
        // "h1" is markup, not content: must not be indexed.
        assert!(svc.query_keys("DQLiterature", "h1").unwrap().is_empty());
        assert_eq!(
            svc.query_keys("DQLiterature", "heterogeneous")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn unknown_doc_type_requires_ifilter() {
        let svc = service_with_docs();
        let err = svc
            .index_document("DQLiterature", doc("x.pdf", "pdf", "binaryish"))
            .unwrap_err();
        assert_eq!(err.kind(), "unsupported");
    }

    #[test]
    fn installing_a_filter_enables_the_type() {
        let mut svc = SearchService::new();
        svc.install_filter("pdf", Box::new(PlainTextFilter));
        svc.create_catalog("c").unwrap();
        assert!(svc
            .index_document("c", doc("x.pdf", "pdf", "now indexable"))
            .is_ok());
        assert_eq!(svc.query_keys("c", "indexable").unwrap().len(), 1);
    }

    #[test]
    fn relational_row_indexing_and_maintenance() {
        let svc = SearchService::new();
        svc.create_catalog("articles").unwrap();
        svc.index_row("articles", 100, "distributed query optimization")
            .unwrap();
        svc.index_row("articles", 200, "cooking").unwrap();
        let hits = svc.query_keys("articles", "query").unwrap();
        assert_eq!(hits, vec![(100, 1000)]);
        svc.remove_row("articles", 100).unwrap();
        assert!(svc.query_keys("articles", "query").unwrap().is_empty());
    }

    #[test]
    fn catalog_errors() {
        let svc = SearchService::new();
        assert!(svc.query_keys("ghost", "x").is_err());
        svc.create_catalog("c").unwrap();
        assert!(
            svc.create_catalog("C").is_err(),
            "catalog names are case-insensitive"
        );
    }

    #[test]
    fn file_name_helper() {
        let d = doc("d:\\mail\\docs\\file.txt", "txt", "");
        assert_eq!(d.file_name(), "file.txt");
    }
}
