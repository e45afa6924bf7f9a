//! Positional inverted index with tf-idf ranking.
//!
//! Each distinct (stemmed) term is interned once and owns one posting list:
//! its documents in ascending key order, each with a range into one
//! positions array for the term (DESIGN.md §24). Words stream through
//! reused buffers, so indexing a document allocates only when it meets a
//! term the index has not seen.

use crate::stemmer::stem_into;
use crate::tokenizer::for_each_token;
use std::collections::HashMap;

/// One term's postings: `docs` ascending, and `docs[i]`'s word positions,
/// ascending, at `positions[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
#[derive(Debug, Default)]
struct PostingList {
    docs: Vec<u64>,
    ends: Vec<u32>,
    positions: Vec<u32>,
}

/// Where the `i`-th document's positions begin.
fn start(ends: &[u32], i: usize) -> usize {
    i.checked_sub(1).map_or(0, |p| ends[p] as usize)
}

impl PostingList {
    fn view(&self) -> Postings<'_> {
        Postings {
            docs: &self.docs,
            ends: &self.ends,
            positions: &self.positions,
        }
    }

    /// Add a document that is not in the list yet; `positions` ascending.
    fn insert(&mut self, doc: u64, positions: impl Iterator<Item = u32>) {
        let i = self.docs.partition_point(|&d| d < doc);
        let start = start(&self.ends, i);
        let before = self.positions.len();
        self.positions.splice(start..start, positions);
        let added = (self.positions.len() - before) as u32;
        self.docs.insert(i, doc);
        self.ends.insert(i, start as u32 + added);
        for end in &mut self.ends[i + 1..] {
            *end += added;
        }
    }

    fn remove(&mut self, doc: u64) {
        let Ok(i) = self.docs.binary_search(&doc) else {
            return;
        };
        let (start, end) = (start(&self.ends, i), self.ends[i] as usize);
        self.positions.drain(start..end);
        self.docs.remove(i);
        self.ends.remove(i);
        for e in &mut self.ends[i..] {
            *e -= (end - start) as u32;
        }
    }

    fn shrink_to_fit(&mut self) {
        self.docs.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.positions.shrink_to_fit();
    }
}

/// One term's postings, borrowed from the index.
#[derive(Debug, Clone, Copy)]
pub struct Postings<'a> {
    docs: &'a [u64],
    ends: &'a [u32],
    positions: &'a [u32],
}

impl<'a> Postings<'a> {
    /// Documents holding the term: its document frequency.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    fn at(&self, i: usize) -> &'a [u32] {
        &self.positions[start(self.ends, i)..self.ends[i] as usize]
    }

    /// `(document, word positions)` in ascending document order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &'a [u32])> + 'a {
        let p = *self;
        (0..p.docs.len()).map(move |i| (p.docs[i], p.at(i)))
    }

    /// One document's word positions, ascending.
    pub fn positions(&self, doc: u64) -> Option<&'a [u32]> {
        self.docs.binary_search(&doc).ok().map(|i| self.at(i))
    }
}

/// A positional inverted index over documents identified by `u64` keys
/// (row keys when indexing SQL tables, document ids for file stores).
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Stemmed term → its slot in `lists`.
    terms: HashMap<Box<str>, u32>,
    lists: Vec<PostingList>,
    doc_lengths: HashMap<u64, u32>,
}

/// Buffers one indexing pass reuses from document to document.
#[derive(Default)]
struct Scratch {
    word: String,
    stemmed: String,
    /// `(term slot, position)` for every word of the current document.
    hits: Vec<(u32, u32)>,
}

impl InvertedIndex {
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Build an index over `(key, text)` documents given in any order, each
    /// posting list exactly sized. A key given twice keeps its last text, as
    /// [`add_document`](Self::add_document) in that order would.
    pub fn build<'t>(docs: impl IntoIterator<Item = (u64, &'t str)>) -> Self {
        let mut docs: Vec<(u64, &str)> = docs.into_iter().collect();
        // Stable: among equal keys the last one given stays last.
        docs.sort_by_key(|&(key, _)| key);
        let mut ix = InvertedIndex::default();
        let mut scratch = Scratch::default();
        for (i, &(doc, text)) in docs.iter().enumerate() {
            if docs.get(i + 1).is_some_and(|&(next, _)| next == doc) {
                continue;
            }
            ix.insert(doc, text, &mut scratch);
        }
        ix.lists.iter_mut().for_each(PostingList::shrink_to_fit);
        ix.lists.shrink_to_fit();
        ix
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Number of distinct indexed terms.
    pub fn term_count(&self) -> usize {
        self.lists.iter().filter(|l| !l.docs.is_empty()).count()
    }

    /// Index (or re-index) one document's text.
    pub fn add_document(&mut self, doc: u64, text: &str) {
        self.remove_document(doc);
        self.insert(doc, text, &mut Scratch::default());
    }

    /// Index a document the index does not hold.
    fn insert(&mut self, doc: u64, text: &str, scratch: &mut Scratch) {
        let Scratch {
            word,
            stemmed,
            hits,
        } = scratch;
        let (terms, lists) = (&mut self.terms, &mut self.lists);
        hits.clear();
        let mut length = 0u32;
        for_each_token(text, word, |term, position| {
            stem_into(term, stemmed);
            let slot = match terms.get(stemmed.as_str()) {
                Some(&slot) => slot,
                None => {
                    let slot = lists.len() as u32;
                    terms.insert(stemmed.as_str().into(), slot);
                    lists.push(PostingList::default());
                    slot
                }
            };
            hits.push((slot, position));
            length += 1;
        });
        self.doc_lengths.insert(doc, length);
        // Group by term; positions are distinct, so each group stays in
        // word order.
        hits.sort_unstable();
        for group in hits.chunk_by(|a, b| a.0 == b.0) {
            lists[group[0].0 as usize].insert(doc, group.iter().map(|&(_, p)| p));
        }
    }

    /// Remove a document from the index (maintenance path, §2.3 "creation,
    /// update, and administration of full-text catalogs and indexes").
    pub fn remove_document(&mut self, doc: u64) {
        if self.doc_lengths.remove(&doc).is_none() {
            return;
        }
        for list in &mut self.lists {
            list.remove(doc);
        }
    }

    /// Documents containing `term` (case-folded and stemmed here), with
    /// positions.
    pub fn lookup(&self, term: &str) -> Option<Postings<'_>> {
        let mut stemmed = String::new();
        stem_into(&term.to_lowercase(), &mut stemmed);
        let list = &self.lists[*self.terms.get(stemmed.as_str())? as usize];
        (!list.docs.is_empty()).then(|| list.view())
    }

    /// Every indexed term with its postings, in no particular order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, Postings<'_>)> + '_ {
        self.terms
            .iter()
            .map(|(term, &slot)| (&**term, self.lists[slot as usize].view()))
            .filter(|(_, postings)| !postings.is_empty())
    }

    /// tf-idf score contribution to `doc` of a term held by `df` documents
    /// that occurs `tf` times in it.
    pub fn tf_idf(&self, df: usize, doc: u64, tf: u32) -> f64 {
        let n = self.doc_count() as f64;
        let df = df as f64;
        if df == 0.0 || n == 0.0 {
            return 0.0;
        }
        let len = *self.doc_lengths.get(&doc).unwrap_or(&1) as f64;
        (tf as f64 / len.max(1.0)) * (1.0 + (n / df).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::FtQuery;

    fn sample() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add_document(1, "Parallel database systems run queries in parallel");
        ix.add_document(2, "Heterogeneous query processing in federated databases");
        ix.add_document(3, "The runner ran a marathon");
        ix
    }

    /// `(term, doc, positions)` of every posting, sorted.
    fn dump(ix: &InvertedIndex) -> Vec<(String, u64, Vec<u32>)> {
        let mut out: Vec<_> = ix
            .terms()
            .flat_map(|(t, p)| {
                p.iter()
                    .map(move |(d, pos)| (t.to_string(), d, pos.to_vec()))
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn lookup_is_stemmed_and_case_folded() {
        let ix = sample();
        // "queries" and "query" share a stem.
        let q = ix.lookup("Queries").unwrap();
        assert!(q.positions(1).is_some());
        assert!(q.positions(2).is_some());
        // "databases" stems to "database".
        assert_eq!(ix.lookup("database").unwrap().len(), 2);
        assert_eq!(
            ix.lookup("parallel").unwrap().positions(1),
            Some(&[0, 6][..])
        );
    }

    #[test]
    fn inflection_equivalence_run_ran_runner() {
        let ix = sample();
        let runs = ix.lookup("run").unwrap();
        assert!(runs.positions(1).is_some(), "'run' in doc 1");
        assert!(runs.positions(3).is_some(), "'runner' and 'ran' in doc 3");
        assert_eq!(runs.positions(3), Some(&[1, 2][..]));
    }

    #[test]
    fn phrase_requires_adjacency() {
        let phrase = |words: &[&str]| {
            FtQuery::Phrase(words.iter().map(|w| w.to_string()).collect())
                .evaluate(&sample())
                .unwrap()
        };
        let hits = phrase(&["parallel", "database"]);
        assert_eq!(hits.keys().collect::<Vec<_>>(), [&1]);
        assert!(
            phrase(&["database", "parallel"]).is_empty(),
            "reversed phrase must not match"
        );
        assert!(phrase(&["parallel", "missing"]).is_empty());
    }

    #[test]
    fn near_within_distance() {
        let near = |distance| {
            FtQuery::Near {
                left: "heterogeneous".into(),
                right: "processing".into(),
                distance,
            }
            .evaluate(&sample())
            .unwrap()
        };
        // "heterogeneous" and "processing" are 2 words apart in doc 2.
        assert!(near(2).contains_key(&2));
        assert!(near(1).is_empty());
    }

    #[test]
    fn remove_document_cleans_postings() {
        let mut ix = sample();
        ix.remove_document(1);
        assert_eq!(ix.doc_count(), 2);
        assert!(ix
            .lookup("parallel")
            .is_none_or(|p| p.positions(1).is_none()));
        // Re-adding replaces cleanly.
        ix.add_document(2, "entirely new words");
        assert!(ix
            .lookup("federated")
            .is_none_or(|p| p.positions(2).is_none()));
        assert!(ix.lookup("entirely").unwrap().positions(2).is_some());
    }

    #[test]
    fn edits_in_any_order_match_a_bulk_build() {
        let texts = [
            (7, "query the parallel query"),
            (2, "database systems"),
            (9, "parallel parallel database"),
            (4, "the runner ran"),
        ];
        let mut edited = InvertedIndex::new();
        for &(doc, text) in &texts {
            edited.add_document(doc, text);
        }
        edited.add_document(5, "doomed query text");
        edited.remove_document(5);
        edited.add_document(2, "database systems again");
        edited.add_document(2, "database systems");
        let built = InvertedIndex::build(texts.iter().copied());
        assert_eq!(dump(&edited), dump(&built));
        assert_eq!(edited.term_count(), built.term_count());
        assert_eq!(edited.doc_count(), 4);
        // A key given twice keeps its last text.
        let twice = InvertedIndex::build([(1, "old words"), (1, "new words")]);
        assert!(twice.lookup("old").is_none());
        assert_eq!(twice.doc_count(), 1);
    }

    #[test]
    fn tf_idf_prefers_rare_terms() {
        let ix = sample();
        let df = |t| ix.lookup(t).map_or(0, |p| p.len());
        let rare = ix.tf_idf(df("marathon"), 3, 1);
        let common = ix.tf_idf(df("database"), 1, 1);
        assert!(rare > common, "rare={rare} common={common}");
        assert_eq!(ix.tf_idf(df("missing"), 1, 1), 0.0);
    }
}
