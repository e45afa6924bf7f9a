//! The index against what it replaced and against a brute-force reading of
//! the documents (DESIGN.md §24).
//!
//! * Golden digests, recorded on the parent commit of the contiguous
//!   posting layout: every `(term, document, positions)` of the fedbench
//!   `docs_ft` corpus, and the `(key, rank)` lists of a fixed query set.
//! * A seeded mix of Word, Phrase, NEAR, AND, OR and NOT queries, each
//!   checked against a reference evaluator that scans every document's
//!   tokens: the same scores, bit for bit, and the same ranked lists.

use dhqp_fulltext::stemmer::stem;
use dhqp_fulltext::tokenizer::tokenize;
use dhqp_fulltext::{FtQuery, InvertedIndex, SearchService};
use dhqp_workload::docs::generate_documents;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// `generate_documents(n, seed)` as fedbench loads `docs`: raw text keyed by
/// position.
fn corpus(n: usize, seed: u64) -> Vec<(u64, String)> {
    generate_documents(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, d)| (i as u64, d.raw))
        .collect()
}

fn build(docs: &[(u64, String)]) -> InvertedIndex {
    InvertedIndex::build(docs.iter().map(|(k, t)| (*k, t.as_str())))
}

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn postings_match_the_golden_digest() {
    let ix = build(&corpus(2000, 29));
    let mut terms: Vec<_> = ix.terms().collect();
    terms.sort_by_key(|(term, _)| term.as_bytes());
    let mut digest = Digest::new();
    let (mut pairs, mut positions) = (0, 0);
    for (term, postings) in &terms {
        digest.eat(term.as_bytes());
        digest.eat(&[0]);
        for (doc, at) in postings.iter() {
            pairs += 1;
            positions += at.len();
            digest.eat(&doc.to_le_bytes());
            digest.eat(&(at.len() as u32).to_le_bytes());
            for p in at {
                digest.eat(&p.to_le_bytes());
            }
        }
    }
    assert_eq!((terms.len(), pairs, positions), (60, 54_187, 243_588));
    assert_eq!(digest.0, 0x9c7a_92db_6fc4_77d4);
    assert_eq!(ix.term_count(), 60);
    assert_eq!(ix.doc_count(), 2000);
}

/// fedbench's probe terms first, then phrases, NEAR, NOT and markup words.
const GOLDEN_QUERIES: &[&str] = &[
    "pasta",
    "latency",
    "compiler",
    "join",
    "garlic AND basil",
    "\"parallel database\"",
    "\"query optimization\" OR \"register allocation\"",
    "database NEAR query",
    "(join OR pasta) AND NOT garlic",
    "html",
    "notes",
    "the",
    "results show",
    "\"the approach\"",
    "network OR protocol OR routing",
    "queries",
    "systems AND NOT parallel",
    "simmer NEAR tomato",
    "running",
];

fn query_digest(svc: &SearchService, catalog: &str) -> u64 {
    let mut digest = Digest::new();
    for q in GOLDEN_QUERIES {
        digest.eat(q.as_bytes());
        for (key, rank) in svc.query_keys(catalog, q).unwrap() {
            digest.eat(&key.to_le_bytes());
            digest.eat(&rank.to_le_bytes());
        }
    }
    digest.0
}

#[test]
fn ranked_lists_match_the_golden_digest() {
    let docs = corpus(2000, 29);
    let svc = SearchService::new();
    svc.create_catalog("built").unwrap();
    svc.replace_index("built", build(&docs)).unwrap();
    assert_eq!(query_digest(&svc, "built"), 0x4dce_7663_0095_40db);
    // Row by row, as the service's maintenance API indexes: the same lists.
    svc.create_catalog("edited").unwrap();
    for (key, text) in &docs {
        svc.index_row("edited", *key, text).unwrap();
    }
    assert_eq!(query_digest(&svc, "edited"), 0x4dce_7663_0095_40db);
}

/// Every document as its stemmed words, in order (as word ids).
struct Reference {
    docs: Vec<(u64, Vec<u32>)>,
    ids: HashMap<String, u32>,
    /// Documents holding each word id.
    df: Vec<usize>,
}

impl Reference {
    fn new(docs: &[(u64, String)]) -> Self {
        let mut ids = HashMap::new();
        let mut docs: Vec<(u64, Vec<u32>)> = docs
            .iter()
            .map(|(k, text)| {
                let words = tokenize(text).into_iter().map(|t| {
                    let next = ids.len() as u32;
                    *ids.entry(stem(&t.term)).or_insert(next)
                });
                (*k, words.collect())
            })
            .collect();
        docs.sort_by_key(|(k, _)| *k);
        let mut df = vec![0; ids.len()];
        for (_, words) in &docs {
            let mut held = words.clone();
            held.sort_unstable();
            held.dedup();
            held.iter().for_each(|&w| df[w as usize] += 1);
        }
        Reference { docs, ids, df }
    }

    /// A query word's id; a word no document holds gets one no word has.
    fn id(&self, word: &str) -> u32 {
        let stemmed = stem(&word.to_lowercase());
        self.ids.get(&stemmed).copied().unwrap_or(u32::MAX)
    }

    fn df(&self, id: u32) -> usize {
        self.df.get(id as usize).copied().unwrap_or(0)
    }

    fn tf_idf(&self, df: usize, words: &[u32], tf: u32) -> f64 {
        let (n, df) = (self.docs.len() as f64, df as f64);
        if df == 0.0 || n == 0.0 {
            return 0.0;
        }
        (tf as f64 / (words.len() as f64).max(1.0)) * (1.0 + (n / df).ln())
    }

    fn eval(&self, q: &FtQuery) -> Option<BTreeMap<u64, f64>> {
        let mut out = BTreeMap::new();
        match q {
            FtQuery::Word(w) => {
                let t = self.id(w);
                for (doc, words) in &self.docs {
                    let tf = words.iter().filter(|&&x| x == t).count() as u32;
                    if tf > 0 {
                        out.insert(*doc, self.tf_idf(self.df(t), words, tf));
                    }
                }
            }
            FtQuery::Phrase(phrase) => {
                let ts: Vec<u32> = phrase.iter().map(|w| self.id(w)).collect();
                for (doc, words) in &self.docs {
                    let tf = words.windows(ts.len()).filter(|w| *w == &ts[..]).count() as u32;
                    if tf > 0 {
                        let score = ts
                            .iter()
                            .map(|&t| self.tf_idf(self.df(t), words, tf))
                            .fold(f64::INFINITY, f64::min);
                        out.insert(*doc, score * 1.5);
                    }
                }
            }
            FtQuery::Near {
                left,
                right,
                distance,
            } => {
                let (a, b) = (self.id(left), self.id(right));
                for (doc, words) in &self.docs {
                    let at = |t| {
                        (0u32..)
                            .zip(words)
                            .filter(move |&(_, &w)| w == t)
                            .map(|(i, _)| i)
                    };
                    let hits = at(a)
                        .filter(|&x| at(b).any(|y| x.abs_diff(y) <= *distance))
                        .count() as u32;
                    if hits > 0 {
                        let score = self.tf_idf(self.df(a), words, hits)
                            + self.tf_idf(self.df(b), words, hits);
                        out.insert(*doc, score);
                    }
                }
            }
            FtQuery::And(parts) => {
                let (negative, positive): (Vec<_>, Vec<_>) =
                    parts.iter().partition(|p| matches!(p, FtQuery::Not(_)));
                let (first, rest) = positive.split_first()?;
                out = self.eval(first)?;
                for p in rest {
                    let other = self.eval(p)?;
                    out = out
                        .into_iter()
                        .filter_map(|(doc, s)| other.get(&doc).map(|s2| (doc, s + s2)))
                        .collect();
                }
                for n in negative {
                    let FtQuery::Not(inner) = n else {
                        unreachable!()
                    };
                    let excluded = self.eval(inner)?;
                    out.retain(|doc, _| !excluded.contains_key(doc));
                }
            }
            FtQuery::Or(parts) => {
                for p in parts {
                    for (doc, s) in self.eval(p)? {
                        *out.entry(doc).or_insert(0.0) += s;
                    }
                }
            }
            FtQuery::Not(_) => return None,
        }
        Some(out)
    }
}

/// Words the corpus holds, inflected forms that stem onto them, and words
/// it does not hold. ("and" is a keyword in query text; phrases lifted from
/// the documents still carry it.)
const VOCABULARY: &[&str] = &[
    "parallel",
    "database",
    "databases",
    "systems",
    "query",
    "queries",
    "join",
    "joined",
    "index",
    "indices",
    "network",
    "latency",
    "routing",
    "compiler",
    "parser",
    "register",
    "optimization",
    "pasta",
    "garlic",
    "basil",
    "tomato",
    "the",
    "a",
    "of",
    "results",
    "show",
    "approach",
    "paper",
    "html",
    "notes",
    "zebra",
    "running",
];

fn word(rng: &mut StdRng) -> String {
    VOCABULARY[rng.gen_range(0..VOCABULARY.len())].to_string()
}

fn random_query(rng: &mut StdRng, docs: &[(u64, String)], depth: u32) -> FtQuery {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    match (leaf, rng.gen_range(0..3)) {
        (true, 0) => FtQuery::Word(word(rng)),
        (true, 1) => {
            // Mostly a run of words lifted from a document, so phrases hit.
            let len = rng.gen_range(2..4);
            if rng.gen_bool(0.7) {
                let (_, text) = &docs[rng.gen_range(0..docs.len())];
                let words = tokenize(text);
                let start = rng.gen_range(0..words.len() - len);
                FtQuery::Phrase(
                    words[start..start + len]
                        .iter()
                        .map(|t| t.term.clone())
                        .collect(),
                )
            } else {
                FtQuery::Phrase((0..len).map(|_| word(rng)).collect())
            }
        }
        (true, _) => FtQuery::Near {
            left: word(rng),
            right: word(rng),
            distance: rng.gen_range(1..9),
        },
        (false, 0 | 1) => {
            let mut parts: Vec<FtQuery> = (0..rng.gen_range(2..4))
                .map(|_| random_query(rng, docs, depth - 1))
                .collect();
            if rng.gen_bool(0.4) {
                parts.push(FtQuery::Not(Box::new(random_query(rng, docs, depth - 1))));
            }
            FtQuery::And(parts)
        }
        (false, _) => FtQuery::Or(
            (0..rng.gen_range(2..4))
                .map(|_| random_query(rng, docs, depth - 1))
                .collect(),
        ),
    }
}

/// The query as text the parser reads back (NEAR at the parser's distance).
fn render(q: &FtQuery) -> String {
    let join = |parts: &[FtQuery], op: &str| {
        let parts: Vec<String> = parts.iter().map(render).collect();
        format!("({})", parts.join(op))
    };
    match q {
        FtQuery::Word(w) => w.clone(),
        FtQuery::Phrase(words) => format!("\"{}\"", words.join(" ")),
        FtQuery::Near { left, right, .. } => format!("({left} NEAR {right})"),
        FtQuery::And(parts) => join(parts, " AND "),
        FtQuery::Or(parts) => join(parts, " OR "),
        FtQuery::Not(inner) => format!("NOT {}", render(inner)),
    }
}

/// The service's ranking: scaled to 0..=1000, descending, ties by key.
fn ranked(scores: &BTreeMap<u64, f64>) -> Vec<(u64, i64)> {
    let max = scores.values().cloned().fold(0.0f64, f64::max);
    let mut out: Vec<(u64, i64)> = scores
        .iter()
        .map(|(&doc, &s)| {
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
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

fn bits(scores: &Option<BTreeMap<u64, f64>>) -> Option<Vec<(u64, u64)>> {
    scores
        .as_ref()
        .map(|m| m.iter().map(|(d, s)| (*d, s.to_bits())).collect())
}

#[test]
fn a_seeded_query_mix_matches_a_brute_force_scan() {
    for seed in [3, 17] {
        let docs = corpus(400, seed);
        let reference = Reference::new(&docs);
        let ix = build(&docs);
        let svc = SearchService::new();
        svc.create_catalog("c").unwrap();
        svc.replace_index("c", build(&docs)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0;
        for _ in 0..100 {
            // The tree as generated: scores equal bit for bit.
            let q = random_query(&mut rng, &docs, 2);
            let got = q.evaluate(&ix).ok();
            assert_eq!(bits(&got), bits(&reference.eval(&q)), "seed {seed}: {q:?}");
            // The same query as text through the service: equal (key, rank)
            // lists.
            let text = render(&q);
            let want = reference.eval(&FtQuery::parse(&text).unwrap());
            match (svc.query_keys("c", &text), want) {
                (Ok(got), Some(want)) => {
                    hits += got.len();
                    assert_eq!(got, ranked(&want), "seed {seed}: {text}");
                }
                (Err(_), None) => {}
                (got, want) => panic!("seed {seed}: {text}: {got:?} vs {want:?}"),
            }
        }
        assert!(hits > 2000, "the mix must actually hit documents: {hits}");
    }
}
