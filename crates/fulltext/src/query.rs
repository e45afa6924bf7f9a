//! The full-text query language: the Index Server dialect of Table 1.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! expr    := or
//! or      := and (OR and)*
//! and     := unary ((AND)? unary)*        -- adjacency is implicit AND
//! unary   := NOT unary | primary
//! primary := "phrase words" | word NEAR word | word | ( expr )
//! ```

use crate::index::{InvertedIndex, Postings};
use dhqp_types::{DhqpError, Result};
use std::collections::BTreeMap;

/// Parsed full-text query.
#[derive(Debug, Clone, PartialEq)]
pub enum FtQuery {
    Word(String),
    Phrase(Vec<String>),
    Near {
        left: String,
        right: String,
        distance: u32,
    },
    And(Vec<FtQuery>),
    Or(Vec<FtQuery>),
    Not(Box<FtQuery>),
}

impl FtQuery {
    /// Parse query text.
    pub fn parse(text: &str) -> Result<FtQuery> {
        let tokens = lex(text)?;
        let mut p = QParser { tokens, pos: 0 };
        let q = p.parse_or()?;
        if p.pos != p.tokens.len() {
            return Err(DhqpError::Parse(format!(
                "unexpected trailing token in full-text query: {:?}",
                p.tokens[p.pos]
            )));
        }
        Ok(q)
    }

    /// Evaluate against an index, producing `doc → rank` (descending rank
    /// is the provider's job). A bare NOT is rejected: negation only
    /// restricts a positive query. Each term's postings are looked up once
    /// per node.
    pub fn evaluate(&self, index: &InvertedIndex) -> Result<BTreeMap<u64, f64>> {
        match self {
            FtQuery::Word(w) => {
                let Some(postings) = index.lookup(w) else {
                    return Ok(BTreeMap::new());
                };
                let df = postings.len();
                Ok(postings
                    .iter()
                    .map(|(doc, positions)| (doc, index.tf_idf(df, doc, positions.len() as u32)))
                    .collect())
            }
            FtQuery::Phrase(words) => {
                let mut out = BTreeMap::new();
                let Some(postings) = words
                    .iter()
                    .map(|w| index.lookup(w))
                    .collect::<Option<Vec<Postings>>>()
                else {
                    return Ok(out);
                };
                let Some((first, rest)) = postings.split_first() else {
                    return Ok(out);
                };
                // The later words' positions in the document at hand.
                let mut later: Vec<&[u32]> = Vec::with_capacity(rest.len());
                'docs: for (doc, starts) in first.iter() {
                    later.clear();
                    for p in rest {
                        let Some(positions) = p.positions(doc) else {
                            continue 'docs;
                        };
                        later.push(positions);
                    }
                    let tf = starts
                        .iter()
                        .filter(|&&start| {
                            (1..).zip(&later).all(|(offset, positions)| {
                                positions.binary_search(&(start + offset)).is_ok()
                            })
                        })
                        .count() as u32;
                    if tf == 0 {
                        continue;
                    }
                    // Score a phrase by its rarest word, scaled by hits.
                    let score = postings
                        .iter()
                        .map(|p| index.tf_idf(p.len(), doc, tf))
                        .fold(f64::INFINITY, f64::min);
                    out.insert(doc, if score.is_finite() { score * 1.5 } else { 0.0 });
                }
                Ok(out)
            }
            FtQuery::Near {
                left,
                right,
                distance,
            } => {
                let mut out = BTreeMap::new();
                let (Some(a), Some(b)) = (index.lookup(left), index.lookup(right)) else {
                    return Ok(out);
                };
                for (doc, pos_a) in a.iter() {
                    let Some(pos_b) = b.positions(doc) else {
                        continue;
                    };
                    let hits = pos_a
                        .iter()
                        .filter(|&&x| within(pos_b, x, *distance))
                        .count() as u32;
                    if hits > 0 {
                        let score =
                            index.tf_idf(a.len(), doc, hits) + index.tf_idf(b.len(), doc, hits);
                        out.insert(doc, score);
                    }
                }
                Ok(out)
            }
            FtQuery::And(parts) => {
                let mut positives: Vec<BTreeMap<u64, f64>> = Vec::new();
                let mut negatives: Vec<BTreeMap<u64, f64>> = Vec::new();
                for part in parts {
                    match part {
                        FtQuery::Not(inner) => negatives.push(inner.evaluate(index)?),
                        other => positives.push(other.evaluate(index)?),
                    }
                }
                if positives.is_empty() {
                    return Err(DhqpError::Parse(
                        "full-text query must contain at least one positive term".into(),
                    ));
                }
                let mut acc = positives.remove(0);
                for p in positives {
                    acc = acc
                        .into_iter()
                        .filter_map(|(doc, s)| p.get(&doc).map(|s2| (doc, s + s2)))
                        .collect();
                }
                for n in negatives {
                    acc.retain(|doc, _| !n.contains_key(doc));
                }
                Ok(acc)
            }
            FtQuery::Or(parts) => {
                let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
                for part in parts {
                    for (doc, s) in part.evaluate(index)? {
                        *acc.entry(doc).or_insert(0.0) += s;
                    }
                }
                Ok(acc)
            }
            FtQuery::Not(_) => Err(DhqpError::Parse(
                "full-text NOT must be combined with a positive term".into(),
            )),
        }
    }
}

/// Whether some position in `sorted` is within `distance` words of `x`.
fn within(sorted: &[u32], x: u32, distance: u32) -> bool {
    let first_near = sorted.partition_point(|&y| y.saturating_add(distance) < x);
    sorted
        .get(first_near)
        .is_some_and(|&y| y <= x.saturating_add(distance))
}

#[derive(Debug, Clone, PartialEq)]
enum QToken {
    Word(String),
    Phrase(Vec<String>),
    And,
    Or,
    Not,
    Near,
    LParen,
    RParen,
}

fn lex(text: &str) -> Result<Vec<QToken>> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '(' {
            chars.next();
            out.push(QToken::LParen);
        } else if c == ')' {
            chars.next();
            out.push(QToken::RParen);
        } else if c == '"' {
            chars.next();
            let mut phrase = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some(ch) => phrase.push(ch),
                    None => {
                        return Err(DhqpError::Parse(
                            "unterminated phrase in full-text query".into(),
                        ))
                    }
                }
            }
            let words: Vec<String> = crate::tokenizer::tokenize(&phrase)
                .into_iter()
                .map(|t| t.term)
                .collect();
            if words.is_empty() {
                return Err(DhqpError::Parse("empty phrase in full-text query".into()));
            }
            out.push(QToken::Phrase(words));
        } else if c.is_alphanumeric() {
            let mut word = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_alphanumeric() || ch == '\'' {
                    word.push(ch);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(match word.to_ascii_uppercase().as_str() {
                "AND" => QToken::And,
                "OR" => QToken::Or,
                "NOT" => QToken::Not,
                "NEAR" => QToken::Near,
                _ => QToken::Word(word.to_lowercase()),
            });
        } else {
            return Err(DhqpError::Parse(format!(
                "unexpected character '{c}' in full-text query"
            )));
        }
    }
    Ok(out)
}

struct QParser {
    tokens: Vec<QToken>,
    pos: usize,
}

impl QParser {
    fn peek(&self) -> Option<&QToken> {
        self.tokens.get(self.pos)
    }

    fn parse_or(&mut self) -> Result<FtQuery> {
        let mut parts = vec![self.parse_and()?];
        while self.peek() == Some(&QToken::Or) {
            self.pos += 1;
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            FtQuery::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<FtQuery> {
        let mut parts = vec![self.parse_unary()?];
        loop {
            match self.peek() {
                Some(&QToken::And) => {
                    self.pos += 1;
                    parts.push(self.parse_unary()?);
                }
                // Implicit AND between adjacent terms.
                Some(&QToken::Word(_))
                | Some(&QToken::Phrase(_))
                | Some(&QToken::Not)
                | Some(&QToken::LParen) => {
                    parts.push(self.parse_unary()?);
                }
                _ => break,
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            FtQuery::And(parts)
        })
    }

    fn parse_unary(&mut self) -> Result<FtQuery> {
        if self.peek() == Some(&QToken::Not) {
            self.pos += 1;
            return Ok(FtQuery::Not(Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<FtQuery> {
        match self.tokens.get(self.pos).cloned() {
            Some(QToken::Word(w)) => {
                self.pos += 1;
                if self.peek() == Some(&QToken::Near) {
                    self.pos += 1;
                    let Some(QToken::Word(right)) = self.tokens.get(self.pos).cloned() else {
                        return Err(DhqpError::Parse("NEAR requires a word on each side".into()));
                    };
                    self.pos += 1;
                    return Ok(FtQuery::Near {
                        left: w,
                        right,
                        distance: 8,
                    });
                }
                Ok(FtQuery::Word(w))
            }
            Some(QToken::Phrase(words)) => {
                self.pos += 1;
                Ok(FtQuery::Phrase(words))
            }
            Some(QToken::LParen) => {
                self.pos += 1;
                let inner = self.parse_or()?;
                if self.tokens.get(self.pos) != Some(&QToken::RParen) {
                    return Err(DhqpError::Parse("missing ')' in full-text query".into()));
                }
                self.pos += 1;
                Ok(inner)
            }
            other => Err(DhqpError::Parse(format!(
                "expected word, phrase or '(' in full-text query, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add_document(1, "Parallel database systems and query processing");
        ix.add_document(2, "Heterogeneous query processing in federated systems");
        ix.add_document(3, "Cooking recipes for pasta");
        ix
    }

    #[test]
    fn paper_query_phrase_or_phrase() {
        // The §2.2 example: "Parallel database" OR "heterogeneous query".
        let q = FtQuery::parse("\"Parallel database\" OR \"heterogeneous query\"").unwrap();
        let hits = q.evaluate(&index()).unwrap();
        assert!(hits.contains_key(&1));
        assert!(hits.contains_key(&2));
        assert!(!hits.contains_key(&3));
    }

    #[test]
    fn implicit_and() {
        let q = FtQuery::parse("query processing").unwrap();
        assert!(matches!(q, FtQuery::And(_)));
        let hits = q.evaluate(&index()).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn not_restricts() {
        let q = FtQuery::parse("query AND NOT federated").unwrap();
        let hits = q.evaluate(&index()).unwrap();
        assert!(hits.contains_key(&1));
        assert!(!hits.contains_key(&2));
        // Bare NOT is invalid.
        assert!(FtQuery::parse("NOT pasta")
            .unwrap()
            .evaluate(&index())
            .is_err());
    }

    #[test]
    fn near_and_parens() {
        let q = FtQuery::parse("(query NEAR processing) OR pasta").unwrap();
        let hits = q.evaluate(&index()).unwrap();
        assert!(hits.contains_key(&1));
        assert!(hits.contains_key(&2));
        assert!(hits.contains_key(&3));
    }

    #[test]
    fn ranking_orders_by_relevance() {
        let mut ix = InvertedIndex::new();
        ix.add_document(1, "database database database and more");
        ix.add_document(
            2,
            "a database appears once in this long text about many things",
        );
        let q = FtQuery::parse("database").unwrap();
        let hits = q.evaluate(&ix).unwrap();
        assert!(hits[&1] > hits[&2]);
    }

    #[test]
    fn parse_errors() {
        assert!(FtQuery::parse("\"unterminated").is_err());
        assert!(FtQuery::parse("()").is_err());
        assert!(FtQuery::parse("a OR").is_err());
        assert!(FtQuery::parse("a NEAR \"phrase\"").is_err());
        assert!(FtQuery::parse("\"\"").is_err());
    }
}
