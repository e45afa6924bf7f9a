//! Word breaking: text → (term, position) pairs.

/// A token with its word position in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub term: String,
    pub position: u32,
}

/// Split text into lowercase alphanumeric words. Positions count words, so
/// proximity queries reason in word distances.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |term, position| {
        out.push(Token {
            term: term.to_string(),
            position,
        })
    });
    out
}

/// [`tokenize`] without a `String` per word: each word is written into `buf`
/// (reused across words and across calls) and handed to `f` with its
/// position.
pub fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str, u32)) {
    buf.clear();
    let mut position = 0u32;
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '\'' {
            buf.push(c.to_ascii_lowercase());
        } else if !c.is_ascii() && c.is_alphanumeric() {
            buf.extend(c.to_lowercase());
        } else if !buf.is_empty() {
            f(strip_apostrophes(buf), position);
            position += 1;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(strip_apostrophes(buf), position);
        buf.clear();
    }
}

/// Drop possessive apostrophes (`server's` → `servers` would be wrong; we
/// strip the suffix instead: `server's` → `server`), in place.
fn strip_apostrophes(word: &mut String) -> &str {
    if !word.contains('\'') {
        return word;
    }
    let start = word.len() - word.trim_start_matches('\'').len();
    let end = word.trim_end_matches('\'').len();
    if start >= end {
        word.clear();
        return word;
    }
    word.truncate(end);
    word.drain(..start);
    if word.ends_with("'s") {
        word.truncate(word.len() - 2);
    } else {
        word.retain(|c| c != '\'');
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(text: &str) -> Vec<String> {
        tokenize(text).into_iter().map(|t| t.term).collect()
    }

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(
            terms("Parallel Database Systems!"),
            vec!["parallel", "database", "systems"]
        );
    }

    #[test]
    fn positions_are_word_offsets() {
        let toks = tokenize("a b  c");
        assert_eq!(toks[2].position, 2);
    }

    #[test]
    fn numbers_and_mixed() {
        assert_eq!(
            terms("SQL Server 2000, v2.0"),
            vec!["sql", "server", "2000", "v2", "0"]
        );
    }

    #[test]
    fn possessives_fold() {
        assert_eq!(terms("the server's log"), vec!["the", "server", "log"]);
    }

    #[test]
    fn apostrophes_trim_and_drop() {
        // Only a final 's is a possessive; other apostrophes go, and a word
        // of apostrophes alone is still a (blank) word.
        assert_eq!(
            terms("'quoted' o'neil's rock'n'roll ''"),
            vec!["quoted", "o'neil", "rocknroll", ""]
        );
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(terms("").is_empty());
        assert!(terms("... --- !!!").is_empty());
    }
}
