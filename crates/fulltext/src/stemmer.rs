//! Inflection folding: a compact suffix stemmer plus an irregular-verb
//! table, sufficient for the paper's example — "'runner', 'run', and 'ran'
//! can all be equivalent in full-text searches".

/// Stem a lowercase term to its index form.
pub fn stem(term: &str) -> String {
    let mut out = String::new();
    stem_into(term, &mut out);
    out
}

/// [`stem`] into a reused buffer: `out` is cleared and receives the stem.
pub fn stem_into(term: &str, out: &mut String) {
    out.clear();
    // Irregular forms first.
    if let Some(base) = irregular(term) {
        out.push_str(base);
        return;
    }
    out.push_str(term);
    // Plural / verbal suffixes, longest first.
    for (suffix, replace) in [
        ("sses", "ss"),
        ("ies", "y"),
        ("ning", "n"),
        ("nning", "n"),
        ("ing", ""),
        ("ies", "y"),
        ("ied", "y"),
        ("ed", ""),
        ("ers", ""),
        ("er", ""),
        ("est", ""),
        ("s", ""),
    ] {
        if let Some(stripped) = out.strip_suffix(suffix) {
            // Never strip a word to fewer than 2 characters.
            if stripped.len() >= 2 {
                out.truncate(stripped.len());
                out.push_str(replace);
                break;
            }
        }
    }
    // Undouble trailing consonants introduced by -er/-ing/-ed stripping
    // (runner → runn → run, stopped → stopp → stop).
    let bytes = out.as_bytes();
    if bytes.len() >= 3 {
        let last = bytes[bytes.len() - 1];
        let prev = bytes[bytes.len() - 2];
        if last == prev && !matches!(last, b'a' | b'e' | b'i' | b'o' | b'u' | b's' | b'l') {
            out.pop();
        }
    }
}

/// Small irregular table covering common verbs in technical prose.
fn irregular(term: &str) -> Option<&'static str> {
    Some(match term {
        "ran" | "runs" | "running" | "run" => "run",
        "went" | "gone" | "goes" => "go",
        "wrote" | "written" | "writes" | "writing" => "write",
        "read" | "reads" | "reading" => "read",
        "found" | "finds" | "finding" => "find",
        "built" | "builds" | "building" => "build",
        "sent" | "sends" | "sending" => "send",
        "indices" => "index",
        "queries" | "queried" => "query",
        "databases" => "database",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_runner_run_ran() {
        assert_eq!(stem("runner"), "run");
        assert_eq!(stem("run"), "run");
        assert_eq!(stem("ran"), "run");
        assert_eq!(stem("running"), "run");
    }

    #[test]
    fn plurals() {
        assert_eq!(stem("systems"), "system");
        assert_eq!(stem("queries"), "query");
        assert_eq!(stem("classes"), "class");
        assert_eq!(stem("indices"), "index");
    }

    #[test]
    fn verb_forms() {
        assert_eq!(stem("joined"), "join");
        assert_eq!(stem("joining"), "join");
        assert_eq!(stem("stopped"), "stop");
        assert_eq!(stem("wrote"), "write");
    }

    #[test]
    fn short_words_survive() {
        assert_eq!(stem("as"), "as");
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("db"), "db");
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        for w in ["parallel", "database", "heterogeneous", "query", "server"] {
            let once = stem(w);
            assert_eq!(stem(&once), once, "{w}");
        }
    }
}
