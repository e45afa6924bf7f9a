//! Stable 64-bit hashing: plan and query identity, shipped-predicate
//! fingerprints, fault-plan link seeds and the member-schema stamp.
//!
//! The query store keys history by *fingerprint template* (what the plan
//! cache parameterizes on) and by *plan shape* (the pre-order operator
//! description of a physical plan); [`crate::schema_stamp`] travels between
//! a head and its partitioned-view members. All of them need a hash that is
//! stable across processes — `std::collections::hash_map::DefaultHasher` is
//! randomly seeded per process, so DMV rows would never be comparable
//! between runs and two engines would never agree on a stamp. FNV-1a is
//! tiny, has no dependencies, and is the classic choice for short
//! structured strings. It lives in this crate because every layer that
//! hashes (SQL front end, executor, network simulator, providers) already
//! depends on it.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher. Feed byte slices (or whole lines) in order;
/// identical input sequences produce identical hashes in every process.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }
}

impl Fnv1a {
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one logical line: the text plus a separator byte, so that
    /// `["ab", "c"]` and `["a", "bc"]` hash differently.
    pub fn write_line(&mut self, line: &str) {
        self.write(line.as_bytes());
        self.write(&[0x0a]);
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hash a single string.
pub fn fnv1a_64(text: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Hash an ordered sequence of lines (e.g. a pre-order plan rendering).
pub fn hash_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv1a::new();
    for line in lines {
        h.write_line(line);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        // Well-known vector: "a" → 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn agrees_with_the_inlined_folds_it_replaced() {
        // The executor's predicate fingerprint and the fault plan's link
        // seed used to fold FNV-1a by hand; same constants, same outputs.
        for text in ["", "member1", "wan1", "WHERE [c3] IN (1, 2)"] {
            let folded = text.bytes().fold(0xcbf29ce484222325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100000001b3)
            });
            assert_eq!(fnv1a_64(text), folded, "{text:?}");
        }
    }

    #[test]
    fn line_boundaries_matter() {
        assert_ne!(hash_lines(["ab", "c"]), hash_lines(["a", "bc"]));
        assert_eq!(hash_lines(["ab", "c"]), hash_lines(["ab", "c"]));
    }

    #[test]
    fn stable_across_hashers() {
        let mut h = Fnv1a::new();
        h.write(b"SELECT 1");
        assert_eq!(h.finish(), fnv1a_64("SELECT 1"));
    }
}
