//! String-similarity measures used for metadata (name) matching.
//!
//! Column-name similarity is one of CMDL's unionability signals and the
//! entity-matching baselines use Jaro similarity for tuple matching; both are
//! implemented here from scratch.

/// Jaro similarity between two strings, in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b)
}

/// [`jaro`] over pre-split characters. Allocation-free for operands of up
/// to 64 characters (the match flags live on the stack), which covers
/// typical column and table names.
fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    const STACK: usize = 64;
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a.len() <= STACK && b.len() <= STACK {
        let (mut a_matches, mut b_matches) = ([false; STACK], [false; STACK]);
        jaro_flagged(a, b, &mut a_matches[..a.len()], &mut b_matches[..b.len()])
    } else {
        jaro_flagged(a, b, &mut vec![false; a.len()], &mut vec![false; b.len()])
    }
}

/// The Jaro kernel over non-empty operands, with caller-provided
/// all-`false` match-flag buffers of exactly the operands' lengths.
fn jaro_flagged(a: &[char], b: &[char], a_matches: &mut [bool], b_matches: &mut [bool]) -> f64 {
    let match_distance = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut matches = 0usize;
    for (i, ca) in a.iter().enumerate() {
        let start = i.saturating_sub(match_distance);
        let end = (i + match_distance + 1).min(b.len());
        for j in start..end {
            if !b_matches[j] && b[j] == *ca {
                a_matches[i] = true;
                b_matches[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let mut transpositions = 0usize;
    let mut k = 0usize;
    for (i, matched) in a_matches.iter().enumerate() {
        if *matched {
            while !b_matches[k] {
                k += 1;
            }
            if a[i] != b[k] {
                transpositions += 1;
            }
            k += 1;
        }
    }
    jaro_score(matches, transpositions, a.len(), b.len())
}

/// The Jaro formula from the match and transposition counts.
fn jaro_score(matches: usize, transpositions: usize, a_len: usize, b_len: usize) -> f64 {
    let m = matches as f64;
    (m / a_len as f64 + m / b_len as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by the length of the common prefix.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    winkler(jaro_chars(&a, &b), &a, &b)
}

/// Boost the Jaro similarity `j` of `a` and `b` by their common prefix.
fn winkler(j: f64, a: &[char], b: &[char]) -> f64 {
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Normalized Levenshtein similarity: `1 - distance / max_len`, in `[0, 1]`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let dist = prev[b.len()] as f64;
    1.0 - dist / a.len().max(b.len()) as f64
}

/// Token-level name similarity used for column/table names: splits names on
/// `_`, `-`, whitespace, and case boundaries, then combines the Jaccard
/// similarity of the token sets with the Jaro-Winkler similarity of the raw
/// strings. One-off form of [`NameFeatures::similarity`]; callers comparing
/// one name against many should prepare [`NameFeatures`] once per name.
pub fn name_similarity(a: &str, b: &str) -> f64 {
    NameFeatures::new(a).similarity(&NameFeatures::new(b))
}

/// A name prepared for [`name_similarity`]: its lower-cased characters
/// (the Jaro-Winkler operand), their position masks (the bit-parallel
/// Jaro operand) and its sorted, de-duplicated [`name_tokens`] (the
/// Jaccard operand). Comparing two prepared names allocates nothing, so an
/// index can prepare each distinct name once.
#[derive(Debug, Clone)]
pub struct NameFeatures {
    lower: Vec<char>,
    tokens: Vec<String>,
    /// The distinct characters of `lower`, ascending, each with the bit
    /// mask of its positions. Empty when `lower` is longer than
    /// [`MASK_BITS`]; such names take [`jaro_chars`].
    alphabet: Vec<(char, u64)>,
    /// Per position of `lower`, the index of its character in `alphabet`
    /// (empty with `alphabet`).
    ranks: Vec<u8>,
}

/// Longest operand of the bit-parallel Jaro kernel: one bit per position.
const MASK_BITS: usize = 64;

impl NameFeatures {
    /// Prepare a name.
    pub fn new(name: &str) -> Self {
        let mut tokens = name_tokens(name);
        tokens.sort_unstable();
        tokens.dedup();
        let lower: Vec<char> = name.to_lowercase().chars().collect();
        let (mut alphabet, mut ranks) = (Vec::new(), Vec::new());
        if lower.len() <= MASK_BITS {
            let mut chars = lower.clone();
            chars.sort_unstable();
            chars.dedup();
            alphabet = chars.into_iter().map(|c| (c, 0u64)).collect();
            for (i, c) in lower.iter().enumerate() {
                let rank = alphabet
                    .binary_search_by(|(a, _)| a.cmp(c))
                    .expect("every character is in the alphabet");
                alphabet[rank].1 |= 1 << i;
                ranks.push(rank as u8);
            }
        }
        Self {
            lower,
            tokens,
            alphabet,
            ranks,
        }
    }

    /// The name similarity of the two prepared names — bit-identical to
    /// [`name_similarity`] of the original strings.
    pub fn similarity(&self, other: &NameFeatures) -> f64 {
        let jaccard = if self.tokens.is_empty() || other.tokens.is_empty() {
            0.0
        } else {
            let inter = sorted_intersection_len(&self.tokens, &other.tokens) as f64;
            let union = (self.tokens.len() + other.tokens.len()) as f64 - inter;
            inter / union
        };
        let (a, b) = (&self.lower, &other.lower);
        let j = if a.is_empty() || b.is_empty() || a.len() > MASK_BITS || b.len() > MASK_BITS {
            jaro_chars(a, b)
        } else {
            self.jaro_masked(other)
        };
        let jw = winkler(j, a, b);
        jaccard.max(jw * 0.9)
    }

    /// [`jaro_flagged`] over position masks, for non-empty operands of at
    /// most [`MASK_BITS`] characters. Each character of `self` takes the
    /// lowest unmatched position of its character in `other` inside the
    /// match window — the same first-unmatched position the scalar scan
    /// picks, so the result is bit-identical.
    fn jaro_masked(&self, other: &NameFeatures) -> f64 {
        let (a_len, b_len) = (self.lower.len(), other.lower.len());
        // Per character of `self`'s alphabet, its positions in `other`.
        let mut in_other = [0u64; MASK_BITS];
        let mut theirs = other.alphabet.iter().peekable();
        for (rank, &(c, _)) in self.alphabet.iter().enumerate() {
            while theirs.next_if(|&&(o, _)| o < c).is_some() {}
            if let Some(&&(o, mask)) = theirs.peek() {
                if o == c {
                    in_other[rank] = mask;
                }
            }
        }
        let match_distance = (a_len.max(b_len) / 2).saturating_sub(1);
        let (mut a_matched, mut b_matched, mut matches) = (0u64, 0u64, 0usize);
        for (i, &rank) in self.ranks.iter().enumerate() {
            // The window is positions `start..end` of `other`. Both shifts
            // stay in 0..64 (`start <= i < 64`, `1 <= end <= 64`), so the
            // masks need no branch.
            let start = i.saturating_sub(match_distance);
            let end = (i + match_distance + 1).min(b_len);
            let window = (u64::MAX >> (MASK_BITS - end)) & (u64::MAX << start);
            let open = in_other[rank as usize] & window & !b_matched;
            let first = open & open.wrapping_neg();
            let hit = u64::from(first != 0);
            b_matched |= first;
            a_matched |= hit << i;
            matches += hit as usize;
        }
        if matches == 0 {
            return 0.0;
        }
        let mut transpositions = 0usize;
        while a_matched != 0 {
            let (i, k) = (a_matched.trailing_zeros(), b_matched.trailing_zeros());
            if self.lower[i as usize] != other.lower[k as usize] {
                transpositions += 1;
            }
            a_matched &= a_matched - 1;
            b_matched &= b_matched - 1;
        }
        jaro_score(matches, transpositions, a_len, b_len)
    }
}

/// Size of the intersection of two sorted, de-duplicated slices.
fn sorted_intersection_len(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Split a column/table name into lowercase tokens on delimiters and case
/// boundaries.
pub fn name_tokens(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut prev_lower = false;
    for ch in name.chars() {
        if ch == '_' || ch == '-' || ch == ' ' || ch == '.' {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            prev_lower = false;
        } else {
            if ch.is_uppercase() && prev_lower && !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            current.extend(ch.to_lowercase());
            prev_lower = ch.is_lowercase() || ch.is_ascii_digit();
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaro_basics() {
        assert!((jaro("drug", "drug") - 1.0).abs() < 1e-12);
        assert_eq!(jaro("", "abc"), 0.0);
        assert!((jaro("", "") - 1.0).abs() < 1e-12);
        assert!(jaro("martha", "marhta") > 0.9);
        assert!(jaro("drug", "enzyme") < 0.5);
    }

    #[test]
    fn jaro_winkler_boosts_prefix() {
        let j = jaro("drugbank", "drugbase");
        let jw = jaro_winkler("drugbank", "drugbase");
        assert!(jw >= j);
        assert!(jw <= 1.0);
    }

    #[test]
    fn levenshtein_similarity_basics() {
        assert!((levenshtein_similarity("kitten", "kitten") - 1.0).abs() < 1e-12);
        assert!((levenshtein_similarity("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-9);
        assert!((levenshtein_similarity("", "") - 1.0).abs() < 1e-12);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn name_tokens_split_cases() {
        assert_eq!(name_tokens("Drug_Key"), vec!["drug", "key"]);
        assert_eq!(name_tokens("regionCode"), vec!["region", "code"]);
        assert_eq!(name_tokens("drug-name id"), vec!["drug", "name", "id"]);
    }

    #[test]
    fn jaro_over_long_names_matches_the_stack_path_semantics() {
        // Past 64 characters the match flags move to the heap; the result
        // must not depend on which buffer the kernel ran on.
        let long_a = "drug_key_".repeat(10);
        let long_b = "drug_kez_".repeat(10);
        assert_eq!(
            jaro(&long_a, &long_b).to_bits(),
            reference::jaro(&long_a, &long_b).to_bits()
        );
    }

    #[test]
    fn name_similarity_matches_related_names() {
        assert!(name_similarity("Drug_Key", "drug_key") > 0.9);
        assert!(name_similarity("Drug_Key", "DrugId") > 0.3);
        assert!(
            name_similarity("Drug_Key", "region_code") < name_similarity("Drug_Key", "drug_id")
        );
    }

    /// The pre-`NameFeatures` implementation, kept verbatim as the
    /// bit-for-bit reference.
    mod reference {
        use super::name_tokens;

        pub fn jaro(a: &str, b: &str) -> f64 {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            if a.is_empty() && b.is_empty() {
                return 1.0;
            }
            if a.is_empty() || b.is_empty() {
                return 0.0;
            }
            let match_distance = (a.len().max(b.len()) / 2).saturating_sub(1);
            let mut a_matches = vec![false; a.len()];
            let mut b_matches = vec![false; b.len()];
            let mut matches = 0usize;
            for (i, ca) in a.iter().enumerate() {
                let start = i.saturating_sub(match_distance);
                let end = (i + match_distance + 1).min(b.len());
                for j in start..end {
                    if !b_matches[j] && b[j] == *ca {
                        a_matches[i] = true;
                        b_matches[j] = true;
                        matches += 1;
                        break;
                    }
                }
            }
            if matches == 0 {
                return 0.0;
            }
            let mut transpositions = 0usize;
            let mut k = 0usize;
            for (i, matched) in a_matches.iter().enumerate() {
                if *matched {
                    while !b_matches[k] {
                        k += 1;
                    }
                    if a[i] != b[k] {
                        transpositions += 1;
                    }
                    k += 1;
                }
            }
            let m = matches as f64;
            (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
        }

        fn jaro_winkler(a: &str, b: &str) -> f64 {
            let j = jaro(a, b);
            let prefix = a
                .chars()
                .zip(b.chars())
                .take(4)
                .take_while(|(x, y)| x == y)
                .count() as f64;
            j + prefix * 0.1 * (1.0 - j)
        }

        pub fn name_similarity(a: &str, b: &str) -> f64 {
            let ta = name_tokens(a);
            let tb = name_tokens(b);
            let jaccard = if ta.is_empty() || tb.is_empty() {
                0.0
            } else {
                let sa: std::collections::HashSet<&String> = ta.iter().collect();
                let sb: std::collections::HashSet<&String> = tb.iter().collect();
                let inter = sa.intersection(&sb).count() as f64;
                let union = (sa.len() + sb.len()) as f64 - inter;
                inter / union
            };
            let jw = jaro_winkler(&a.to_lowercase(), &b.to_lowercase());
            jaccard.max(jw * 0.9)
        }
    }

    /// Names mixing arbitrary scalar values with the characters that
    /// stress the feature split: delimiters, case boundaries, repeated
    /// tokens, and letters whose lower case has a different length
    /// (`'İ'` → `"i̇"`) or that only lower-case one way (`'ẞ'` → `'ß'`,
    /// final `'Σ'` → `'ς'`).
    fn arbitrary_name(picks: &[u32]) -> String {
        const SPECIAL: [char; 14] = [
            'İ', 'ẞ', 'Σ', 'ς', 'ß', '_', '-', '.', ' ', 'A', 'a', 'K', 'k', '7',
        ];
        picks
            .iter()
            .map(|&p| match p % 4 {
                0 => char::from_u32(p / 4).unwrap_or('\u{FFFD}'),
                _ => SPECIAL[(p as usize / 4) % SPECIAL.len()],
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        #[test]
        fn name_features_match_the_reference_bit_for_bit(
            a in proptest::prelude::prop::collection::vec(0u32..0x44_0000, 0..20),
            b in proptest::prelude::prop::collection::vec(0u32..0x44_0000, 0..20),
            words in proptest::prelude::prop::collection::vec("[a-cA-C_İẞ]{0,6}", 2..3),
        ) {
            let pairs = [
                (arbitrary_name(&a), arbitrary_name(&b)),
                (words[0].clone(), words[1].clone()),
                (arbitrary_name(&a), words[0].clone()),
            ];
            for (x, y) in &pairs {
                assert_matches_reference(x, y)?;
            }
        }

        /// The bit-parallel kernel takes operands of up to 64 lower-cased
        /// characters; longer ones take the scalar scan. Both sides of that
        /// boundary, and runs of one character (where the match window and
        /// the first-unmatched choice decide the count), must match the
        /// reference.
        #[test]
        fn name_features_match_the_reference_across_the_mask_width(
            a in proptest::prelude::prop::collection::vec(0u32..0x44_0000, 56..73),
            b in proptest::prelude::prop::collection::vec(0u32..0x44_0000, 56..73),
            short in proptest::prelude::prop::collection::vec(0u32..0x44_0000, 1..65),
            long in proptest::prelude::prop::collection::vec(0u32..0x44_0000, 65..90),
            run in 0usize..5,
            run_a in 1usize..80,
            run_b in 1usize..80,
            at in 0usize..80,
        ) {
            let run = ['a', 'A', '_', 'İ', 'ß'][run];
            let odd_one_out: String = std::iter::repeat_n(run, run_b)
                .enumerate()
                .map(|(i, c)| if i == at % run_b { 'b' } else { c })
                .collect();
            let pairs = [
                (arbitrary_name(&a), arbitrary_name(&b)),
                (arbitrary_name(&short), arbitrary_name(&long)),
                (arbitrary_name(&long), arbitrary_name(&short)),
                (run.to_string().repeat(run_a), run.to_string().repeat(run_b)),
                (run.to_string().repeat(run_a), odd_one_out),
            ];
            for (x, y) in &pairs {
                assert_matches_reference(x, y)?;
            }
        }
    }

    /// `name_similarity`, `NameFeatures::similarity` and `jaro` of `x` and
    /// `y` equal the reference's, bit for bit.
    fn assert_matches_reference(x: &str, y: &str) -> Result<(), proptest::prelude::TestCaseError> {
        let expected = reference::name_similarity(x, y).to_bits();
        proptest::prop_assert_eq!(name_similarity(x, y).to_bits(), expected);
        proptest::prop_assert_eq!(
            NameFeatures::new(x)
                .similarity(&NameFeatures::new(y))
                .to_bits(),
            expected
        );
        proptest::prop_assert_eq!(jaro(x, y).to_bits(), reference::jaro(x, y).to_bits());
        Ok(())
    }
}
