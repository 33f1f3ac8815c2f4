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
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by the length of the common prefix.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars(&a, &b)
}

/// [`jaro_winkler`] over pre-split characters.
fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
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
/// (the Jaro-Winkler operand) and its sorted, de-duplicated
/// [`name_tokens`] (the Jaccard operand). Comparing two prepared names
/// allocates nothing, so an index can prepare each column name once.
#[derive(Debug, Clone)]
pub struct NameFeatures {
    lower: Vec<char>,
    tokens: Vec<String>,
}

impl NameFeatures {
    /// Prepare a name.
    pub fn new(name: &str) -> Self {
        let mut tokens = name_tokens(name);
        tokens.sort_unstable();
        tokens.dedup();
        Self {
            lower: name.to_lowercase().chars().collect(),
            tokens,
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
        let jw = jaro_winkler_chars(&self.lower, &other.lower);
        jaccard.max(jw * 0.9)
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
                let expected = reference::name_similarity(x, y).to_bits();
                proptest::prop_assert_eq!(name_similarity(x, y).to_bits(), expected);
                proptest::prop_assert_eq!(
                    NameFeatures::new(x).similarity(&NameFeatures::new(y)).to_bits(),
                    expected
                );
                proptest::prop_assert_eq!(jaro(x, y).to_bits(), reference::jaro(x, y).to_bits());
            }
        }
    }
}
