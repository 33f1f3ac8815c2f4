//! The seeded benchmark lake and the relations planted in it.
//!
//! Shape (all counts in [`LakeSizes`]):
//!
//! * **families** of tables sharing one 8-column schema — an id, a
//!   reference id, an entity-name column, a category, three numeric measures
//!   and a date — so siblings are *unionable*;
//! * every family owns an **id domain**. Member 0 is the family's dimension
//!   table (unique ids, key-like); the other members draw their ids from it
//!   with replacement, and every table's reference column draws from
//!   *another* family's dimension — planted containment 1.0, the *joinable*
//!   and PK-FK truth;
//! * **documents** over a Zipf-skewed vocabulary, each linked to 1–3 tables
//!   whose entity names it mentions — the *cross-modal* truth.
//!
//! Every table and document is generated from its own forked stream, so the
//! ingest workload can ask for "table 7 of family 3" or "document 31 007"
//! long after the lake was built and get the element the same seed always
//! gives.

use std::collections::HashSet;

use cmdl_datalake::{Column, DataLake, Document, Table};

use crate::rng::{Rng, Zipf};

/// The size knobs of the generated lake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LakeSizes {
    /// Unionable families.
    pub families: usize,
    /// Tables per family (member 0 is the dimension table).
    pub members: usize,
    /// Rows per table.
    pub rows: usize,
    /// Documents.
    pub documents: usize,
    /// General (non-entity) vocabulary size.
    pub vocabulary: usize,
    /// General-vocabulary words per document.
    pub doc_words: usize,
}

impl LakeSizes {
    /// Tables in the lake.
    pub fn tables(&self) -> usize {
        self.families * self.members
    }
}

/// Entity names each document quotes from every table it is linked to.
const MENTIONS_PER_LINK: usize = 10;
/// Columns per table (fixed by the schema below).
pub const COLUMNS_PER_TABLE: usize = 8;

/// What the generator planted, by name — the verification pass checks that
/// discovery finds it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Truth {
    /// `(table, partner)`: every value of `table`'s reference column occurs
    /// in `partner`'s id column.
    pub join: Vec<(String, String)>,
    /// `(table, siblings)`: the other members of the table's family.
    pub union: Vec<(String, Vec<String>)>,
    /// Per document index: the tables it is linked to.
    pub doc_tables: Vec<Vec<String>>,
}

/// What the workload generators need to know about one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Family index.
    pub family: usize,
    /// Name of the id column.
    pub id_column: String,
    /// Name of the reference column.
    pub ref_column: String,
    /// Name of the entity-name column.
    pub name_column: String,
    /// The entity names in the table, in row order.
    pub entities: Vec<String>,
}

/// A generated lake with its planted truth.
#[derive(Debug)]
pub struct SynthLake {
    /// The lake itself.
    pub lake: DataLake,
    /// The planted relations.
    pub truth: Truth,
    /// Per-table generator facts, in lake order.
    pub tables: Vec<TableInfo>,
    /// Per document index: the entity names it quotes.
    pub doc_mentions: Vec<Vec<String>>,
    /// The generator, for elements ingested later.
    pub generator: Generator,
}

struct Family {
    code: String,
    entities: Vec<String>,
    categories: Vec<String>,
    numeric_base: f64,
}

/// The lake generator: vocabulary and family descriptors derived from the
/// seed once, elements derived on demand.
pub struct Generator {
    seed: u64,
    sizes: LakeSizes,
    vocabulary: Vec<String>,
    zipf: Zipf,
    families: Vec<Family>,
}

impl std::fmt::Debug for Generator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generator")
            .field("seed", &self.seed)
            .field("sizes", &self.sizes)
            .finish_non_exhaustive()
    }
}

const CONSONANTS: &[u8] = b"bdfgklmnprtvz";
const VOWELS: &[u8] = b"aeiou";
/// Word endings the text pipeline's lemmatizer and noun filter leave alone.
const ENDINGS: &[u8] = b"nrmkx";
const SOURCES: [&str; 5] = ["Wiki", "Reports", "Reviews", "Tickets", "Notes"];

/// A pronounceable pseudo-word of `syllables` syllables that the document
/// pipeline keeps verbatim (no stop word, no verbal suffix, no plural `s`).
fn pseudo_word(rng: &mut Rng, syllables: usize) -> String {
    let mut word = String::with_capacity(2 * syllables + 1);
    for _ in 0..syllables {
        word.push(CONSONANTS[rng.below(CONSONANTS.len())] as char);
        word.push(VOWELS[rng.below(VOWELS.len())] as char);
    }
    word.push(ENDINGS[rng.below(ENDINGS.len())] as char);
    word
}

/// `n` distinct pseudo-words not yet in `taken`, each starting with `stem`.
fn fresh_words(rng: &mut Rng, stem: &str, n: usize, taken: &mut HashSet<String>) -> Vec<String> {
    let mut words = Vec::with_capacity(n);
    while words.len() < n {
        let syllables = rng.between(2, 4);
        let word = format!("{stem}{}", pseudo_word(rng, syllables));
        if taken.insert(word.clone()) {
            words.push(word);
        }
    }
    words
}

impl Generator {
    /// Derive vocabulary and family descriptors from `seed`.
    pub fn new(seed: u64, sizes: LakeSizes) -> Self {
        let mut taken = HashSet::new();
        let vocabulary = fresh_words(
            &mut Rng::fork(seed, "vocabulary"),
            "",
            sizes.vocabulary,
            &mut taken,
        );
        let mut rng = Rng::fork(seed, "families");
        let families = (0..sizes.families)
            .map(|f| {
                let code = fresh_words(&mut rng, "", 1, &mut taken).remove(0);
                // A family's entity names and categories grow from its code,
                // the way product lines or compound classes share a stem; the
                // character n-gram embedder then places a family's columns,
                // and the documents quoting them, near each other.
                let stem = &code[..4];
                Family {
                    // Three tables' worth of names: two siblings share about
                    // a third of their entity names.
                    entities: fresh_words(&mut rng, stem, 3 * sizes.rows, &mut taken),
                    categories: fresh_words(&mut rng, stem, 8, &mut taken),
                    numeric_base: 1000.0 * f as f64,
                    code,
                }
            })
            .collect();
        Self {
            seed,
            sizes,
            zipf: Zipf::new(sizes.vocabulary, 1.0),
            vocabulary,
            families,
        }
    }

    /// The sizes this generator was built for.
    pub fn sizes(&self) -> LakeSizes {
        self.sizes
    }

    /// The name of member `member` of family `family`.
    pub fn table_name(&self, family: usize, member: usize) -> String {
        format!("{}_records_{member}", self.families[family].code)
    }

    /// The family whose dimension table `(family, member)` references.
    fn referenced_family(&self, family: usize, member: usize) -> usize {
        (family + 1 + member % (self.sizes.families - 1).max(1)) % self.sizes.families
    }

    fn id(&self, family: usize, n: usize) -> String {
        format!("{}-{n:05}", self.families[family].code)
    }

    /// Member `member` of family `family`. Members beyond
    /// [`LakeSizes::members`] are valid too: the ingest workload uses them
    /// as new tables.
    pub fn table(&self, family: usize, member: usize) -> (Table, TableInfo) {
        let mut rng = Rng::fork(self.seed, &format!("table-{family}-{member}"));
        let fam = &self.families[family];
        let rows = self.sizes.rows;
        let code = &fam.code;
        let referenced = self.referenced_family(family, member);
        let ids: Vec<String> = if member == 0 {
            (0..rows).map(|n| self.id(family, n)).collect()
        } else {
            (0..rows)
                .map(|_| self.id(family, rng.below(rows)))
                .collect()
        };
        let refs: Vec<String> = (0..rows)
            .map(|_| self.id(referenced, rng.below(rows)))
            .collect();
        // Four fifths of the rows name distinct entities, the rest repeat
        // one of them: a fact table's name column is not a key.
        let distinct_names = rng.distinct(fam.entities.len(), (rows * 4).div_ceil(5));
        let entities: Vec<String> = (0..rows)
            .map(|row| match distinct_names.get(row) {
                Some(&i) => fam.entities[i].clone(),
                None => fam.entities[distinct_names[rng.below(distinct_names.len())]].clone(),
            })
            .collect();
        let info = TableInfo {
            name: self.table_name(family, member),
            family,
            id_column: format!("{code}_id"),
            ref_column: format!("ref_{}_id", self.families[referenced].code),
            name_column: format!("{code}_name"),
            entities: entities.clone(),
        };
        let measure = |rng: &mut Rng, offset: f64, spread: f64| -> Vec<f64> {
            (0..rows)
                .map(|_| fam.numeric_base + offset + spread * rng.unit())
                .collect()
        };
        let columns = vec![
            Column::from_texts(info.id_column.clone(), ids),
            Column::from_texts(info.ref_column.clone(), refs),
            Column::from_texts(info.name_column.clone(), entities),
            Column::from_texts(
                format!("{code}_category"),
                (0..rows).map(|_| fam.categories[rng.below(fam.categories.len())].clone()),
            ),
            Column::from_numbers(format!("{code}_amount"), measure(&mut rng, 0.0, 100.0)),
            Column::from_numbers(format!("{code}_score"), measure(&mut rng, 200.0, 50.0)),
            Column::from_numbers(
                format!("{code}_quantity"),
                (0..rows).map(|_| fam.numeric_base + 400.0 + rng.below(40) as f64),
            ),
            Column::from_texts(
                format!("{code}_recorded_on"),
                (0..rows).map(|_| {
                    format!(
                        "20{:02}-{:02}-{:02}",
                        rng.between(10, 24),
                        rng.between(1, 12),
                        rng.between(1, 28)
                    )
                }),
            ),
        ];
        debug_assert_eq!(columns.len(), COLUMNS_PER_TABLE);
        (Table::new(info.name.clone(), columns), info)
    }

    /// Document `index`, linked to 1–3 of `tables` (by index into the
    /// slice). Returns the document, the linked table indices and the entity
    /// names it quotes.
    pub fn document(
        &self,
        index: usize,
        tables: &[TableInfo],
    ) -> (Document, Vec<usize>, Vec<String>) {
        let mut rng = Rng::fork(self.seed, &format!("document-{index}"));
        let link_count = rng.between(1, 3).min(tables.len());
        let links = rng.distinct(tables.len(), link_count);
        let mut mentions = Vec::with_capacity(links.len() * MENTIONS_PER_LINK);
        for &t in &links {
            let entities = &tables[t].entities;
            for i in rng.distinct(entities.len(), MENTIONS_PER_LINK.min(entities.len())) {
                mentions.push(entities[i].clone());
            }
        }
        let mut words: Vec<&str> = (0..self.sizes.doc_words)
            .map(|_| self.vocabulary[self.zipf.sample(&mut rng)].as_str())
            .collect();
        // Scatter the quoted names through the text.
        for mention in &mentions {
            let at = rng.below(words.len() + 1);
            words.insert(at, mention.as_str());
        }
        let document = Document::new(
            format!("note-{index:06}"),
            SOURCES[rng.below(SOURCES.len())],
            words.join(" "),
        );
        (document, links, mentions)
    }

    /// A free-text query of `words` general-vocabulary words (Zipf-drawn,
    /// like the documents themselves).
    pub fn query_words(&self, rng: &mut Rng, words: usize) -> Vec<&str> {
        (0..words)
            .map(|_| self.vocabulary[self.zipf.sample(rng)].as_str())
            .collect()
    }
}

/// Generate the lake for `seed` at `sizes`.
pub fn generate(seed: u64, sizes: LakeSizes) -> SynthLake {
    let generator = Generator::new(seed, sizes);
    let mut lake = DataLake::new(format!("cmdl-benchmark-{seed}"));
    let mut truth = Truth::default();
    let mut tables = Vec::with_capacity(sizes.tables());
    for family in 0..sizes.families {
        for member in 0..sizes.members {
            let (table, info) = generator.table(family, member);
            lake.add_table(table);
            let partner = generator.table_name(generator.referenced_family(family, member), 0);
            truth.join.push((info.name.clone(), partner));
            let siblings = (0..sizes.members)
                .filter(|&other| other != member)
                .map(|other| generator.table_name(family, other))
                .collect();
            truth.union.push((info.name.clone(), siblings));
            tables.push(info);
        }
    }
    let mut doc_mentions = Vec::with_capacity(sizes.documents);
    for index in 0..sizes.documents {
        let (document, links, mentions) = generator.document(index, &tables);
        lake.add_document(document);
        truth
            .doc_tables
            .push(links.into_iter().map(|t| tables[t].name.clone()).collect());
        doc_mentions.push(mentions);
    }
    SynthLake {
        lake,
        truth,
        tables,
        doc_mentions,
        generator,
    }
}

/// An order-sensitive 64-bit FNV-1a digest, for the determinism tests and
/// the report header ("which lake was this?").
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Seed value for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

impl SynthLake {
    /// A digest over every table, document and planted relation, in lake
    /// order: equal digests mean byte-identical lakes and truth sets.
    pub fn digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for table in self.lake.tables() {
            let json = serde_json::to_string(table).expect("table serializes");
            hash = fnv1a(hash, json.as_bytes());
        }
        for document in self.lake.documents() {
            let json = serde_json::to_string(document).expect("document serializes");
            hash = fnv1a(hash, json.as_bytes());
        }
        fnv1a(hash, format!("{:?}", self.truth).as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: LakeSizes = LakeSizes {
        families: 4,
        members: 3,
        rows: 30,
        documents: 60,
        vocabulary: 300,
        doc_words: 40,
    };

    #[test]
    fn same_seed_is_byte_identical_and_another_seed_is_not() {
        let a = generate(42, TINY);
        let b = generate(42, TINY);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.truth, b.truth);
        assert_ne!(a.digest(), generate(43, TINY).digest());
    }

    #[test]
    fn shape_matches_sizes_and_names_are_unique() {
        let lake = generate(1, TINY);
        assert_eq!(lake.lake.num_tables(), TINY.tables());
        assert_eq!(lake.lake.num_documents(), TINY.documents);
        let names: HashSet<&str> = lake.lake.tables().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), TINY.tables());
        for table in lake.lake.tables() {
            assert_eq!(table.num_columns(), COLUMNS_PER_TABLE);
            assert_eq!(table.num_rows(), TINY.rows);
        }
    }

    #[test]
    fn planted_containment_holds() {
        let lake = generate(5, TINY);
        for (info, (table, partner)) in lake.tables.iter().zip(&lake.truth.join) {
            assert_eq!(&info.name, table);
            let refs = lake
                .lake
                .table(table)
                .unwrap()
                .column(&info.ref_column)
                .unwrap();
            let partner_info = lake.tables.iter().find(|t| &t.name == partner).unwrap();
            let ids: HashSet<String> = lake
                .lake
                .table(partner)
                .unwrap()
                .column(&partner_info.id_column)
                .unwrap()
                .distinct_texts()
                .into_iter()
                .collect();
            assert!(refs.distinct_texts().iter().all(|r| ids.contains(r)));
            assert_ne!(info.family, partner_info.family);
        }
    }

    #[test]
    fn documents_quote_their_linked_tables() {
        let lake = generate(9, TINY);
        for (index, linked) in lake.truth.doc_tables.iter().enumerate() {
            assert!((1..=3).contains(&linked.len()));
            let text = &lake.lake.documents()[index].text;
            assert_eq!(
                lake.doc_mentions[index].len(),
                linked.len() * MENTIONS_PER_LINK
            );
            assert!(lake.doc_mentions[index]
                .iter()
                .all(|m| text.contains(m.as_str())));
        }
    }

    #[test]
    fn later_elements_are_reproducible() {
        let lake = generate(3, TINY);
        let (a, _) = lake.generator.table(2, TINY.members + 4);
        let (b, _) = Generator::new(3, TINY).table(2, TINY.members + 4);
        assert_eq!(a, b);
        assert!(lake.lake.table(&a.name).is_none());
    }
}
