//! The column index behind structured discovery: the index proposes, the
//! exact scorer verifies.
//!
//! [`ColumnIndex`] holds, for every live tabular column, what the join,
//! union and PK-FK scorers would otherwise recompute per column *pair*:
//!
//! * a **posting list per distinct value**, listing the slots of the
//!   non-numeric columns that hold it — so the exact overlap
//!   `|q ∩ c|` of a query column with *every* column is one walk over the
//!   query's values, instead of two hash sets built per pair;
//! * **interned names**: each distinct column name is prepared once
//!   ([`NameFeatures`]) and a column carries its name id, so a name
//!   comparison tokenizes nothing;
//! * a **name-similarity row per interned name**, filled on first use:
//!   row `q` holds `names[q].similarity(names[c])` for every name `c`
//!   interned when it was filled, so the unionable pair loop reads its
//!   name signal instead of computing it (see `ColumnIndex::name_row`);
//! * the **solo content vector**, one row per slot in a contiguous
//!   matrix, with its **self-dot** (the squared norm the cosine needs);
//! * the **numeric profile** (the range the numeric-overlap signal reads);
//! * the owning **table slot**, and per table the **slots of its live
//!   columns**, so a query table's columns are read without a scan of the
//!   lake.
//!
//! So the unionable pair loop reads only the index, never a profile.
//!
//! Every score computed from the index is bit-identical to the pairwise
//! scan it replaces (the `*_brute` scorers in [`crate::join`] and
//! [`crate::union`] keep that scan as the reference): containment is
//! `overlap / |set|` over the same integers, and the prepared features
//! and stored similarities feed the same arithmetic.
//!
//! Slots are positions in insertion order. [`build`](ColumnIndex::build)
//! inserts the lake's columns in canonical order; ingestion appends;
//! removal clears the slot and deletes it from every posting list it was
//! on; [`IndexCatalog::compact`](crate::indexes::IndexCatalog::compact)
//! rebuilds, so a compacted index equals a batch-built one. The profiled
//! lake appends and removes its `column_ids` the same way, so the live
//! slots, in slot order, are the columns in `column_ids` order. Slots are
//! local to one catalog: a shard looks values and names up by string,
//! never by another shard's slot or name id.
//!
//! The name-similarity rows depend only on the names, which never change,
//! so they outlive a generation: each row is shared through an `Arc`, and
//! the copy of the index a writer makes while a snapshot is pinned shares
//! every row, filled or not, with the index it copies. A rebuild
//! (`build`, and so compaction and a segment load) re-interns the names
//! and starts with empty rows.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use cmdl_datalake::{DeId, DeKind};
use cmdl_nn::dot_f32;
use cmdl_sketch::NumericProfile;
use cmdl_text::strsim::NameFeatures;

use crate::profile::{DeProfile, ProfiledLake};

/// What the structured scorers need of one indexed column.
#[derive(Debug, Clone)]
pub(crate) struct ColumnEntry {
    /// Element id of the column.
    pub id: DeId,
    /// Slot of the owning table.
    pub table: u32,
    /// Number of distinct values (the containment denominator).
    pub distinct: usize,
    /// `tags.numeric`: numeric columns are on no posting list.
    pub numeric: bool,
    /// `tags.join_candidate`.
    pub join_candidate: bool,
    /// Id of the column name (see [`ColumnIndex::name`]).
    pub name_id: u32,
    /// `dot(solo, solo)` of the solo content embedding.
    pub solo_self_dot: f32,
    /// The numeric profile, for numeric columns.
    pub numeric_profile: Option<NumericProfile>,
}

/// A table known to the index.
#[derive(Debug, Clone)]
struct TableEntry {
    name: String,
    /// Slots of the table's live columns, ascending (so in `column_ids`
    /// order).
    columns: Vec<u32>,
}

/// One name's similarity row, shared by every copy of the index.
type NameRow = Arc<OnceLock<Box<[f64]>>>;

/// Value → column posting map, per-column features and interned names
/// over the tabular columns of one catalog (see the module docs).
///
/// Column profiles carry their values de-duplicated
/// (`Column::distinct_texts`), which the overlap counts rely on.
#[derive(Debug, Clone, Default)]
pub struct ColumnIndex {
    /// Distinct value → slots of the non-numeric columns holding it,
    /// ascending.
    postings: HashMap<String, Vec<u32>>,
    /// Per slot, the column entry; `None` once removed.
    entries: Vec<Option<ColumnEntry>>,
    /// Live column id → slot.
    slots: HashMap<DeId, u32>,
    /// Per table slot, its name and live column slots. A table slot is
    /// kept (with no columns) after its last column leaves, so a name
    /// ingested again reuses it.
    tables: Vec<TableEntry>,
    /// Table name → table slot.
    table_slots: HashMap<String, u32>,
    /// Per name id, the prepared name. Append-only: a name outlives its
    /// last column, so a name ingested again keeps its id.
    names: Vec<NameFeatures>,
    /// Column name → name id.
    name_ids: HashMap<String, u32>,
    /// Per name id, its similarity row (see [`name_row`](Self::name_row)).
    name_rows: Vec<NameRow>,
    /// Names interned by the furthest copy of this index that shares its
    /// rows. A copy interning a name where another copy already interned a
    /// different one would give two names one id, so it takes fresh rows
    /// first (see [`intern`](Self::intern)).
    interned: Arc<AtomicU32>,
    /// Per slot, the solo content vector: row `slot` is
    /// `solo_rows[slot * solo_dim..][..solo_dim]`. A removed slot keeps its
    /// row until the index is rebuilt.
    solo_rows: Vec<f32>,
    /// Length of every solo content vector (set by the first insert).
    solo_dim: usize,
    /// Total entries over all posting lists.
    num_postings: usize,
}

impl ColumnIndex {
    /// Index every column of a profiled lake, in canonical (`column_ids`)
    /// order.
    pub fn build(profiled: &ProfiledLake) -> Self {
        let mut index = Self::default();
        for profile in profiled
            .column_ids
            .iter()
            .filter_map(|&id| profiled.profile(id))
        {
            index.insert(profile);
        }
        index
    }

    /// Index one column profile (documents are ignored).
    pub(crate) fn insert(&mut self, profile: &DeProfile) {
        if profile.kind != DeKind::Column {
            return;
        }
        let slot = self.entries.len() as u32;
        let table_name = profile.table_name.as_deref().unwrap_or_default();
        let table = match self.table_slots.get(table_name) {
            Some(&table) => table,
            None => {
                let table = self.tables.len() as u32;
                self.tables.push(TableEntry {
                    name: table_name.to_string(),
                    columns: Vec::new(),
                });
                self.table_slots.insert(table_name.to_string(), table);
                table
            }
        };
        // Slots only grow, so the table's list stays ascending.
        self.tables[table as usize].columns.push(slot);
        if !profile.tags.numeric {
            for value in &profile.distinct_values {
                // Slots only grow, so each posting list stays ascending.
                self.postings.entry(value.clone()).or_default().push(slot);
            }
            self.num_postings += profile.distinct_values.len();
        }
        let name_id = match self.name_ids.get(profile.name.as_str()) {
            Some(&id) => id,
            None => self.intern(&profile.name),
        };
        let solo = &profile.solo.content;
        if self.entries.is_empty() {
            self.solo_dim = solo.len();
        }
        assert_eq!(
            solo.len(),
            self.solo_dim,
            "every solo content vector has the catalog's dimension"
        );
        self.solo_rows.extend_from_slice(solo);
        self.entries.push(Some(ColumnEntry {
            id: profile.id,
            table,
            distinct: profile.distinct_values.len(),
            numeric: profile.tags.numeric,
            join_candidate: profile.tags.join_candidate,
            name_id,
            solo_self_dot: dot_f32(solo, solo),
            numeric_profile: profile.numeric.clone(),
        }));
        self.slots.insert(profile.id, slot);
    }

    /// Give a new name the next name id, with an empty similarity row.
    ///
    /// The rows are shared with every copy of this index, and a filled row
    /// holds one similarity per name id interned when it was filled, so
    /// all copies must agree on what each id names. Along the writer's
    /// line of copies they do: each copy extends the names of the one it
    /// was made from. A copy that interns where another copy already went
    /// further (two writers on copies of one index) takes fresh rows
    /// instead of sharing.
    fn intern(&mut self, name: &str) -> u32 {
        let id = self.names.len() as u32;
        let extended = self
            .interned
            .compare_exchange(id, id + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if !extended {
            self.name_rows = self.names.iter().map(|_| NameRow::default()).collect();
            self.interned = Arc::new(AtomicU32::new(id + 1));
        }
        self.names.push(NameFeatures::new(name));
        self.name_ids.insert(name.to_string(), id);
        self.name_rows.push(NameRow::default());
        id
    }

    /// Drop one column profile: its slot is cleared and removed from every
    /// posting list it was on (values left with no column are forgotten).
    pub(crate) fn remove(&mut self, profile: &DeProfile) {
        let Some(slot) = self.slots.remove(&profile.id) else {
            return;
        };
        let Some(entry) = self.entries[slot as usize].take() else {
            return;
        };
        let columns = &mut self.tables[entry.table as usize].columns;
        if let Ok(at) = columns.binary_search(&slot) {
            columns.remove(at);
        }
        if entry.numeric {
            return;
        }
        for value in &profile.distinct_values {
            if let Some(posting) = self.postings.get_mut(value.as_str()) {
                if let Ok(at) = posting.binary_search(&slot) {
                    posting.remove(at);
                    self.num_postings -= 1;
                }
                if posting.is_empty() {
                    self.postings.remove(value.as_str());
                }
            }
        }
    }

    /// Live indexed columns.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is no column indexed?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Distinct values with a posting list.
    pub(crate) fn num_values(&self) -> usize {
        self.postings.len()
    }

    /// Total entries over all posting lists.
    pub(crate) fn num_postings(&self) -> usize {
        self.num_postings
    }

    /// The slot and entry of a live column.
    #[cfg(test)]
    pub(crate) fn entry_of(&self, id: DeId) -> Option<(u32, &ColumnEntry)> {
        let slot = *self.slots.get(&id)?;
        Some((slot, self.entries[slot as usize].as_ref()?))
    }

    /// Every live entry, in slot order.
    pub(crate) fn live_entries(&self) -> impl Iterator<Item = &ColumnEntry> {
        self.entries.iter().flatten()
    }

    /// Every live slot with its entry, in slot order (which is the
    /// profiled lake's `column_ids` order; see the module docs).
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = (u32, &ColumnEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| Some((slot as u32, entry.as_ref()?)))
    }

    /// The ids of the live columns, in slot order. Equal to the profiled
    /// lake's `column_ids` for an index of the same generation.
    pub fn column_ids(&self) -> impl Iterator<Item = DeId> + '_ {
        self.live_entries().map(|entry| entry.id)
    }

    /// The solo content vector of a slot.
    pub(crate) fn solo_row(&self, slot: u32) -> &[f32] {
        let from = slot as usize * self.solo_dim;
        &self.solo_rows[from..from + self.solo_dim]
    }

    /// The entry at a slot, if live.
    pub(crate) fn entry(&self, slot: u32) -> Option<&ColumnEntry> {
        self.entries[slot as usize].as_ref()
    }

    /// The slot of a known table name.
    pub(crate) fn table_slot(&self, name: &str) -> Option<u32> {
        self.table_slots.get(name).copied()
    }

    /// The name of a table slot.
    pub(crate) fn table_name(&self, table: u32) -> &str {
        &self.tables[table as usize].name
    }

    /// The slots of a table's live columns, ascending.
    pub(crate) fn table_columns(&self, table: u32) -> &[u32] {
        &self.tables[table as usize].columns
    }

    /// The ids of a table's live columns, in `column_ids` order (the order
    /// of [`ProfiledLake::columns_of_table`]); none for an unknown table.
    pub fn columns_of_table(&self, table_name: &str) -> impl Iterator<Item = DeId> + '_ {
        let slots = match self.table_slot(table_name) {
            Some(table) => self.table_columns(table),
            None => &[],
        };
        slots.iter().map(|&slot| {
            self.entry(slot)
                .expect("a table lists only its live slots")
                .id
        })
    }

    /// Table slots known so far (slots are below this).
    pub(crate) fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Distinct column names interned so far (name ids are below this).
    pub(crate) fn num_names(&self) -> usize {
        self.names.len()
    }

    /// The prepared name of a name id.
    pub(crate) fn name(&self, name_id: u32) -> &NameFeatures {
        &self.names[name_id as usize]
    }

    /// The id of an interned column name.
    pub(crate) fn name_id(&self, name: &str) -> Option<u32> {
        self.name_ids.get(name).copied()
    }

    /// The name-similarity row of a name id: entry `c` is
    /// `name(name_id).similarity(name(c))` — query name first, as the
    /// scorers call it — for every name `c` interned when the row was
    /// filled, so a row filled before a name was interned ends before it.
    /// Filled on first use; copies of the index share it. Memory is at
    /// most `names² × 8` bytes.
    pub(crate) fn name_row(&self, name_id: u32) -> &[f64] {
        self.name_rows[name_id as usize].get_or_init(|| {
            let query = self.name(name_id);
            self.names
                .iter()
                .map(|name| query.similarity(name))
                .collect()
        })
    }

    /// Name-similarity rows filled so far.
    pub(crate) fn num_name_rows(&self) -> usize {
        self.name_rows
            .iter()
            .filter(|row| row.get().is_some())
            .count()
    }

    /// A zeroed overlap counter sized for this index's slots.
    pub(crate) fn overlap_counter(&self) -> OverlapCounter {
        OverlapCounter::new(self.entries.len())
    }

    /// Count, per column slot, how many of `values` the column holds —
    /// `|values ∩ column|` for every non-numeric column at once (`values`
    /// must be distinct). The values are looked up by string, so they may
    /// come from a column of another catalog.
    pub(crate) fn count_overlaps(&self, values: &[String], counter: &mut OverlapCounter) {
        for value in values {
            if let Some(posting) = self.postings.get(value.as_str()) {
                for &slot in posting {
                    counter.bump(slot);
                }
            }
        }
    }
}

/// Per-slot overlap counts with the list of touched slots, so clearing
/// and iterating cost the touched slots, not the whole index.
pub(crate) struct OverlapCounter {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl OverlapCounter {
    /// A zeroed counter over `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            counts: vec![0; slots],
            touched: Vec::new(),
        }
    }

    /// Count one more shared value for `slot`.
    pub(crate) fn bump(&mut self, slot: u32) {
        let count = &mut self.counts[slot as usize];
        if *count == 0 {
            self.touched.push(slot);
        }
        *count += 1;
    }

    /// The count of one slot.
    pub(crate) fn get(&self, slot: u32) -> u32 {
        self.counts[slot as usize]
    }

    /// Every slot with a non-zero count, with its count, in first-touch
    /// order.
    pub(crate) fn touched(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.touched
            .iter()
            .map(|&slot| (slot, self.counts[slot as usize]))
    }

    /// Zero every count.
    pub(crate) fn clear(&mut self) {
        for &slot in &self.touched {
            self.counts[slot as usize] = 0;
        }
        self.touched.clear();
    }
}

/// `overlap / len` — the exact containment of a set of `len` distinct
/// values in a set sharing `overlap` of them; `0.0` for an empty set (as
/// `cmdl_sketch::exact_containment` defines it).
pub(crate) fn containment_ratio(overlap: u32, len: usize) -> f64 {
    if len == 0 {
        0.0
    } else {
        f64::from(overlap) / len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CmdlConfig;
    use crate::profile::Profiler;
    use cmdl_datalake::synth;

    fn pharma() -> ProfiledLake {
        Profiler::new(&CmdlConfig::fast())
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake)
    }

    #[test]
    fn postings_list_exactly_the_text_columns_holding_each_value() {
        let profiled = pharma();
        let index = ColumnIndex::build(&profiled);
        assert_eq!(index.len(), profiled.column_ids.len());
        let mut expected_postings = 0;
        for &id in &profiled.column_ids {
            let profile = profiled.profile(id).unwrap();
            let (slot, entry) = index.entry_of(id).unwrap();
            assert_eq!(entry.distinct, profile.distinct_values.len());
            assert_eq!(index.solo_row(slot), &profile.solo.content[..]);
            assert_eq!(entry.numeric_profile, profile.numeric);
            if profile.tags.numeric {
                continue;
            }
            expected_postings += profile.distinct_values.len();
            for value in &profile.distinct_values {
                assert!(index.postings[value].contains(&slot));
            }
        }
        assert_eq!(index.num_postings(), expected_postings);
        assert!(index
            .columns_of_table("Drugs")
            .eq(profiled.columns_of_table("Drugs")));
        assert_eq!(index.columns_of_table("Nonexistent").count(), 0);
    }

    #[test]
    fn remove_then_rebuild_matches_a_build_without_the_table() {
        let profiled = pharma();
        let mut index = ColumnIndex::build(&profiled);
        let removed = profiled.columns_of_table("Drugs");
        for id in &removed {
            index.remove(profiled.profile(*id).unwrap());
        }
        let drugs = index.table_slot("Drugs").unwrap();
        assert!(index.table_columns(drugs).is_empty());
        assert_eq!(index.len(), profiled.column_ids.len() - removed.len());
        let mut survivors = profiled.clone();
        survivors.column_ids.retain(|id| !removed.contains(id));
        assert!(index.column_ids().eq(survivors.column_ids.iter().copied()));
        let rebuilt = ColumnIndex::build(&survivors);
        // Same value set and posting volume; slots differ until a rebuild.
        assert_eq!(index.num_values(), rebuilt.num_values());
        assert_eq!(index.num_postings(), rebuilt.num_postings());
        for (value, posting) in &rebuilt.postings {
            assert_eq!(index.postings[value].len(), posting.len());
        }
    }

    #[test]
    fn names_are_interned_and_outlive_their_columns() {
        let profiled = pharma();
        let mut index = ColumnIndex::build(&profiled);
        let distinct: std::collections::HashSet<&str> = profiled
            .column_ids
            .iter()
            .map(|&id| profiled.profile(id).unwrap().name.as_str())
            .collect();
        assert_eq!(index.num_names(), distinct.len());
        let drugs = profiled.columns_of_table("Drugs");
        let ids_before: Vec<u32> = drugs
            .iter()
            .map(|&id| index.entry_of(id).unwrap().1.name_id)
            .collect();
        for &id in &drugs {
            index.remove(profiled.profile(id).unwrap());
        }
        for &id in &drugs {
            index.insert(profiled.profile(id).unwrap());
        }
        assert_eq!(index.num_names(), distinct.len(), "no name interned twice");
        for (&id, &name_id) in drugs.iter().zip(&ids_before) {
            let (_, entry) = index.entry_of(id).unwrap();
            assert_eq!(entry.name_id, name_id);
            let name = &profiled.profile(id).unwrap().name;
            let expected = NameFeatures::new(name).similarity(&NameFeatures::new(name));
            assert_eq!(
                index
                    .name(name_id)
                    .similarity(&NameFeatures::new(name))
                    .to_bits(),
                expected.to_bits()
            );
        }
    }

    /// The similarity row of every name, as the kernel computes it.
    fn expected_row(index: &ColumnIndex, name_id: u32) -> Vec<u64> {
        (0..index.num_names() as u32)
            .map(|c| index.name(name_id).similarity(index.name(c)).to_bits())
            .collect()
    }

    #[test]
    fn name_rows_are_shared_by_copies_until_a_rebuild() {
        let profiled = pharma();
        let index = ColumnIndex::build(&profiled);
        let copy = index.clone();
        assert_eq!(index.num_name_rows(), 0, "rows are filled on use");
        let row = index.name_row(0);
        assert_eq!(
            row.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            expected_row(&index, 0)
        );
        assert_eq!(copy.num_name_rows(), 1, "a copy sees the original's row");
        assert_eq!(copy.name_row(0).as_ptr(), row.as_ptr());
        copy.name_row(1);
        assert_eq!(index.num_name_rows(), 2, "and the original the copy's");

        // A writer's copy that interns a new name keeps the filled rows;
        // they end before the new name.
        let mut written = copy.clone();
        let mut profile = profiled.profile(profiled.column_ids[0]).unwrap().clone();
        profile.id = DeId(u64::MAX);
        profile.name = "a_name_never_seen".into();
        written.insert(&profile);
        assert_eq!(written.num_names(), index.num_names() + 1);
        assert_eq!(written.num_name_rows(), 2);
        assert_eq!(written.name_row(0).len(), index.num_names());
        let new_id = written.name_id("a_name_never_seen").unwrap();
        assert_eq!(
            written
                .name_row(new_id)
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            expected_row(&written, new_id)
        );
        assert_eq!(index.num_name_rows(), 2, "the new name has no row there");

        // Another copy of the older index interning a different name at
        // the same id takes fresh rows instead of the writer's.
        let mut sibling = index.clone();
        profile.name = "another_new_name".into();
        sibling.insert(&profile);
        assert_eq!(sibling.name_id("another_new_name"), Some(new_id));
        assert_eq!(sibling.num_name_rows(), 0);
        assert_eq!(
            sibling
                .name_row(0)
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            expected_row(&sibling, 0)
        );
        assert_eq!(written.num_name_rows(), 3, "the writer's rows are its own");

        assert_eq!(ColumnIndex::build(&profiled).num_name_rows(), 0);
        let mut catalog = crate::indexes::IndexCatalog::build(&profiled, &CmdlConfig::fast());
        catalog.columns.name_row(0);
        catalog.compact(&profiled, &CmdlConfig::fast());
        assert_eq!(
            catalog.columns.num_name_rows(),
            0,
            "compaction starts empty"
        );
    }

    #[test]
    fn overlap_counts_match_set_intersections() {
        let profiled = pharma();
        let index = ColumnIndex::build(&profiled);
        let query = profiled
            .profile(profiled.lake.column_id_by_name("Drugs", "Id").unwrap())
            .unwrap();
        let mut counter = index.overlap_counter();
        index.count_overlaps(&query.distinct_values, &mut counter);
        for &id in &profiled.column_ids {
            let (slot, entry) = index.entry_of(id).unwrap();
            let profile = profiled.profile(entry.id).unwrap();
            let expected = if profile.tags.numeric {
                0
            } else {
                profile
                    .distinct_values
                    .iter()
                    .filter(|v| query.distinct_values.contains(v))
                    .count() as u32
            };
            assert_eq!(counter.get(slot), expected, "{}", profile.qualified_name);
        }
        counter.clear();
        assert_eq!(counter.touched().count(), 0);
    }
}
