//! The data-lake data model: tables, columns, documents, and discoverable
//! element ids.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// A typed cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A textual value.
    Text(String),
    /// A numeric value.
    Number(f64),
    /// A missing value.
    Null,
}

impl Value {
    /// Render the value as a string (empty for nulls).
    pub fn as_text(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Value::Null => String::new(),
        }
    }

    /// The numeric value if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Is this a null value?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Parse a raw string into the most specific value type.
    pub fn parse(raw: &str) -> Value {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        if let Ok(n) = trimmed.parse::<f64>() {
            if n.is_finite() {
                return Value::Number(n);
            }
        }
        Value::Text(trimmed.to_string())
    }
}

/// The inferred type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// Mostly textual values.
    Text,
    /// Mostly numeric values.
    Numeric,
    /// Date-like textual values (`YYYY-MM-DD` and similar).
    Date,
}

/// A column of a table: the basic structured discoverable element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (metadata).
    pub name: String,
    /// Cell values in row order.
    pub values: Vec<Value>,
}

impl Column {
    /// Create a column from name and values.
    pub fn new(name: impl Into<String>, values: Vec<Value>) -> Self {
        Self {
            name: name.into(),
            values,
        }
    }

    /// Create a textual column from strings.
    pub fn from_texts<I, S>(name: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::new(
            name,
            values.into_iter().map(|v| Value::Text(v.into())).collect(),
        )
    }

    /// Create a numeric column from floats.
    pub fn from_numbers<I>(name: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        Self::new(name, values.into_iter().map(Value::Number).collect())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Distinct non-null textual renderings of the values.
    pub fn distinct_texts(&self) -> Vec<String> {
        let mut set = std::collections::BTreeSet::new();
        for v in &self.values {
            if !v.is_null() {
                set.insert(v.as_text());
            }
        }
        set.into_iter().collect()
    }

    /// Non-null numeric values.
    pub fn numeric_values(&self) -> Vec<f64> {
        self.values.iter().filter_map(|v| v.as_number()).collect()
    }

    /// Infer the column type by majority vote over non-null values.
    pub fn infer_type(&self) -> ColumnType {
        let mut numeric = 0usize;
        let mut date = 0usize;
        let mut text = 0usize;
        for v in &self.values {
            match v {
                Value::Number(_) => numeric += 1,
                Value::Text(s) => {
                    if looks_like_date(s) {
                        date += 1;
                    } else {
                        text += 1;
                    }
                }
                Value::Null => {}
            }
        }
        if numeric >= text && numeric >= date && numeric > 0 {
            ColumnType::Numeric
        } else if date > text {
            ColumnType::Date
        } else {
            ColumnType::Text
        }
    }

    /// Ratio of distinct values to non-null values (1.0 for key-like columns).
    pub fn uniqueness(&self) -> f64 {
        let non_null: Vec<String> = self
            .values
            .iter()
            .filter(|v| !v.is_null())
            .map(|v| v.as_text())
            .collect();
        if non_null.is_empty() {
            return 0.0;
        }
        let distinct: std::collections::HashSet<&String> = non_null.iter().collect();
        distinct.len() as f64 / non_null.len() as f64
    }
}

fn looks_like_date(s: &str) -> bool {
    let bytes = s.as_bytes();
    if bytes.len() == 10 && bytes[4] == b'-' && bytes[7] == b'-' {
        return s[..4].chars().all(|c| c.is_ascii_digit())
            && s[5..7].chars().all(|c| c.is_ascii_digit())
            && s[8..10].chars().all(|c| c.is_ascii_digit());
    }
    if bytes.len() == 10 && (bytes[2] == b'/' && bytes[5] == b'/') {
        return true;
    }
    false
}

/// A table: an ordered collection of columns sharing row count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table name (metadata).
    pub name: String,
    /// Columns in schema order.
    pub columns: Vec<Column>,
}

impl Table {
    /// Create a table from a name and its columns.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Self {
            name: name.into(),
            columns,
        }
    }

    /// Number of rows (0 for a table without columns).
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Schema: the list of column names.
    pub fn schema(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

/// An unstructured text document: the basic unstructured discoverable
/// element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Document title (metadata).
    pub title: String,
    /// Originating source (e.g. "PubMed", "Reviews") — metadata.
    pub source: String,
    /// The raw document text.
    pub text: String,
}

impl Document {
    /// Create a document.
    pub fn new(
        title: impl Into<String>,
        source: impl Into<String>,
        text: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            source: source.into(),
            text: text.into(),
        }
    }
}

/// A stable identifier of a discoverable element within a [`DataLake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DeId(pub u64);

impl DeId {
    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What kind of element a [`DeId`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeKind {
    /// A tabular column.
    Column,
    /// A text document.
    Document,
}

/// A reference to a column by table and column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Index of the table in the lake.
    pub table: usize,
    /// Index of the column within the table.
    pub column: usize,
}

/// A data lake: a collection of tables and documents with stable ids assigned
/// to every discoverable element.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataLake {
    /// Human-readable lake name (e.g. "Pharma").
    pub name: String,
    tables: Vec<Table>,
    documents: Vec<Document>,
    column_ids: HashMap<ColumnRef, DeId>,
    document_ids: Vec<DeId>,
    id_to_column: HashMap<DeId, ColumnRef>,
    id_to_document: HashMap<DeId, usize>,
    /// Indices of removed tables. Slots are kept (emptied of data) so table
    /// indices — used by `ColumnRef` — stay stable.
    removed_tables: std::collections::HashSet<usize>,
    /// Indices of removed documents (slots kept for the same reason).
    removed_documents: std::collections::HashSet<usize>,
    next_id: u64,
}

impl DataLake {
    /// Create an empty lake.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The next [`DeId`] this lake will assign. Together with
    /// [`set_next_id`](Self::set_next_id) this lets a sharded deployment pin
    /// the id counter of each sub-lake so every element receives the same id
    /// it would have received in a single unpartitioned lake — the property
    /// the deterministic cross-shard merge order relies on.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Override the next [`DeId`] to assign. Ids are never checked for
    /// reuse: the caller (the shard router) is responsible for keeping
    /// assignments globally unique.
    pub fn set_next_id(&mut self, next_id: u64) {
        self.next_id = next_id;
    }

    /// Add a table; every column receives a fresh [`DeId`]. Returns the table
    /// index.
    pub fn add_table(&mut self, table: Table) -> usize {
        let table_idx = self.tables.len();
        for column_idx in 0..table.columns.len() {
            let id = DeId(self.next_id);
            self.next_id += 1;
            let cref = ColumnRef {
                table: table_idx,
                column: column_idx,
            };
            self.column_ids.insert(cref, id);
            self.id_to_column.insert(id, cref);
        }
        self.tables.push(table);
        table_idx
    }

    /// Add a document; it receives a fresh [`DeId`]. Returns the document
    /// index.
    pub fn add_document(&mut self, document: Document) -> usize {
        let id = DeId(self.next_id);
        self.next_id += 1;
        let idx = self.documents.len();
        self.documents.push(document);
        self.document_ids.push(id);
        self.id_to_document.insert(id, idx);
        idx
    }

    /// Remove a table by name. The table's slot is kept (so table indices
    /// remain stable) but its data is dropped and its columns lose their
    /// ids. Returns the removed column ids, or `None` for unknown (or
    /// already removed) tables.
    pub fn remove_table(&mut self, name: &str) -> Option<Vec<DeId>> {
        let table_idx = self.table_index(name)?;
        let num_columns = self.tables[table_idx].num_columns();
        let mut removed = Vec::with_capacity(num_columns);
        for column_idx in 0..num_columns {
            let cref = ColumnRef {
                table: table_idx,
                column: column_idx,
            };
            if let Some(id) = self.column_ids.remove(&cref) {
                self.id_to_column.remove(&id);
                removed.push(id);
            }
        }
        // Empty the slot completely (name included) so the dead slot can
        // never shadow a later re-ingested table of the same name.
        self.tables[table_idx].columns.clear();
        self.tables[table_idx].name = String::new();
        self.removed_tables.insert(table_idx);
        Some(removed)
    }

    /// Remove a document by index. The slot is kept (indices stay stable)
    /// but the text is dropped and the id unregistered. Returns the removed
    /// id, or `None` for unknown (or already removed) documents.
    pub fn remove_document(&mut self, index: usize) -> Option<DeId> {
        if index >= self.documents.len() || self.removed_documents.contains(&index) {
            return None;
        }
        let id = self.document_ids[index];
        self.id_to_document.remove(&id);
        self.removed_documents.insert(index);
        self.documents[index].text = String::new();
        Some(id)
    }

    /// Is the table at `index` removed?
    pub fn is_table_removed(&self, index: usize) -> bool {
        self.removed_tables.contains(&index)
    }

    /// Is the document at `index` removed?
    pub fn is_document_removed(&self, index: usize) -> bool {
        self.removed_documents.contains(&index)
    }

    /// All table slots, including removed (emptied) ones — indices in this
    /// slice are the stable table indices. Use
    /// [`table`](Self::table)/[`table_index`](Self::table_index) for
    /// live-only lookups.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All document slots, including removed (emptied) ones. Use
    /// [`document_ids`](Self::document_ids) to iterate only live documents.
    pub fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// Number of live tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len() - self.removed_tables.len()
    }

    /// Number of live documents.
    pub fn num_documents(&self) -> usize {
        self.documents.len() - self.removed_documents.len()
    }

    /// Total number of columns across all live tables.
    pub fn num_columns(&self) -> usize {
        self.tables.iter().map(|t| t.num_columns()).sum()
    }

    /// Look up a live table's index by name. Removed slots are skipped
    /// during the search, so a dead slot never shadows a live table that
    /// re-uses its name.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables
            .iter()
            .enumerate()
            .find(|(i, t)| t.name == name && !self.removed_tables.contains(i))
            .map(|(i, _)| i)
    }

    /// Look up a live table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_index(name).map(|i| &self.tables[i])
    }

    /// The id of a column.
    pub fn column_id(&self, table: usize, column: usize) -> Option<DeId> {
        self.column_ids.get(&ColumnRef { table, column }).copied()
    }

    /// The id of a column addressed by names.
    pub fn column_id_by_name(&self, table_name: &str, column_name: &str) -> Option<DeId> {
        let table_idx = self.table_index(table_name)?;
        let column_idx = self.tables[table_idx]
            .columns
            .iter()
            .position(|c| c.name == column_name)?;
        self.column_id(table_idx, column_idx)
    }

    /// The id of a live document by index.
    pub fn document_id(&self, index: usize) -> Option<DeId> {
        if self.removed_documents.contains(&index) {
            return None;
        }
        self.document_ids.get(index).copied()
    }

    /// What kind of element an id refers to.
    pub fn kind(&self, id: DeId) -> Option<DeKind> {
        if self.id_to_column.contains_key(&id) {
            Some(DeKind::Column)
        } else if self.id_to_document.contains_key(&id) {
            Some(DeKind::Document)
        } else {
            None
        }
    }

    /// Resolve a column id to its reference.
    pub fn column_ref(&self, id: DeId) -> Option<ColumnRef> {
        self.id_to_column.get(&id).copied()
    }

    /// Resolve a column id to the column itself.
    pub fn column_by_id(&self, id: DeId) -> Option<&Column> {
        let cref = self.column_ref(id)?;
        self.tables.get(cref.table)?.columns.get(cref.column)
    }

    /// Resolve a column id to its table.
    pub fn table_of_column(&self, id: DeId) -> Option<&Table> {
        let cref = self.column_ref(id)?;
        self.tables.get(cref.table)
    }

    /// Resolve a document id to its index.
    pub fn document_index(&self, id: DeId) -> Option<usize> {
        self.id_to_document.get(&id).copied()
    }

    /// Resolve a document id to the document.
    pub fn document_by_id(&self, id: DeId) -> Option<&Document> {
        let idx = self.document_index(id)?;
        self.documents.get(idx)
    }

    /// Iterate over all column ids with their references.
    pub fn column_ids(&self) -> impl Iterator<Item = (DeId, ColumnRef)> + '_ {
        // Iterate tables/columns in order for determinism.
        self.tables.iter().enumerate().flat_map(move |(t, table)| {
            (0..table.columns.len()).map(move |c| {
                let cref = ColumnRef {
                    table: t,
                    column: c,
                };
                (self.column_ids[&cref], cref)
            })
        })
    }

    /// Iterate over all live document ids with their indexes.
    pub fn document_ids(&self) -> impl Iterator<Item = (DeId, usize)> + '_ {
        self.document_ids
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.removed_documents.contains(i))
            .map(|(i, id)| (*id, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lake() -> DataLake {
        let mut lake = DataLake::new("test");
        lake.add_table(Table::new(
            "Drugs",
            vec![
                Column::from_texts("Id", ["DB1", "DB2"]),
                Column::from_texts("Name", ["Pemetrexed", "Citric Acid"]),
            ],
        ));
        lake.add_table(Table::new(
            "Targets",
            vec![Column::from_texts("DrugKey", ["DB1", "DB1", "DB2"])],
        ));
        lake.add_document(Document::new(
            "abstract-1",
            "PubMed",
            "Pemetrexed inhibits TS.",
        ));
        lake
    }

    #[test]
    fn value_parsing() {
        assert_eq!(Value::parse("3.5"), Value::Number(3.5));
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("  DB00642 "), Value::Text("DB00642".into()));
        assert_eq!(Value::Number(42.0).as_text(), "42");
        assert_eq!(Value::Number(1.5).as_text(), "1.5");
        assert!(Value::Null.is_null());
        assert_eq!(Value::Text("x".into()).as_number(), None);
    }

    #[test]
    fn column_type_inference() {
        assert_eq!(
            Column::from_numbers("n", [1.0, 2.0]).infer_type(),
            ColumnType::Numeric
        );
        assert_eq!(
            Column::from_texts("t", ["a", "b"]).infer_type(),
            ColumnType::Text
        );
        assert_eq!(
            Column::from_texts("d", ["2021-01-01", "2022-02-02"]).infer_type(),
            ColumnType::Date
        );
    }

    #[test]
    fn column_statistics() {
        let c = Column::from_texts("x", ["a", "a", "b"]);
        assert!((c.uniqueness() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.distinct_texts(), vec!["a", "b"]);
        let n = Column::from_numbers("n", [1.0, 2.0]);
        assert_eq!(n.numeric_values(), vec![1.0, 2.0]);
    }

    #[test]
    fn table_accessors() {
        let t = Table::new(
            "T",
            vec![
                Column::from_texts("a", ["1"]),
                Column::from_texts("b", ["2"]),
            ],
        );
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.schema(), vec!["a", "b"]);
        assert!(t.column("a").is_some());
        assert!(t.column("z").is_none());
    }

    #[test]
    fn lake_id_assignment() {
        let lake = sample_lake();
        assert_eq!(lake.num_tables(), 2);
        assert_eq!(lake.num_columns(), 3);
        assert_eq!(lake.num_documents(), 1);

        let id = lake.column_id_by_name("Drugs", "Name").unwrap();
        assert_eq!(lake.kind(id), Some(DeKind::Column));
        let col = lake.column_by_id(id).unwrap();
        assert_eq!(col.name, "Name");
        assert_eq!(lake.table_of_column(id).unwrap().name, "Drugs");

        let doc_id = lake.document_id(0).unwrap();
        assert_eq!(lake.kind(doc_id), Some(DeKind::Document));
        assert_eq!(lake.document_by_id(doc_id).unwrap().title, "abstract-1");
        assert_eq!(lake.kind(DeId(999)), None);
    }

    #[test]
    fn ids_are_unique_and_enumerable() {
        let lake = sample_lake();
        let mut ids: Vec<DeId> = lake.column_ids().map(|(id, _)| id).collect();
        ids.extend(lake.document_ids().map(|(id, _)| id));
        let set: std::collections::HashSet<DeId> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn remove_table_keeps_indices_stable() {
        let mut lake = sample_lake();
        let targets_idx = lake.table_index("Targets").unwrap();
        let drugs_name_id = lake.column_id_by_name("Drugs", "Name").unwrap();
        let removed = lake.remove_table("Drugs").unwrap();
        assert_eq!(removed.len(), 2);
        assert!(removed.contains(&drugs_name_id));
        assert!(lake.remove_table("Drugs").is_none(), "double removal");
        assert!(lake.remove_table("NoSuch").is_none());

        assert_eq!(lake.num_tables(), 1);
        assert_eq!(lake.num_columns(), 1);
        assert!(lake.table("Drugs").is_none());
        assert!(lake.is_table_removed(0));
        // The surviving table keeps its index and ids.
        assert_eq!(lake.table_index("Targets"), Some(targets_idx));
        assert!(lake.column_id_by_name("Targets", "DrugKey").is_some());
        assert_eq!(lake.kind(drugs_name_id), None);
        assert_eq!(lake.column_ids().count(), 1);
    }

    #[test]
    fn removed_table_name_can_be_reused() {
        let mut lake = sample_lake();
        lake.remove_table("Drugs").unwrap();
        let new_idx = lake.add_table(Table::new("Drugs", vec![Column::from_texts("Id", ["DB9"])]));
        // The dead slot must not shadow the live replacement.
        assert_eq!(lake.table_index("Drugs"), Some(new_idx));
        assert_eq!(lake.table("Drugs").unwrap().num_columns(), 1);
        assert!(lake.column_id_by_name("Drugs", "Id").is_some());
    }

    #[test]
    fn remove_document_keeps_indices_stable() {
        let mut lake = sample_lake();
        lake.add_document(Document::new("abstract-2", "PubMed", "Citric acid."));
        let id0 = lake.document_id(0).unwrap();
        assert_eq!(lake.remove_document(0), Some(id0));
        assert_eq!(lake.remove_document(0), None, "double removal");
        assert_eq!(lake.remove_document(9), None);

        assert_eq!(lake.num_documents(), 1);
        assert!(lake.document_id(0).is_none());
        assert!(lake.is_document_removed(0));
        assert_eq!(lake.kind(id0), None);
        // The surviving document keeps its index.
        let live: Vec<usize> = lake.document_ids().map(|(_, i)| i).collect();
        assert_eq!(live, vec![1]);
        assert_eq!(
            lake.document_by_id(lake.document_id(1).unwrap())
                .unwrap()
                .title,
            "abstract-2"
        );
    }

    #[test]
    fn missing_lookups() {
        let lake = sample_lake();
        assert!(lake.table("Nope").is_none());
        assert!(lake.column_id_by_name("Drugs", "Nope").is_none());
        assert!(lake.column_id_by_name("Nope", "Id").is_none());
        assert!(lake.document_id(10).is_none());
    }
}
