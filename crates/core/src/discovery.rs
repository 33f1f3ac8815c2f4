//! The CMDL discovery interface (paper Section 5.2).
//!
//! [`Cmdl`] is the system façade: it owns the profiled lake, the index
//! catalog, and the (optionally trained) joint model. Discovery runs
//! through the unified [`DiscoveryQuery`] API: build a query with
//! [`QueryBuilder`](crate::query::QueryBuilder) and run it with
//! [`execute`](Cmdl::execute) (or batch it with
//! [`execute_many`](Cmdl::execute_many)); every kind returns the same
//! [`QueryResponse`] envelope with per-signal score provenance.
//!
//! The paper's primitives are the [`DiscoveryQuery`] kinds: `Keyword` (Q1
//! in the motivating example), `CrossModalDoc` / `CrossModalText` /
//! `DocToTable` (Doc→Table, Q2/Q3), `JoinableTable` / `JoinableColumn` /
//! `PkFk` (Table-J-Table, Q4) and `Unionable` (Table-U-Table, Q5). Every
//! hit names its element or table and carries its score, so results chain:
//! the output of one primitive feeds the input of the next, exactly like
//! the pipeline of Figure 1.
//!
//! ## Incremental ingestion and snapshot isolation
//!
//! The lake is *not* frozen at build time: [`ingest_table`](Cmdl::ingest_table),
//! [`ingest_document`](Cmdl::ingest_document),
//! [`remove_table`](Cmdl::remove_table) and
//! [`remove_document`](Cmdl::remove_document) profile only the delta and
//! apply it to every index in place (postings appends with lazily-refreshed
//! IDF, LSH delta inserts with tombstoned removals, ANN delta-tail inserts).
//! All catalog state lives behind `Arc`s: a reader takes a
//! [`CatalogSnapshot`] via [`snapshot`](Cmdl::snapshot) and keeps a
//! consistent generation while writers apply batches copy-on-write.
//! [`compact`](Cmdl::compact) folds tombstones and deltas back into the
//! dense layouts, after which the catalog is structurally identical to a
//! batch build over the surviving elements (the `incremental-parity` CI
//! job holds this equality forever).

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cmdl_datalake::{DataLake, DeId, Document, Table};
use cmdl_text::BagOfWords;
use cmdl_weaklabel::GoldLabel;

use crate::config::CmdlConfig;
use crate::error::CmdlError;
use crate::indexes::IndexCatalog;
use crate::joint::{JointModel, JointTrainer, JointTrainingReport};
use crate::persist::{
    decode_frames, decode_profiled, encode_profiled, load_segment, Io, LoadedSegment, PersistError,
    PersistHandle, RecoveryReport, Wal, WalRecord,
};
use crate::profile::{ElementData, ProfiledLake, Profiler};
use crate::query::{DiscoveryQuery, QueryResponse};
use crate::snapshot::{CatalogSnapshot, PkFkSlot};
use crate::training::{TrainingDatasetGenerator, TrainingGenerationReport};

/// The search scope of a [`DiscoveryQuery::Keyword`] query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchMode {
    /// Search only the text documents.
    Text,
    /// Search only the tabular columns.
    Tables,
    /// Search both modalities.
    All,
}

/// The CMDL system.
///
/// All catalog state is reference-counted: readers pin a consistent
/// generation with [`snapshot`](Cmdl::snapshot), and the ingestion methods
/// mutate copy-on-write, so an outstanding snapshot is never disturbed by a
/// concurrent batch.
pub struct Cmdl {
    /// System configuration.
    pub config: CmdlConfig,
    /// The profiled lake (current generation).
    pub profiled: Arc<ProfiledLake>,
    /// The index catalog (current generation).
    pub indexes: Arc<IndexCatalog>,
    profiler: Arc<Profiler>,
    joint: Option<Arc<JointModel>>,
    generation: u64,
    /// The last training-generation report.
    pub training_report: Option<TrainingGenerationReport>,
    /// The durability handle (WAL + checkpoint directory), present when the
    /// catalog was opened with [`open`](Cmdl::open).
    persist: Option<PersistHandle>,
    /// How a persistent catalog came up (see [`recovery_report`](Cmdl::recovery_report)).
    recovery: Option<RecoveryReport>,
    /// The PK-FK link set of the current generation's columns (see
    /// [`crate::snapshot`]). The links read only the columns, so a table
    /// ingest or removal starts an empty slot (the old one stays with the
    /// snapshots that pinned it); document writes, training and compaction
    /// leave the columns, and so the slot, as they were.
    pkfk: PkFkSlot,
}

impl Cmdl {
    /// Profile and index a data lake (no joint training yet).
    pub fn build(lake: DataLake, config: CmdlConfig) -> Self {
        let profiler = Profiler::new(&config);
        let profiled = profiler.profile_lake(lake);
        Self::from_profiled(profiled, config)
    }

    /// Build the catalog over an *already profiled* lake. This is how the
    /// shard router constructs per-shard catalogs: it profiles the lake
    /// once globally (so corpus document-frequency statistics are global),
    /// carves out per-shard [`ProfiledLake`]s with
    /// [`ProfiledLake::partition_for`], and indexes each independently.
    pub fn from_profiled(profiled: ProfiledLake, config: CmdlConfig) -> Self {
        let profiler = Profiler::new(&config);
        let indexes = IndexCatalog::build(&profiled, &config);
        Self {
            config,
            profiled: Arc::new(profiled),
            indexes: Arc::new(indexes),
            profiler: Arc::new(profiler),
            joint: None,
            generation: 0,
            training_report: None,
            persist: None,
            recovery: None,
            pkfk: PkFkSlot::default(),
        }
    }

    // ------------------------------------------------------------------
    // Durability: open / recover / checkpoint
    // ------------------------------------------------------------------

    /// Open a durable catalog at `dir`: load the newest valid segment,
    /// verify every section checksum, replay the WAL tail (skipping a torn
    /// final record), and keep the directory live — every subsequent
    /// `ingest_*`/`remove_*` appends a checksummed WAL record and fsyncs
    /// *before* returning, and [`compact`](Cmdl::compact) writes a new
    /// segment generation then truncates the WAL.
    ///
    /// `source` supplies the lake only when it is actually needed: on a
    /// fresh directory, or when the segment/manifest turns out to be
    /// corrupted (the catalog then degrades to rebuild-from-source with the
    /// reason logged and recorded in [`recovery_report`](Cmdl::recovery_report)
    /// rather than panicking). A directory written by a newer build is not
    /// corrupted: the open returns [`CmdlError::NewerLayout`] and changes
    /// nothing on disk. `config` likewise applies only to those
    /// rebuild paths — a loaded segment carries its own configuration,
    /// which must match the serialized index layouts.
    pub fn open(
        dir: &Path,
        config: CmdlConfig,
        source: impl FnOnce() -> DataLake,
    ) -> Result<Self, CmdlError> {
        Self::open_with_io(&Io::real(), dir, config, source)
    }

    /// [`open`](Cmdl::open) with an explicit io layer — the entry point the
    /// crash-fault-injection harness uses to kill the "process" at every
    /// fsync boundary.
    pub fn open_with_io(
        io: &Io,
        dir: &Path,
        config: CmdlConfig,
        source: impl FnOnce() -> DataLake,
    ) -> Result<Self, CmdlError> {
        io.create_dir_all(dir).map_err(persist_err)?;
        let loaded = match load_segment(io, dir) {
            Ok(loaded) => loaded,
            // A newer build's directory is not damage: refuse it untouched
            // (a rebuild would set aside its WAL of acknowledged mutations).
            Err(e @ (PersistError::Crashed | PersistError::NewerLayout { .. })) => {
                return Err(persist_err(e))
            }
            Err(reason) => {
                // Corrupted manifest or segment: degrade to rebuild.
                return Self::rebuild_at(io, dir, config, source(), Some(reason.to_string()));
            }
        };
        let Some(segment) = loaded else {
            // Fresh directory.
            return Self::rebuild_at(io, dir, config, source(), None);
        };
        match Self::restore_from_segment(&segment) {
            Ok(mut system) => {
                let floor = segment.manifest.last_applied_lsn;
                // A WAL that will not open (a checksum-valid frame whose
                // payload no longer decodes) or a record that will not
                // re-apply degrades to rebuild-from-source like any other
                // corruption — never a permanently unopenable directory.
                // `rebuild_at` sets the log aside first, so the failed
                // records stay on disk for inspection.
                let (handle, records, discarded_bytes) = match PersistHandle::open(io, dir, floor) {
                    Ok(opened) => opened,
                    Err(PersistError::Crashed) => return Err(persist_err(PersistError::Crashed)),
                    Err(reason) => {
                        return Self::rebuild_at(
                            io,
                            dir,
                            config,
                            source(),
                            Some(reason.to_string()),
                        )
                    }
                };
                let replayed = records.len();
                // Replay with the handle not yet installed, so the replay
                // does not re-append the records it is applying.
                for (lsn, record) in records {
                    if let Err(e) = system.apply_wal_record(record) {
                        drop(handle);
                        return Self::rebuild_at(
                            io,
                            dir,
                            config,
                            source(),
                            Some(format!("wal replay failed at lsn {lsn}: {e}")),
                        );
                    }
                }
                system.persist = Some(handle);
                system.recovery = Some(RecoveryReport::Loaded {
                    generation: segment.manifest.generation,
                    replayed,
                    discarded_bytes,
                });
                Ok(system)
            }
            Err(PersistError::Crashed) => Err(persist_err(PersistError::Crashed)),
            Err(reason) => Self::rebuild_at(io, dir, config, source(), Some(reason.to_string())),
        }
    }

    /// How this catalog came up, when it was opened with
    /// [`open`](Cmdl::open): loaded from a segment (with the WAL replay
    /// count), rebuilt from source over a damaged directory (with the
    /// reason), or fresh. `None` for a purely in-memory
    /// [`build`](Cmdl::build).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Is this catalog persistent (opened with [`open`](Cmdl::open))?
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// Build from source into `dir`, write the initial checkpoint, and
    /// record why. Any non-empty WAL in the damaged directory is set
    /// aside first (never truncated): it may hold acknowledged mutations
    /// whose segment rotted beneath them, and destroying their only
    /// durable evidence would contradict the no-acked-loss contract.
    fn rebuild_at(
        io: &Io,
        dir: &Path,
        config: CmdlConfig,
        lake: DataLake,
        reason: Option<String>,
    ) -> Result<Self, CmdlError> {
        if let Some(reason) = &reason {
            eprintln!(
                "cmdl: persistent catalog at {} is damaged ({reason}); rebuilding from source",
                dir.display()
            );
        }
        Self::salvage_wal(io, dir).map_err(persist_err)?;
        let mut system = Self::build(lake, config);
        let (handle, _stale, _discarded) = PersistHandle::open(io, dir, 0).map_err(persist_err)?;
        system.persist = Some(handle);
        system
            .checkpoint()
            .map_err(|e| CmdlError::Persist(format!("initial checkpoint failed: {e}")))?;
        system.recovery = Some(match reason {
            Some(reason) => RecoveryReport::Rebuilt { reason },
            None => RecoveryReport::Fresh,
        });
        Ok(system)
    }

    /// Set a non-empty WAL aside as `wal.salvaged-N` before a rebuild
    /// wipes the directory's logical state, and log what it held. The
    /// salvaged records cannot be replayed (the segment beneath them is
    /// gone or undecodable), but they are the only durable evidence of
    /// the mutations they carry — preserved for inspection, never
    /// silently destroyed.
    fn salvage_wal(io: &Io, dir: &Path) -> Result<(), PersistError> {
        let wal_path = dir.join(Wal::FILE_NAME);
        if !io.exists(&wal_path) {
            return Ok(());
        }
        let bytes = io.read(&wal_path)?;
        if bytes.is_empty() {
            return Ok(());
        }
        let (frames, _) = decode_frames(&bytes);
        let salvage = (0..)
            .map(|n| dir.join(format!("{}.salvaged-{n}", Wal::FILE_NAME)))
            .find(|path| !io.exists(path))
            .expect("unbounded salvage-name space");
        io.rename(&wal_path, &salvage)?;
        eprintln!(
            "cmdl: set aside unreplayable WAL ({} decodable records, {} bytes) at {}",
            frames.len(),
            bytes.len(),
            salvage.display()
        );
        Ok(())
    }

    /// Deserialize every section of a verified segment back into a catalog
    /// and re-arm the runtime-only state the serialization skips.
    fn restore_from_segment(segment: &LoadedSegment) -> Result<Self, PersistError> {
        fn section<'a>(segment: &'a LoadedSegment, name: &str) -> Result<&'a [u8], PersistError> {
            segment
                .sections
                .get(name)
                .map(Vec::as_slice)
                .ok_or_else(|| PersistError::Corrupt(format!("segment missing section '{name}'")))
        }
        // The profiled lake and index catalog dwarf the other sections
        // (token bags and posting lists scale with the corpus), so they
        // decode concurrently — the profiled section fanning its shards
        // out across the rayon pool (see `persist::codec`).
        let (profiled, indexes) = rayon::join(
            || decode_profiled(section(segment, "profiled")?),
            || parse::<IndexCatalog>("indexes", section(segment, "indexes")?),
        );
        let config = decode_config(section(segment, "config")?)?;
        let profiled = profiled?;
        let mut indexes = indexes?;
        let joint: Option<JointModel> = parse("joint", section(segment, "joint")?)?;
        indexes.restore_runtime_state(&profiled, &config);
        let profiler = Profiler::new(&config);
        Ok(Self {
            config,
            profiled: Arc::new(profiled),
            indexes: Arc::new(indexes),
            profiler: Arc::new(profiler),
            joint: joint.map(Arc::new),
            generation: segment.manifest.generation,
            training_report: None,
            persist: None,
            recovery: None,
            pkfk: PkFkSlot::default(),
        })
    }

    /// Re-apply one WAL record through the ordinary mutation path (the
    /// persist handle is not yet installed, so nothing is re-logged). Open
    /// and panic reconciliation both replay the WAL tail through here.
    fn apply_wal_record(&mut self, record: WalRecord) -> Result<(), CmdlError> {
        match record {
            WalRecord::IngestTable(table) => self.ingest_table(table).map(|_| ()),
            WalRecord::IngestDocument(document) => self.ingest_document(document).map(|_| ()),
            WalRecord::RemoveTable { name } => self.remove_table(&name).map(|_| ()),
            WalRecord::RemoveDocument { index } => self.remove_document(index),
            // Compensation markers are filtered out before replay; one
            // reaching here (e.g. through a hand-built record list) is a
            // no-op by definition.
            WalRecord::Abort { .. } => Ok(()),
        }
        .map_err(|e| CmdlError::Persist(format!("wal replay diverged: {e}")))
    }

    /// Append one mutation record to the WAL and fsync (no-op for an
    /// in-memory catalog). Called *after* validation and *before* the
    /// in-memory apply, so an acknowledged mutation is durable and a
    /// crashed one is at worst replayed as a no-op-to-the-caller redo.
    fn wal_append(&mut self, record: &WalRecord) -> Result<(), CmdlError> {
        if let Some(handle) = self.persist.as_mut() {
            handle.append(record).map_err(persist_err)?;
        }
        Ok(())
    }

    /// The WAL high-water mark: the LSN the next logged mutation will get
    /// (0 for an in-memory catalog). A serving layer captures this before
    /// applying a mutation so a panic mid-apply can be compensated with
    /// [`recover_after_panic`](Cmdl::recover_after_panic).
    pub fn wal_mark(&self) -> u64 {
        self.persist.as_ref().map_or(0, PersistHandle::next_lsn)
    }

    /// Repair a persistent catalog after a mutation panicked mid-apply
    /// (caught by the serving layer): the mutation's WAL record is already
    /// fsynced while the in-memory state is partially mutated, so without
    /// compensation disk and memory diverge forever — a crash-and-replay
    /// would apply a mutation whose caller was told it failed, and the
    /// next checkpoint would persist the half-applied state.
    ///
    /// `wal_mark` is the high-water mark captured *before* the mutation
    /// ran. Every record it logged (`wal_mark..` the current mark) gets an
    /// [`Abort`](WalRecord::Abort) compensation marker so replay skips
    /// it, then the possibly half-mutated in-memory state is discarded and
    /// reloaded from disk. After `Ok`, memory, segment, and WAL all agree
    /// the mutation never happened — matching what the caller was told.
    /// No-op for an in-memory catalog (there is nothing to reload from).
    ///
    /// On `Err` the catalog must be treated as wedged: the in-memory
    /// state is unreliable and could not be reconciled with disk. A
    /// failure in the read-only phase (loading the checkpoint) leaves the
    /// persistence handle installed, so reconciliation can be retried
    /// once the directory is repaired.
    pub fn recover_after_panic(&mut self, wal_mark: u64) -> Result<(), CmdlError> {
        let Some(handle) = self.persist.as_mut() else {
            return Ok(());
        };
        for lsn in wal_mark..handle.next_lsn() {
            handle
                .append(&WalRecord::Abort { lsn })
                .map_err(persist_err)?;
        }
        let io = handle.io().clone();
        let dir = handle.dir().to_path_buf();
        // Read-only phase first: load and decode the checkpoint while the
        // live handle stays installed, so a failure here (damaged manifest
        // or segment) leaves the catalog with its persistence intact and
        // reconciliation can be re-run (the serving layer's `Recover`
        // request) once the directory is repaired.
        let segment = load_segment(&io, &dir)
            .map_err(persist_err)?
            .ok_or_else(|| CmdlError::Persist("panic recovery found no manifest".into()))?;
        let mut system = Self::restore_from_segment(&segment).map_err(persist_err)?;
        let recovery = self.recovery.take();
        // Release the open WAL file before reopening the directory.
        self.persist = None;
        let (new_handle, records, _discarded) =
            PersistHandle::open(&io, &dir, segment.manifest.last_applied_lsn)
                .map_err(persist_err)?;
        for (_lsn, record) in records {
            system.apply_wal_record(record)?;
        }
        system.persist = Some(new_handle);
        system.recovery = recovery;
        *self = system;
        Ok(())
    }

    /// Serialize the catalog into a new segment generation, atomically
    /// swap the manifest, and truncate the WAL. No-op for an in-memory
    /// catalog.
    pub fn checkpoint(&mut self) -> Result<(), CmdlError> {
        if self.persist.is_none() {
            return Ok(());
        }
        let sections = [
            ("config", serde::to_bin_bytes(&self.config)),
            ("profiled", encode_profiled(&self.profiled)),
            ("indexes", serde::to_bin_bytes(&*self.indexes)),
            ("joint", serde::to_bin_bytes(&self.joint)),
        ];
        let generation = self.generation;
        let handle = self.persist.as_mut().expect("checked above");
        handle
            .checkpoint(generation, &sections)
            .map_err(persist_err)
    }

    /// Checkpoint, logging (not propagating) a failure: the WAL already
    /// holds every acknowledged mutation, so a failed checkpoint costs
    /// replay time on the next open, never durability.
    fn checkpoint_best_effort(&mut self) {
        if let Err(e) = self.checkpoint() {
            eprintln!("cmdl: checkpoint failed (durability unaffected, WAL retained): {e}");
        }
    }

    /// Detach the persistence layer, turning this catalog into an
    /// in-memory one. Used by online reconfiguration to hand the open
    /// WAL and segment directory from a retiring catalog to its rebuilt
    /// replacement (see [`install_persistence`](Cmdl::install_persistence));
    /// `None` if the catalog was never persistent.
    pub fn take_persistence(&mut self) -> Option<PersistHandle> {
        self.persist.take()
    }

    /// Attach a persistence layer taken from another catalog over the same
    /// logical lake. The caller must [`checkpoint`](Cmdl::checkpoint)
    /// immediately afterwards: until the new segment generation lands, the
    /// directory still describes the donor catalog's state.
    pub fn install_persistence(&mut self, handle: PersistHandle) {
        self.persist = Some(handle);
    }

    /// The trained joint model, if any.
    pub fn joint_model(&self) -> Option<&JointModel> {
        self.joint.as_deref()
    }

    /// A shared handle to the trained joint model, if any (cheap clone for
    /// carrying the model across a background rebuild).
    pub fn joint_model_arc(&self) -> Option<Arc<JointModel>> {
        self.joint.clone()
    }

    /// Install an already-trained joint model (from a donor catalog over
    /// the same lake), re-embedding every element under this catalog's
    /// profiles and indexing the joint space. Online reconfiguration uses
    /// this to carry a model across a background rebuild instead of paying
    /// for retraining. The model's input dimensionality must match this
    /// catalog's profile vectors (i.e. the donor's `embedding_dim` /
    /// `joint_dim` are unchanged); the caller checks that.
    pub fn adopt_joint(&mut self, model: Arc<JointModel>) {
        let embeddings: HashMap<DeId, Vec<f32>> = self
            .profiled
            .profiles
            .iter()
            .map(|(&id, profile)| (id, model.embed(&profile.solo)))
            .collect();
        Arc::make_mut(&mut self.indexes).install_joint(&self.profiled, embeddings, &self.config);
        self.joint = Some(model);
        self.generation += 1;
        self.checkpoint_best_effort();
    }

    /// The profiler (exposed for query-text transformation).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The current catalog generation (bumped once per ingestion batch and
    /// per compaction).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Raise the generation to at least `floor`. Online reconfiguration
    /// calls this on a freshly rebuilt catalog before swapping it in, so
    /// generation-keyed caches (which assume the published generation is
    /// monotonic) observe the swap as a new generation rather than a
    /// replay of an old one. Never lowers the generation.
    pub fn set_generation_floor(&mut self, floor: u64) {
        if floor > self.generation {
            self.generation = floor;
        }
    }

    /// Pin the current generation: a cheap, immutable, internally consistent
    /// view of the lake, profiles, indexes, and joint model. Readers
    /// holding a snapshot are unaffected by later ingestion batches (writers
    /// mutate copy-on-write).
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            generation: self.generation,
            config: self.config.clone(),
            profiled: Arc::clone(&self.profiled),
            indexes: Arc::clone(&self.indexes),
            joint: self.joint.clone(),
            profiler: Arc::clone(&self.profiler),
            pkfk: Arc::clone(&self.pkfk),
        }
    }

    /// Reassemble a catalog from a pinned snapshot. The result shares the
    /// snapshot's `Arc`s (so construction is O(1)); the first mutation on
    /// either side copies-on-write, exactly as with a concurrent reader.
    /// The clone is in-memory only (no persist handle) and carries no
    /// training artifacts — it is a *serving* catalog that answers exactly
    /// as the snapshot does until its first mutation.
    pub fn from_snapshot(snapshot: CatalogSnapshot) -> Self {
        let profiler = Arc::clone(&snapshot.profiler);
        Self {
            config: snapshot.config,
            profiled: snapshot.profiled,
            indexes: snapshot.indexes,
            profiler,
            joint: snapshot.joint,
            generation: snapshot.generation,
            training_report: None,
            persist: None,
            recovery: None,
            pkfk: snapshot.pkfk,
        }
    }

    /// Generate the weakly-supervised training dataset, train the joint
    /// representation model, embed every element, and index the joint
    /// embeddings. `gold` optionally supplies gold labels for labeling-
    /// function pruning.
    pub fn train_joint(&mut self, gold: Option<&[GoldLabel]>) -> JointTrainingReport {
        self.train_joint_with_sample(gold, None)
    }

    /// Like [`train_joint`](Self::train_joint) but with an explicit sampling
    /// ratio override (used by the sampling-impact experiment, Figure 9a).
    pub fn train_joint_with_sample(
        &mut self,
        gold: Option<&[GoldLabel]>,
        sample_ratio: Option<f64>,
    ) -> JointTrainingReport {
        let generator = TrainingDatasetGenerator::new(&self.profiled, &self.indexes, &self.config);
        let (dataset, gen_report) = generator.generate(gold, sample_ratio);
        let trainer = JointTrainer::new(&self.config);
        let (model, report) = trainer.train(&self.profiled, &dataset);

        // Embed every element and index the joint space.
        let embeddings: HashMap<DeId, Vec<f32>> = self
            .profiled
            .profiles
            .iter()
            .map(|(&id, profile)| (id, model.embed(&profile.solo)))
            .collect();
        Arc::make_mut(&mut self.indexes).install_joint(&self.profiled, embeddings, &self.config);
        self.joint = Some(Arc::new(model));
        self.training_report = Some(gen_report);
        self.generation += 1;
        // The joint model is not WAL-covered (it is not a queue mutation),
        // so persist it eagerly via a checkpoint.
        self.checkpoint_best_effort();
        report
    }

    // ------------------------------------------------------------------
    // Discovery (delegating to the current-generation snapshot)
    // ------------------------------------------------------------------

    /// Execute one typed [`DiscoveryQuery`] against the current generation.
    /// Equivalent to `self.snapshot().execute(query)`.
    pub fn execute(&self, query: &DiscoveryQuery) -> Result<QueryResponse, CmdlError> {
        self.snapshot().execute(query)
    }

    /// Execute a batch of queries in parallel against one pinned generation
    /// (all queries see the same consistent catalog).
    pub fn execute_many(
        &self,
        queries: &[DiscoveryQuery],
    ) -> Vec<Result<QueryResponse, CmdlError>> {
        self.snapshot().execute_many(queries)
    }

    // ------------------------------------------------------------------
    // Incremental ingestion
    // ------------------------------------------------------------------

    /// Ingest a new table: profile only its columns and apply the delta to
    /// every index in place (no rebuild); when the joint model is trained,
    /// the new columns are embedded into the joint space immediately.
    /// Returns the table index.
    ///
    /// Table names address tables throughout the discovery API, so ingesting
    /// a name that is already live is rejected (remove the old table first;
    /// reusing the name of a *removed* table is fine).
    pub fn ingest_table(&mut self, table: Table) -> Result<usize, CmdlError> {
        if self.profiled.lake.table(&table.name).is_some() {
            return Err(CmdlError::DuplicateTable(table.name));
        }
        self.wal_append(&WalRecord::IngestTable(table.clone()))?;
        let profiled = Arc::make_mut(&mut self.profiled);
        let table_idx = profiled.lake.add_table(table);
        let new_profiles: Vec<crate::profile::DeProfile> = {
            let table_ref = &profiled.lake.tables()[table_idx];
            (0..table_ref.num_columns())
                .map(|c| {
                    let id = profiled.lake.column_id(table_idx, c).ok_or_else(|| {
                        CmdlError::Internal(format!(
                            "freshly added column {c} of table {} has no id",
                            table_ref.name
                        ))
                    })?;
                    Ok(self.profiler.profile_element(
                        id,
                        ElementData::Column {
                            table_name: &table_ref.name,
                            column: &table_ref.columns[c],
                            table_rows: table_ref.num_rows(),
                        },
                    ))
                })
                .collect::<Result<_, CmdlError>>()?
        };
        let indexes = Arc::make_mut(&mut self.indexes);
        for profile in new_profiles {
            indexes.ingest_profile(&profile);
            if let Some(model) = &self.joint {
                indexes.ingest_joint(&profile, model.embed(&profile.solo));
            }
            profiled.column_ids.push(profile.id);
            profiled.profiles.insert(profile.id, Arc::new(profile));
        }
        self.pkfk = PkFkSlot::default();
        self.generation += 1;
        self.maybe_compact();
        Ok(table_idx)
    }

    /// Ingest a new document: profile only the new element and apply the
    /// delta to every index in place. The corpus document-frequency
    /// statistics are updated incrementally, and any document whose
    /// filtered content is affected by a keep-status flip is re-derived
    /// from its raw bag and re-indexed — so the profiles always match what
    /// a batch rebuild over the full corpus would produce. Returns the
    /// document index.
    pub fn ingest_document(&mut self, document: Document) -> Result<usize, CmdlError> {
        self.wal_append(&WalRecord::IngestDocument(document.clone()))?;
        let raw = self.profiler.doc_pipeline().process(&document.text);
        let profiled = Arc::make_mut(&mut self.profiled);
        // Which terms flip keep-status under the corpus update? (Every
        // term's ratio shifts when the document count changes, so the whole
        // df table is examined — it only holds document vocabulary.)
        let flipped: HashSet<String> = {
            let df = &profiled.doc_df;
            let n_old = df.num_docs();
            let n_new = n_old + 1;
            df.iter()
                .filter(|(term, dfc)| {
                    let dfc_new = dfc + u32::from(raw.contains(term));
                    df.would_keep(*dfc, n_old) != df.would_keep(dfc_new, n_new)
                })
                .map(|(term, _)| term.to_string())
                .collect()
        };
        profiled.doc_df.observe(&raw);

        let doc_idx = profiled.lake.add_document(document);
        let id = profiled.lake.document_id(doc_idx).ok_or_else(|| {
            CmdlError::Internal(format!("freshly added document {doc_idx} has no id"))
        })?;
        let profile = self.profiler.profile_element(
            id,
            ElementData::Document {
                document: &profiled.lake.documents()[doc_idx],
                raw,
                df: &profiled.doc_df,
            },
        );

        let indexes = Arc::make_mut(&mut self.indexes);
        Self::patch_flipped_documents(
            profiled,
            indexes,
            &self.profiler,
            self.joint.as_deref(),
            &flipped,
        );
        indexes.ingest_profile(&profile);
        if let Some(model) = &self.joint {
            indexes.ingest_joint(&profile, model.embed(&profile.solo));
        }
        profiled.doc_ids.push(id);
        profiled.profiles.insert(id, Arc::new(profile));
        self.generation += 1;
        self.maybe_compact();
        Ok(doc_idx)
    }

    /// Remove a table: its columns are tombstoned in every index (space is
    /// reclaimed by the next [`compact`](Self::compact)) and their profiles
    /// dropped. Returns the number of removed elements.
    pub fn remove_table(&mut self, name: &str) -> Result<usize, CmdlError> {
        if self.profiled.lake.table_index(name).is_none() {
            return Err(CmdlError::UnknownTable(name.to_string()));
        }
        self.wal_append(&WalRecord::RemoveTable {
            name: name.to_string(),
        })?;
        let profiled = Arc::make_mut(&mut self.profiled);
        let removed = profiled
            .lake
            .remove_table(name)
            .ok_or_else(|| CmdlError::Internal(format!("table {name} was not live on removal")))?;
        let indexes = Arc::make_mut(&mut self.indexes);
        let removed_set: HashSet<DeId> = removed.iter().copied().collect();
        for id in &removed {
            if let Some(profile) = profiled.profiles.remove(id) {
                indexes.remove_element(&profile);
            }
        }
        profiled.column_ids.retain(|id| !removed_set.contains(id));
        self.pkfk = PkFkSlot::default();
        self.generation += 1;
        self.maybe_compact();
        Ok(removed.len())
    }

    /// Remove a document by index: the element is tombstoned in every
    /// index, and the corpus document-frequency statistics are retracted
    /// (with the same flip-patching as ingestion).
    pub fn remove_document(&mut self, index: usize) -> Result<(), CmdlError> {
        match self.profiled.lake.document_id(index) {
            Some(id) if self.profiled.profiles.contains_key(&id) => {}
            _ => return Err(CmdlError::UnknownDocument(index)),
        }
        self.wal_append(&WalRecord::RemoveDocument { index })?;
        let profiled = Arc::make_mut(&mut self.profiled);
        let id = profiled
            .lake
            .document_id(index)
            .ok_or(CmdlError::UnknownDocument(index))?;
        let profile = profiled
            .profiles
            .remove(&id)
            .ok_or(CmdlError::UnknownDocument(index))?;
        profiled.lake.remove_document(index);
        profiled.doc_ids.retain(|d| *d != id);

        let raw = profile.raw_content.clone().unwrap_or_else(BagOfWords::new);
        let flipped: HashSet<String> = {
            let df = &profiled.doc_df;
            let n_old = df.num_docs();
            let n_new = n_old.saturating_sub(1);
            df.iter()
                .filter(|(term, dfc)| {
                    let dfc_new = dfc - u32::from(raw.contains(term));
                    df.would_keep(*dfc, n_old) != df.would_keep(dfc_new, n_new)
                })
                .map(|(term, _)| term.to_string())
                .collect()
        };
        profiled.doc_df.unobserve(&raw);

        let indexes = Arc::make_mut(&mut self.indexes);
        indexes.remove_element(&profile);
        Self::patch_flipped_documents(
            profiled,
            indexes,
            &self.profiler,
            self.joint.as_deref(),
            &flipped,
        );
        self.generation += 1;
        self.maybe_compact();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Sharded serving support (see `crate::shard`)
    // ------------------------------------------------------------------

    /// The id the next added element will receive. The shard router mirrors
    /// a *global* id counter across its shards (via
    /// [`set_next_element_id`](Self::set_next_element_id)) so a partitioned
    /// build assigns every element exactly the id a single unpartitioned
    /// build would.
    pub fn next_element_id(&self) -> u64 {
        self.profiled.lake.next_id()
    }

    /// Pin the id counter for the next ingest (see
    /// [`next_element_id`](Self::next_element_id)). Only safe to *raise*
    /// the counter; the shard router uses it to keep global ids unique
    /// across shards.
    pub fn set_next_element_id(&mut self, next_id: u64) {
        Arc::make_mut(&mut self.profiled).lake.set_next_id(next_id);
    }

    /// Record that a document was ingested into a *different* shard of the
    /// same logical lake: fold its raw bag into this catalog's corpus
    /// document-frequency statistics and re-derive any local document whose
    /// keep-status flipped — exactly the DF bookkeeping
    /// [`ingest_document`](Self::ingest_document) performs, minus the
    /// local element. Keeps every shard's corpus statistics global, so a
    /// shard-resident profile is always bit-identical to the one a single
    /// unpartitioned catalog would hold.
    pub fn note_foreign_document(&mut self, raw: &BagOfWords) {
        let profiled = Arc::make_mut(&mut self.profiled);
        let flipped: HashSet<String> = {
            let df = &profiled.doc_df;
            let n_old = df.num_docs();
            let n_new = n_old + 1;
            df.iter()
                .filter(|(term, dfc)| {
                    let dfc_new = dfc + u32::from(raw.contains(term));
                    df.would_keep(*dfc, n_old) != df.would_keep(dfc_new, n_new)
                })
                .map(|(term, _)| term.to_string())
                .collect()
        };
        profiled.doc_df.observe(raw);
        let indexes = Arc::make_mut(&mut self.indexes);
        Self::patch_flipped_documents(
            profiled,
            indexes,
            &self.profiler,
            self.joint.as_deref(),
            &flipped,
        );
        self.generation += 1;
    }

    /// The removal counterpart of
    /// [`note_foreign_document`](Self::note_foreign_document): retract a
    /// foreign document's raw bag from the corpus statistics and patch
    /// local flips.
    pub fn note_foreign_document_removed(&mut self, raw: &BagOfWords) {
        let profiled = Arc::make_mut(&mut self.profiled);
        let flipped: HashSet<String> = {
            let df = &profiled.doc_df;
            let n_old = df.num_docs();
            let n_new = n_old.saturating_sub(1);
            df.iter()
                .filter(|(term, dfc)| {
                    let dfc_new = dfc - u32::from(raw.contains(term));
                    df.would_keep(*dfc, n_old) != df.would_keep(dfc_new, n_new)
                })
                .map(|(term, _)| term.to_string())
                .collect()
        };
        profiled.doc_df.unobserve(raw);
        let indexes = Arc::make_mut(&mut self.indexes);
        Self::patch_flipped_documents(
            profiled,
            indexes,
            &self.profiler,
            self.joint.as_deref(),
            &flipped,
        );
        self.generation += 1;
    }

    /// Re-derive and re-index every live document whose raw content bag
    /// contains a term whose keep-status flipped under a corpus update.
    fn patch_flipped_documents(
        profiled: &mut ProfiledLake,
        indexes: &mut IndexCatalog,
        profiler: &Profiler,
        joint: Option<&JointModel>,
        flipped: &HashSet<String>,
    ) {
        if flipped.is_empty() {
            return;
        }
        let affected: Vec<DeId> = profiled
            .doc_ids
            .iter()
            .copied()
            .filter(|id| {
                profiled
                    .profiles
                    .get(id)
                    .and_then(|p| p.raw_content.as_ref())
                    .map(|raw| flipped.iter().any(|t| raw.contains(t)))
                    .unwrap_or(false)
            })
            .collect();
        // Only the re-derived documents are copied out of the profiles this
        // generation shares with pinned snapshots.
        let ProfiledLake {
            profiles, doc_df, ..
        } = profiled;
        for id in affected {
            let Some(profile) = profiles.get_mut(&id).map(Arc::make_mut) else {
                continue;
            };
            profiler.refresh_document_content(profile, doc_df);
            indexes.reindex_document_content(profile);
            if let Some(model) = joint {
                indexes.ingest_joint(profile, model.embed(&profile.solo));
            }
        }
    }

    /// Fold all delta state (tombstones, pending LSH inserts, ANN delta
    /// tails, stale IDF) back into the dense layouts. After `compact`, the
    /// catalog is structurally identical to a batch build over the surviving
    /// elements.
    ///
    /// On a persistent catalog, compaction also writes a new segment
    /// generation and truncates the WAL. A checkpoint failure is logged
    /// and never propagated: every acknowledged mutation is already
    /// fsynced in the WAL, so a failed checkpoint costs replay time on the
    /// next open, not durability.
    pub fn compact(&mut self) {
        Arc::make_mut(&mut self.indexes).compact(&self.profiled, &self.config);
        self.generation += 1;
        self.checkpoint_best_effort();
    }

    /// Run [`compact`](Self::compact) if any index's delta state exceeds the
    /// configured `compaction_ratio` (the periodic-compaction policy).
    fn maybe_compact(&mut self) {
        if self.indexes.delta_pressure() > self.config.compaction_ratio {
            self.compact();
        }
    }
}

fn parse<T: Deserialize>(name: &str, bytes: &[u8]) -> Result<T, PersistError> {
    serde::from_bin_bytes(bytes)
        .map_err(|e| PersistError::Corrupt(format!("section '{name}' failed to decode: {e}")))
}

/// Bytes a segment's `config` section carries past the current
/// [`CmdlConfig`] when it was written while the config still had its two
/// read-replica fields (replica count and lag bound, 8 bytes each).
const RETIRED_CONFIG_TAIL: usize = 16;

/// Decode a segment's `config` section. A section from before the two
/// replication fields were removed decodes with their bytes dropped:
/// nothing reads them, and failing the load would degrade the directory
/// to rebuild-from-source and set its WAL aside.
fn decode_config(bytes: &[u8]) -> Result<CmdlConfig, PersistError> {
    parse("config", bytes).or_else(|error| match bytes.len().checked_sub(RETIRED_CONFIG_TAIL) {
        Some(len) => parse("config", &bytes[..len]).map_err(|_| error),
        None => Err(error),
    })
}

/// Classify a [`PersistError`] into the typed error surface.
fn persist_err(e: PersistError) -> CmdlError {
    match e {
        PersistError::NewerLayout { found, supported } => {
            CmdlError::NewerLayout { found, supported }
        }
        other => CmdlError::Persist(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Hit, QueryBuilder};
    use cmdl_datalake::{synth, DeKind};

    fn system() -> Cmdl {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        Cmdl::build(lake, CmdlConfig::fast())
    }

    #[test]
    fn config_sections_from_before_the_replica_fields_still_decode() {
        let config = CmdlConfig {
            shards: 3,
            ..CmdlConfig::fast()
        };
        let current = serde::to_bin_bytes(&config);
        assert_eq!(decode_config(&current).unwrap(), config);
        // The retired fields were the last two, so an old section is the
        // current bytes plus two 8-byte integers.
        let mut retired = current.clone();
        retired.extend_from_slice(&2u64.to_le_bytes());
        retired.extend_from_slice(&8u64.to_le_bytes());
        assert_eq!(decode_config(&retired).unwrap(), config);
        // Any other tail is still corruption.
        let mut torn = current;
        torn.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_config(&torn),
            Err(PersistError::Corrupt(reason)) if reason.contains("8 trailing bytes")
        ));
    }

    #[test]
    fn a_newer_manifest_version_is_refused_and_the_directory_left_alone() {
        use crate::persist::{decode_manifest, encode_manifest, MANIFEST_NAME};
        let dir = std::env::temp_dir().join(format!("cmdl-newer-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        let mut cmdl = Cmdl::open(&dir, CmdlConfig::fast(), move || lake).unwrap();
        // An acknowledged mutation that only the WAL holds.
        cmdl.ingest_document(Document::new("Note", "test", "aspirin inhibits cox"))
            .unwrap();
        drop(cmdl);
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut manifest = decode_manifest(&std::fs::read(&manifest_path).unwrap()).unwrap();
        manifest.version = 2;
        std::fs::write(&manifest_path, encode_manifest(&manifest).unwrap()).unwrap();
        let files = || -> std::collections::BTreeMap<String, Vec<u8>> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&path).unwrap())
                })
                .collect()
        };
        let before = files();
        let opened = Cmdl::open(&dir, CmdlConfig::fast(), || {
            panic!("a newer directory must not be rebuilt from source")
        });
        assert!(matches!(
            opened,
            Err(CmdlError::NewerLayout {
                found: 2,
                supported: 1
            })
        ));
        let after = files();
        assert!(after.keys().all(|name| !name.contains("salvaged")));
        assert_eq!(after, before, "every file byte-unchanged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Execute a query against the current generation and keep the hits.
    fn hits(cmdl: &Cmdl, query: QueryBuilder) -> Result<Vec<Hit>, CmdlError> {
        cmdl.execute(&query.build()).map(|response| response.hits)
    }

    fn keyword(cmdl: &Cmdl, text: &str, mode: SearchMode, top_k: usize) -> Vec<Hit> {
        hits(cmdl, QueryBuilder::keyword(text).mode(mode).top_k(top_k)).unwrap()
    }

    #[test]
    fn build_profiles_and_indexes() {
        let cmdl = system();
        assert!(!cmdl.profiled.is_empty());
        assert!(!cmdl.indexes.content.is_empty());
        assert!(cmdl.joint_model().is_none());
    }

    #[test]
    fn content_search_modes() {
        let cmdl = system();
        let drug = cmdl
            .profiled
            .lake
            .table("Drugs")
            .unwrap()
            .column("Drug")
            .unwrap()
            .values[0]
            .as_text();
        let docs = keyword(&cmdl, &drug, SearchMode::Text, 5);
        let cols = keyword(&cmdl, &drug, SearchMode::Tables, 5);
        assert!(docs.iter().all(|r| matches!(
            cmdl.profiled.profile(r.element.unwrap()).unwrap().kind,
            DeKind::Document
        )));
        assert!(cols.iter().all(|r| matches!(
            cmdl.profiled.profile(r.element.unwrap()).unwrap().kind,
            DeKind::Column
        )));
        assert!(!cols.is_empty());
    }

    #[test]
    fn cross_modal_search_solo_finds_entity_tables() {
        let cmdl = system();
        let results = hits(&cmdl, QueryBuilder::cross_modal_doc(0).top_k(4)).unwrap();
        assert!(!results.is_empty());
        let tables: Vec<&str> = results.iter().filter_map(|r| r.table.as_deref()).collect();
        assert!(
            tables.iter().any(|t| *t == "Drugs"
                || *t == "Enzyme_Targets"
                || *t == "Enzymes"
                || t.contains("Drug")
                || t.contains("proj")),
            "expected entity tables, got {tables:?}"
        );
    }

    #[test]
    fn cross_modal_unknown_document_errors() {
        let cmdl = system();
        assert!(matches!(
            hits(&cmdl, QueryBuilder::cross_modal_doc(10_000).top_k(3)),
            Err(CmdlError::UnknownDocument(_))
        ));
    }

    #[test]
    fn train_joint_installs_joint_index() {
        let mut cmdl = system();
        let report = cmdl.train_joint(None);
        assert!(report.epochs >= 1);
        assert!(cmdl.joint_model().is_some());
        assert!(cmdl.indexes.joint_ann.is_some());
        assert!(cmdl.training_report.as_ref().unwrap().candidate_pairs > 0);
        // Cross-modal search now uses the joint space without breaking.
        let results = hits(&cmdl, QueryBuilder::cross_modal_doc(0).top_k(3)).unwrap();
        assert!(!results.is_empty());
    }

    #[test]
    fn joinable_and_pkfk_and_unionable() {
        let cmdl = system();
        let joins = hits(&cmdl, QueryBuilder::joinable("Drugs").top_k(3)).unwrap();
        assert!(!joins.is_empty());
        assert!(hits(&cmdl, QueryBuilder::joinable("NoSuch").top_k(3)).is_err());

        let cols = hits(&cmdl, QueryBuilder::joinable_column("Drugs", "Id").top_k(5)).unwrap();
        assert!(!cols.is_empty());
        assert!(hits(
            &cmdl,
            QueryBuilder::joinable_column("Drugs", "NoCol").top_k(5)
        )
        .is_err());

        let links = hits(&cmdl, QueryBuilder::pkfk().top_k(usize::MAX)).unwrap();
        assert!(!links.is_empty());
        // Bounded PK-FK discovery: a prefix of the full ranking, thresholded.
        let top = hits(&cmdl, QueryBuilder::pkfk().top_k(1)).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0], links[0]);
        assert!(
            hits(&cmdl, QueryBuilder::pkfk().top_k(usize::MAX).min_score(2.0))
                .unwrap()
                .is_empty()
        );

        let unions = hits(&cmdl, QueryBuilder::unionable("Drugs").top_k(3)).unwrap();
        // Projections of Drugs exist in the synthetic lake.
        assert!(unions
            .iter()
            .filter_map(|hit| hit.union.as_ref())
            .any(|u| u.table.contains("proj") || !u.table.is_empty()));
    }

    #[test]
    fn ingest_table_serves_queries_without_rebuild() {
        let mut cmdl = system();
        let gen0 = cmdl.generation();
        let columns_before = cmdl.profiled.column_ids.len();
        let idx = cmdl
            .ingest_table(cmdl_datalake::Table::new(
                "Trial_Sites",
                vec![
                    cmdl_datalake::Column::from_texts(
                        "Site",
                        [
                            "Boston General",
                            "Lyon Institute",
                            "Osaka Center",
                            "Tucson Labs",
                        ],
                    ),
                    cmdl_datalake::Column::from_texts(
                        "Principal_Investigator",
                        ["Dr. Alvarez", "Dr. Benoit", "Dr. Chen", "Dr. Drummond"],
                    ),
                ],
            ))
            .unwrap();
        // A live-name collision is rejected instead of silently conflating
        // two tables under one name.
        assert!(matches!(
            cmdl.ingest_table(cmdl_datalake::Table::new("Trial_Sites", vec![])),
            Err(CmdlError::DuplicateTable(_))
        ));
        assert!(cmdl.generation() > gen0);
        assert_eq!(cmdl.profiled.column_ids.len(), columns_before + 2);
        assert!(cmdl.profiled.lake.table("Trial_Sites").is_some());
        assert_eq!(cmdl.profiled.lake.tables()[idx].name, "Trial_Sites");
        // The new columns are discoverable right away.
        let hits = keyword(&cmdl, "Lyon Institute", SearchMode::Tables, 5);
        assert!(
            hits.iter()
                .any(|r| r.table.as_deref() == Some("Trial_Sites")),
            "expected Trial_Sites among {hits:?}"
        );
    }

    #[test]
    fn ingest_document_updates_corpus_statistics() {
        let mut cmdl = system();
        let docs_before = cmdl.profiled.doc_ids.len();
        let df_docs_before = cmdl.profiled.doc_df.num_docs();
        let idx = cmdl
            .ingest_document(cmdl_datalake::Document::new(
                "xanthine-oxidase-note",
                "PubMed",
                "Febuxostat potently inhibits xanthine oxidase in hyperuricemia patients.",
            ))
            .unwrap();
        assert_eq!(cmdl.profiled.doc_ids.len(), docs_before + 1);
        assert_eq!(cmdl.profiled.doc_df.num_docs(), df_docs_before + 1);
        let id = cmdl.profiled.lake.document_id(idx).unwrap();
        let profile = cmdl.profiled.profile(id).unwrap();
        assert!(profile.raw_content.is_some());
        let hits = keyword(&cmdl, "febuxostat xanthine", SearchMode::Text, 5);
        assert!(
            hits.iter().any(|r| r.element == Some(id)),
            "new document must be searchable, got {hits:?}"
        );
    }

    #[test]
    fn remove_table_and_document_tombstone_everywhere() {
        let mut cmdl = system();
        assert!(matches!(
            cmdl.remove_table("NoSuch"),
            Err(CmdlError::UnknownTable(_))
        ));
        let removed = cmdl.remove_table("Enzymes").unwrap();
        assert!(removed > 0);
        assert!(cmdl.profiled.lake.table("Enzymes").is_none());
        assert!(hits(&cmdl, QueryBuilder::joinable("Enzymes").top_k(3)).is_err());
        for r in keyword(&cmdl, "enzyme", SearchMode::Tables, 20) {
            assert_ne!(r.table.as_deref(), Some("Enzymes"));
        }

        let doc0 = cmdl.profiled.doc_ids[0];
        cmdl.remove_document(0).unwrap();
        assert!(matches!(
            cmdl.remove_document(0),
            Err(CmdlError::UnknownDocument(0))
        ));
        assert!(cmdl.profiled.profile(doc0).is_none());
        assert!(!cmdl.profiled.doc_ids.contains(&doc0));
        for r in keyword(&cmdl, "drug", SearchMode::Text, 50) {
            assert_ne!(r.element, Some(doc0));
        }
        // Compaction folds everything back and keeps queries working.
        cmdl.compact();
        assert_eq!(
            cmdl.indexes.delta_stats(),
            crate::indexes::DeltaStats::default()
        );
        assert!(!keyword(&cmdl, "drug", SearchMode::All, 5).is_empty());
    }

    #[test]
    fn removed_table_name_can_be_reingested() {
        let mut cmdl = system();
        cmdl.remove_table("Dosages").unwrap();
        cmdl.ingest_table(cmdl_datalake::Table::new(
            "Dosages",
            vec![cmdl_datalake::Column::from_texts(
                "Dose_Label",
                ["low", "medium", "high"],
            )],
        ))
        .unwrap();
        // The dead slot must not shadow the live replacement anywhere.
        assert!(cmdl.profiled.lake.table("Dosages").is_some());
        assert!(hits(&cmdl, QueryBuilder::joinable("Dosages").top_k(3)).is_ok());
        assert!(hits(&cmdl, QueryBuilder::unionable("Dosages").top_k(3)).is_ok());
    }

    #[test]
    fn snapshot_isolated_from_writer() {
        let mut cmdl = system();
        let snap = cmdl.snapshot();
        let query = QueryBuilder::keyword("drug").top_k(10).build();
        let before = snap.execute(&query).unwrap().hits;
        let tables_before = snap.profiled.lake.num_tables();

        cmdl.ingest_table(cmdl_datalake::Table::new(
            "Drug_Recalls",
            vec![cmdl_datalake::Column::from_texts(
                "Recalled_Drug",
                ["Pemetrexed", "Citric Acid", "Geneticin"],
            )],
        ))
        .unwrap();
        cmdl.remove_table("Dosages").unwrap();
        cmdl.compact();

        // The reader's pinned generation is untouched.
        assert_eq!(snap.profiled.lake.num_tables(), tables_before);
        assert!(snap.profiled.lake.table("Dosages").is_some());
        assert!(snap.profiled.lake.table("Drug_Recalls").is_none());
        assert_eq!(snap.execute(&query).unwrap().hits, before);
        // The writer sees the new generation.
        assert!(cmdl.generation() > snap.generation);
        assert!(cmdl.profiled.lake.table("Drug_Recalls").is_some());
        assert!(cmdl.profiled.lake.table("Dosages").is_none());
    }

    #[test]
    fn new_generation_shares_untouched_profiles() {
        // Five documents, three of them mentioning "thymidylate": its
        // document-frequency ratio sits exactly at the 0.6 keep bound, so a
        // sixth mention drops it and re-derives those three documents.
        let mut lake = DataLake::new("flip");
        lake.add_table(Table::new(
            "Drugs",
            vec![cmdl_datalake::Column::from_texts(
                "Drug",
                ["Pemetrexed", "Febuxostat", "Geneticin"],
            )],
        ));
        for (title, text) in [
            ("a", "thymidylate synthase inhibition by pemetrexed"),
            ("b", "thymidylate metabolism in leukemia cells"),
            ("c", "thymidylate kinase structure"),
            ("d", "febuxostat lowers uric acid"),
            ("e", "geneticin selects resistant clones"),
        ] {
            lake.add_document(Document::new(title, "PubMed", text));
        }
        let mut cmdl = Cmdl::build(lake, CmdlConfig::fast());
        let pinned = cmdl.snapshot();
        cmdl.ingest_document(Document::new(
            "f",
            "PubMed",
            "thymidylate depletion arrests replication",
        ))
        .unwrap();

        let rederived: HashSet<DeId> = pinned.profiled.doc_ids[..3].iter().copied().collect();
        assert_eq!(pinned.profiled.len() + 1, cmdl.profiled.len());
        for (id, old) in &pinned.profiled.profiles {
            let new = &cmdl.profiled.profiles[id];
            if rederived.contains(id) {
                assert!(!Arc::ptr_eq(old, new), "{} was re-derived", old.name);
                assert!(old.content.contains("thymidylate"));
                assert!(!new.content.contains("thymidylate"));
            } else {
                assert!(Arc::ptr_eq(old, new), "{} should be shared", old.name);
            }
        }
    }

    #[test]
    fn snapshot_readable_from_another_thread() {
        let mut cmdl = system();
        let snap = cmdl.snapshot();
        let reader = std::thread::spawn(move || {
            let response = snap
                .execute(&QueryBuilder::keyword("drug").top_k(5).build())
                .unwrap();
            (snap.generation, response.hits.len())
        });
        cmdl.ingest_document(cmdl_datalake::Document::new(
            "note",
            "PubMed",
            "A short pharmacology note.",
        ))
        .unwrap();
        let (gen, hits) = reader.join().expect("reader thread");
        assert_eq!(gen, 0);
        assert!(hits > 0);
    }

    #[test]
    fn ingest_after_training_embeds_into_joint_space() {
        let mut cmdl = system();
        cmdl.train_joint(None);
        let joint_before = cmdl.indexes.joint_embeddings.len();
        cmdl.ingest_table(cmdl_datalake::Table::new(
            "Adverse_Events",
            vec![cmdl_datalake::Column::from_texts(
                "Event",
                ["nausea", "headache", "fatigue", "dizziness"],
            )],
        ))
        .unwrap();
        assert!(cmdl.indexes.joint_embeddings.len() > joint_before);
        // Cross-modal search still works over the grown joint space.
        let cross_modal = QueryBuilder::cross_modal_doc(0).top_k(3);
        assert!(!hits(&cmdl, cross_modal.clone()).unwrap().is_empty());
        cmdl.compact();
        assert!(!hits(&cmdl, cross_modal).unwrap().is_empty());
    }
}
