//! Generation snapshots of the CMDL catalog.
//!
//! [`CatalogSnapshot`] is an immutable, reference-counted view of everything
//! a discovery query needs: the profiled lake, the index catalog, the
//! (optionally trained) joint model, and the profiler. The [`Cmdl`]
//! façade hands out snapshots cheaply (a handful of `Arc` clones); writers
//! apply ingestion batches copy-on-write, so a reader holding a snapshot
//! keeps a fully consistent view — lake, profiles, and all four indexes from
//! the same generation — no matter how many batches land after it was taken.
//!
//! The snapshot is the single query boundary of the system: every discovery
//! query executes through [`execute`](CatalogSnapshot::execute) (defined in
//! [`crate::query`]) or [`execute_many`](CatalogSnapshot::execute_many)
//! against a pinned generation.
//!
//! A generation's PK-FK link set ([`PkFkLinkSet`]) does not depend on the
//! query, so it is kept with the generation: the first PK-FK query on a
//! generation sweeps it, every snapshot of that generation shares it, and
//! it is freed with the last generation that holds it. The links read only
//! the columns, so a writer starts an empty slot on a table ingest or
//! removal, and a generation that changed only documents, the joint model
//! or the index layout (compaction) keeps its predecessor's slot.
//!
//! Servers keep their current snapshot in an `RwLock` slot
//! that readers clone out of. [`publish`] and [`publish_if`] are the only
//! way a new generation enters such a slot: they swap under the write
//! guard and hand the retired generation back, so freeing it never happens
//! while readers wait on the lock.
//!
//! [`Cmdl`]: crate::discovery::Cmdl

use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::config::CmdlConfig;
use crate::indexes::IndexCatalog;
use crate::join::PkFkLinkSet;
use crate::joint::JointModel;
use crate::profile::{ProfiledLake, Profiler};

/// A consistent, immutable view of one catalog generation.
#[derive(Clone)]
pub struct CatalogSnapshot {
    /// The generation this snapshot pins (bumped per ingestion batch).
    pub generation: u64,
    /// System configuration at snapshot time.
    pub config: CmdlConfig,
    /// The profiled lake.
    pub profiled: Arc<ProfiledLake>,
    /// The index catalog.
    pub indexes: Arc<IndexCatalog>,
    /// The trained joint model, if any.
    pub joint: Option<Arc<JointModel>>,
    /// The profiler (for query-text transformation).
    pub profiler: Arc<Profiler>,
    /// This generation's PK-FK link set, once a PK-FK query has swept it.
    pub(crate) pkfk: PkFkSlot,
}

/// A generation's PK-FK link set, filled by the first PK-FK query that
/// needs it and shared by every snapshot of the generations with the same
/// columns.
pub(crate) type PkFkSlot = Arc<OnceLock<PkFkLinkSet>>;

/// Store `next` in `slot` and return the value it replaced.
///
/// The write guard is released before this returns, so the caller drops
/// the retired value — possibly the last reference to a whole catalog
/// generation — while readers of `slot` go on unblocked. A poisoned slot
/// is written anyway: it always holds a whole value.
#[must_use = "drop the retired value once the lock is released"]
pub fn publish<T>(slot: &RwLock<T>, next: T) -> T {
    publish_if(slot, next, |_| true)
}

/// Like [`publish`], but only when `supersedes(current)` holds; otherwise
/// `slot` is left alone and `next` itself is handed back. Either way the
/// returned value is the one that lost its place, for the caller to drop
/// outside the lock.
#[must_use = "drop the retired value once the lock is released"]
pub fn publish_if<T>(slot: &RwLock<T>, next: T, supersedes: impl FnOnce(&T) -> bool) -> T {
    let mut current = slot.write().unwrap_or_else(PoisonError::into_inner);
    if supersedes(&current) {
        std::mem::replace(&mut *current, next)
    } else {
        next
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::RwLock;

    use cmdl_datalake::synth;

    use crate::config::CmdlConfig;
    use crate::discovery::Cmdl;
    use crate::query::QueryBuilder;

    #[test]
    fn snapshot_queries_match_live_system() {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        let cmdl = Cmdl::build(lake, CmdlConfig::fast());
        let snap = cmdl.snapshot();
        assert_eq!(snap.generation, cmdl.generation());
        for query in [
            QueryBuilder::keyword("drug").top_k(5).build(),
            QueryBuilder::joinable("Drugs").top_k(3).build(),
        ] {
            let live = cmdl.execute(&query).unwrap();
            let pinned = snap.execute(&query).unwrap();
            assert_eq!(live.generation, pinned.generation);
            assert_eq!(live.hits, pinned.hits, "{} diverges", query.kind());
        }
    }

    #[test]
    fn pkfk_link_set_follows_the_columns_not_the_generation() {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        let mut cmdl = Cmdl::build(lake, CmdlConfig::fast());
        let first = cmdl.snapshot();
        first.execute(&QueryBuilder::pkfk().build()).unwrap();
        assert!(first.pkfk.get().is_some(), "the first PK-FK query sweeps");

        cmdl.ingest_document(cmdl_datalake::Document::new("Note", "test", "a drug note"))
            .unwrap();
        cmdl.compact();
        let documents_only = cmdl.snapshot();
        assert!(documents_only.generation > first.generation);
        assert!(
            std::sync::Arc::ptr_eq(&first.pkfk, &documents_only.pkfk),
            "a document ingest and a compaction keep the link set"
        );

        let drugs = cmdl.profiled.lake.table("Drugs").unwrap().clone();
        cmdl.remove_table("Drugs").unwrap();
        let removed = cmdl.snapshot();
        assert!(
            removed.pkfk.get().is_none(),
            "a table removal starts a new set"
        );
        cmdl.ingest_table(drugs).unwrap();
        assert!(!std::sync::Arc::ptr_eq(
            &removed.pkfk,
            &cmdl.snapshot().pkfk
        ));
        assert!(first.pkfk.get().is_some(), "pinned snapshots keep theirs");
    }

    /// A value whose `Drop` records whether the slot it lived in could be
    /// read at that moment (1 = free, 2 = still write-locked).
    struct Probe(u64);

    static SLOT: RwLock<Probe> = RwLock::new(Probe(0));
    static SLOT_FREE_AT_DROP: AtomicU8 = AtomicU8::new(0);

    impl Drop for Probe {
        fn drop(&mut self) {
            if self.0 > 0 {
                let free = if SLOT.try_read().is_ok() { 1 } else { 2 };
                SLOT_FREE_AT_DROP.store(free, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn retired_values_are_dropped_outside_the_lock() {
        // Replaces the silent `Probe(0)`.
        drop(super::publish(&SLOT, Probe(1)));

        SLOT_FREE_AT_DROP.store(0, Ordering::SeqCst);
        drop(super::publish(&SLOT, Probe(2)));
        assert_eq!(
            SLOT_FREE_AT_DROP.load(Ordering::SeqCst),
            1,
            "replaced value"
        );

        // A rejected candidate is handed back, also outside the lock.
        SLOT_FREE_AT_DROP.store(0, Ordering::SeqCst);
        drop(super::publish_if(&SLOT, Probe(1), |current| current.0 <= 1));
        assert_eq!(
            SLOT_FREE_AT_DROP.load(Ordering::SeqCst),
            1,
            "rejected value"
        );
        assert_eq!(SLOT.read().unwrap().0, 2);

        SLOT_FREE_AT_DROP.store(0, Ordering::SeqCst);
        drop(super::publish_if(&SLOT, Probe(3), |current| current.0 <= 3));
        assert_eq!(
            SLOT_FREE_AT_DROP.load(Ordering::SeqCst),
            1,
            "superseded value"
        );
        assert_eq!(SLOT.read().unwrap().0, 3);
    }
}
