//! Generation snapshots of the CMDL catalog.
//!
//! [`CatalogSnapshot`] is an immutable, reference-counted view of everything
//! a discovery query needs: the profiled lake, the index catalog, the
//! (optionally trained) joint model, the EKG, and the profiler. The [`Cmdl`]
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
//! [`Cmdl`]: crate::discovery::Cmdl

use std::sync::Arc;

use crate::config::CmdlConfig;
use crate::ekg::Ekg;
use crate::indexes::IndexCatalog;
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
    /// The Enterprise Knowledge Graph.
    pub ekg: Arc<Ekg>,
    /// The profiler (for query-text transformation).
    pub profiler: Arc<Profiler>,
}

#[cfg(test)]
mod tests {
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
}
