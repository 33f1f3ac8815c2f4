//! # cmdl-core
//!
//! The CMDL system (paper Sections 2–5): preprocessing and profiling of
//! discoverable elements, the indexing framework, the weakly-supervised
//! training-dataset generator, the joint-representation model, and the
//! SRQL-style discovery interface.
//!
//! The typical flow mirrors Figure 2 of the paper:
//!
//! ```text
//! DataLake ──Profiler──▶ ProfiledLake ──IndexCatalog──▶ indexes
//!                                   │
//!                TrainingDatasetGenerator (weak supervision over the indexes)
//!                                   │
//!                        JointTrainer (triplet loss MLP)
//!                                   │
//!                   Discovery interface (Cmdl)
//! ```
//!
//! The [`Cmdl`] façade wires all stages together; discovery runs through
//! the unified typed-query API (see [`query`]):
//!
//! ```no_run
//! use cmdl_core::{Cmdl, CmdlConfig, QueryBuilder};
//! use cmdl_datalake::synth;
//!
//! let lake = synth::pharma();
//! let mut system = Cmdl::build(lake.lake, CmdlConfig::fast());
//! system.train_joint(None);
//! let response = system
//!     .execute(
//!         &QueryBuilder::cross_modal_text("pemetrexed inhibits thymidylate synthase")
//!             .top_k(3)
//!             .build(),
//!     )
//!     .unwrap();
//! println!("{:?}", response.hits);
//! ```
//!
//! For horizontally partitioned serving, [`shard::ShardedCmdl`] splits the
//! lake across N catalogs and answers every query with results bit-identical
//! to a single catalog.

#![warn(missing_docs)]

pub mod column_index;
pub mod config;
pub mod discovery;
pub mod error;
pub mod indexes;
pub mod join;
pub mod joint;
pub mod persist;
pub mod profile;
pub mod query;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod training;
pub mod union;

pub use column_index::ColumnIndex;
pub use config::{CmdlConfig, CrossModalStrategy, HardSampling, ShardPolicy};
pub use discovery::{Cmdl, SearchMode};
pub use error::{CmdlError, ErrorCode};
pub use indexes::{DeltaStats, IndexCatalog};
pub use join::{JoinDiscovery, PkFkLink};
pub use joint::{JointModel, JointTrainer, JointTrainingReport};
pub use persist::{Fault, FaultPlan, Io, PersistError, RecoveryReport, WalRecord};
pub use profile::{ColumnTags, DeProfile, ElementData, ProfiledLake, Profiler};
pub use query::{
    DiscoveryQuery, DocQuery, Hit, QueryBuilder, QueryOptions, QueryResponse, ScoreBreakdown,
    Signal, SignalContribution, SignalWeights,
};
pub use shard::{ShardedCmdl, ShardedSnapshot};
pub use snapshot::CatalogSnapshot;
pub use stats::{CmdlStats, IndexSizes};
pub use training::{TrainingDataset, TrainingDatasetGenerator, TrainingPair};
pub use union::{UnionDiscovery, UnionScore};
