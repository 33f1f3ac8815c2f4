//! Configuration of the CMDL system.
//!
//! Defaults follow the paper's "Default Settings" (Section 6): 10% sample for
//! labeling, 10% gold labels, 8% mini-batch matrix size, hard sampling with
//! an average-based cutoff, and a triplet-loss margin of 0.2.

use serde::{Deserialize, Serialize};

/// Hard-sampling strategy for triplet generation (paper Figure 5 / 10b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HardSampling {
    /// Keep negatives whose distance to the anchor is below the *average*
    /// negative distance (CMDL default).
    Average,
    /// Keep negatives below the *median* negative distance.
    Median,
    /// Disabled: generate all positive × negative combinations.
    Disabled,
}

/// How [`ShardedCmdl`](crate::shard::ShardedCmdl) assigns elements to
/// shards. Both policies are deterministic, so a partitioning is fully
/// reproducible from the ingest sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardPolicy {
    /// Route by a multiplicative hash of the element's first id (a table's
    /// first column id, a document's id). Stateless and uniform in
    /// expectation; the default.
    HashId,
    /// Route to the shard currently holding the fewest elements (ties break
    /// toward the lowest shard index). Keeps shard cardinalities within one
    /// element of each other under any ingest order.
    SizeBalanced,
}

/// Which representation the cross-modal (Doc→Table) search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossModalStrategy {
    /// Profiler solo embeddings only ("CMDL Solo Embedding" in Figure 6).
    SoloEmbedding,
    /// The learned joint representation ("CMDL Joint Embedding").
    JointEmbedding,
}

/// System-wide configuration.
///
/// Deserialization rejects unknown keys, so a config that still names a
/// removed or misspelled knob fails loudly instead of silently running
/// on defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CmdlConfig {
    /// Number of MinHash permutations per signature.
    pub minhash_hashes: usize,
    /// Solo-embedding dimensionality (the joint-model input is twice this).
    pub embedding_dim: usize,
    /// Joint-embedding (output) dimensionality.
    pub joint_dim: usize,
    /// Containment threshold for relationship materialization.
    pub containment_threshold: f64,
    /// Top-k used when probing indexes as labeling functions.
    pub label_probe_top_k: usize,
    /// Fraction of documents/columns sampled for training-dataset generation.
    pub sample_ratio: f64,
    /// Relatedness threshold separating positive from negative pairs.
    pub positive_threshold: f64,
    /// Mini-batch matrix size as a fraction of the training DEs.
    pub mini_batch_ratio: f64,
    /// Triplet-loss margin β.
    pub triplet_margin: f32,
    /// Hard-sampling strategy.
    pub hard_sampling: HardSampling,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Convergence threshold on the epoch-to-epoch loss delta.
    pub convergence_delta: f32,
    /// Adam learning rate for the joint model.
    pub learning_rate: f32,
    /// Minimum column distinct-count for it to participate in text discovery
    /// (as a fraction of table cardinality; the paper filters categorical
    /// columns with few distinct values).
    pub min_categorical_ratio: f64,
    /// PK uniqueness threshold: a column is a primary-key candidate when its
    /// uniqueness is at least this value.
    pub pk_uniqueness: f64,
    /// Name-similarity threshold used by the PK-FK discovery.
    pub pkfk_name_similarity: f64,
    /// Containment threshold used by the PK-FK discovery.
    pub pkfk_containment: f64,
    /// Weight of the embedding-cosine signal in the cross-modal (Doc→Table)
    /// score blend. Overridable per query via
    /// [`SignalWeights`](crate::query::SignalWeights).
    pub cross_modal_embed_weight: f64,
    /// Weight of the containment signal in the cross-modal score blend.
    pub cross_modal_containment_weight: f64,
    /// Weight of the containment signal in the PK-FK link score.
    pub pkfk_containment_weight: f64,
    /// Weight of the name-similarity signal in the PK-FK link score.
    pub pkfk_name_weight: f64,
    /// Weight of the PK-uniqueness signal in the PK-FK link score.
    pub pkfk_uniqueness_weight: f64,
    /// Number of ANN trees for embedding indexes.
    pub ann_trees: usize,
    /// Keep an `i8` scalar-quantized mirror of the embedding stores and
    /// pre-rank ANN candidates with it before an exact `f32` rerank of the
    /// survivors. Cheaper probes at identical top-k results in practice
    /// (the hot-path parity suite asserts exact agreement on the bench
    /// lake); off by default.
    pub ann_quantize: bool,
    /// Rerank pool size as a multiple of `top_k` when `ann_quantize` is
    /// set.
    pub ann_rerank_factor: usize,
    /// Incremental ingestion: IDF staleness bound for the inverted indexes.
    /// After a delta mutation, the precomputed IDF table is refreshed once
    /// the number of mutations since the last refresh exceeds this fraction
    /// of the live corpus (instead of running a full `finalize()` per
    /// batch).
    pub idf_refresh_ratio: f64,
    /// Incremental ingestion: automatic compaction trigger. When the delta
    /// state of any index (pending inserts + tombstones) exceeds this
    /// fraction of its total entries, the catalog is compacted back to the
    /// dense layout.
    pub compaction_ratio: f64,
    /// Random seed used across the system.
    pub seed: u64,
    /// Number of catalog shards the service layer partitions the lake
    /// across. `1` (the default) serves from a single catalog;
    /// `N > 1` builds a [`ShardedCmdl`](crate::shard::ShardedCmdl) that
    /// scatter/gathers every query and routes writes to the owning shard.
    pub shards: usize,
    /// The partition policy used when `shards > 1`.
    pub shard_policy: ShardPolicy,
}

impl Default for CmdlConfig {
    fn default() -> Self {
        Self {
            minhash_hashes: 128,
            embedding_dim: 100,
            joint_dim: 100,
            containment_threshold: 0.5,
            label_probe_top_k: 10,
            sample_ratio: 0.10,
            positive_threshold: 0.5,
            mini_batch_ratio: 0.08,
            triplet_margin: 0.2,
            hard_sampling: HardSampling::Average,
            max_epochs: 200,
            convergence_delta: 1e-4,
            learning_rate: 5e-3,
            min_categorical_ratio: 0.02,
            pk_uniqueness: 0.95,
            pkfk_name_similarity: 0.35,
            pkfk_containment: 0.85,
            cross_modal_embed_weight: 0.7,
            cross_modal_containment_weight: 0.3,
            pkfk_containment_weight: 0.5,
            pkfk_name_weight: 0.3,
            pkfk_uniqueness_weight: 0.2,
            ann_trees: 10,
            ann_quantize: false,
            ann_rerank_factor: 4,
            idf_refresh_ratio: 0.1,
            compaction_ratio: 0.25,
            seed: 0xC3D1,
            shards: 1,
            shard_policy: ShardPolicy::HashId,
        }
    }
}

impl CmdlConfig {
    /// A lighter configuration for tests and examples: smaller sketches and
    /// embeddings, fewer epochs, larger sample ratios (small lakes need them
    /// to produce enough training pairs).
    pub fn fast() -> Self {
        Self {
            minhash_hashes: 64,
            embedding_dim: 40,
            joint_dim: 32,
            label_probe_top_k: 8,
            sample_ratio: 0.5,
            mini_batch_ratio: 0.25,
            max_epochs: 40,
            ann_trees: 6,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CmdlConfig::default();
        assert!((c.sample_ratio - 0.10).abs() < 1e-12);
        assert!((c.mini_batch_ratio - 0.08).abs() < 1e-12);
        assert!((c.triplet_margin - 0.2).abs() < 1e-6);
        assert_eq!(c.hard_sampling, HardSampling::Average);
        assert_eq!(c.embedding_dim, 100);
        assert_eq!(c.joint_dim, 100);
    }

    #[test]
    fn fast_config_is_smaller() {
        let f = CmdlConfig::fast();
        assert!(f.embedding_dim < CmdlConfig::default().embedding_dim);
        assert!(f.max_epochs < CmdlConfig::default().max_epochs);
    }

    #[test]
    fn serde_roundtrip() {
        let c = CmdlConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: CmdlConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.minhash_hashes, c.minhash_hashes);
        assert_eq!(back.hard_sampling, c.hard_sampling);
    }

    #[test]
    fn unknown_keys_are_rejected_by_name() {
        let json = serde_json::to_string(&CmdlConfig::fast()).unwrap();
        let with_extra = format!("{},\"replicas\":2}}", json.trim_end_matches('}'));
        let error = serde_json::from_str::<CmdlConfig>(&with_extra).unwrap_err();
        assert!(error.to_string().contains("`replicas`"), "{error}");
        assert_eq!(
            serde_json::from_str::<CmdlConfig>(&json).unwrap(),
            CmdlConfig::fast()
        );
    }
}
