//! The per-layer kernel probes of the traced run: each layer's public
//! entry points called directly, on the served lake, and timed from here.
//!
//! Layer = module. Every probe makes one untimed pass first where the layer
//! keeps a cache (the word-vector memo), then reports a median, a rate or a
//! ratio. Mutation and durability probes run on *private* catalogs built
//! from the same lake, so they never disturb the served one.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cmdl_core::{CatalogSnapshot, Cmdl, DiscoveryQuery, IndexCatalog};
use cmdl_datalake::{DeId, DeKind};
use cmdl_index::{BruteForceIndex, ScoringFunction};
use cmdl_server::reactor::cache::CacheOutcome;
use cmdl_server::TenantHub;
use cmdl_text::BagOfWords;

use crate::setup::{bench_config, Scale, Served};
use crate::stats::median;
use crate::workload::{kind_samples, Kind};

/// Named per-layer values, in report order.
pub type LayerMetrics = Vec<(String, f64)>;

/// Time each call of `each` over `items`, in microseconds.
fn times_us<T>(items: &[T], mut each: impl FnMut(&T)) -> Vec<f64> {
    items
        .iter()
        .map(|item| {
            let started = Instant::now();
            each(item);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn seconds(call: impl FnOnce()) -> f64 {
    let started = Instant::now();
    call();
    started.elapsed().as_secs_f64()
}

/// Overlap of two ranked id lists, as a share of the reference list.
fn recall(found: &[(u64, f64)], reference: &[(u64, f64)]) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    let hits = reference
        .iter()
        .filter(|(id, _)| found.iter().any(|(other, _)| other == id))
        .count();
    hits as f64 / reference.len() as f64
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    sum / count.max(1) as f64
}

fn query_text(query: &DiscoveryQuery) -> Option<&str> {
    match query {
        DiscoveryQuery::Keyword { text, .. } | DiscoveryQuery::CrossModalText { text, .. } => {
            Some(text)
        }
        _ => None,
    }
}

/// Text, embedding, sketch and index kernels, probed on the served
/// snapshot.
fn read_kernels(
    snapshot: &CatalogSnapshot,
    samples: &[(Kind, DiscoveryQuery)],
    out: &mut LayerMetrics,
) {
    let profiler = &snapshot.profiler;
    let indexes = &snapshot.indexes;
    let texts: Vec<&str> = samples.iter().filter_map(|(_, q)| query_text(q)).collect();
    let no_metadata = BagOfWords::new();

    // text + embed: the two halves of `profile_query_text`.
    let bows: Vec<BagOfWords> = texts
        .iter()
        .map(|t| profiler.doc_pipeline().process(t))
        .collect();
    out.push((
        "text.pipeline.us_per_query".into(),
        median(&times_us(&texts, |t| {
            std::hint::black_box(profiler.doc_pipeline().process(t));
        })),
    ));
    let embed = |bow: &BagOfWords| profiler.solo_embedder().embed_element(bow, &no_metadata);
    let vectors: Vec<Arc<Vec<f32>>> = bows.iter().map(|b| embed(b).content).collect();
    out.push((
        "embed.solo.us_per_query".into(),
        median(&times_us(&bows, |b| {
            std::hint::black_box(embed(b));
        })),
    ));
    let documents: Vec<&BagOfWords> = snapshot
        .profiled
        .doc_ids
        .iter()
        .take(500)
        .filter_map(|id| snapshot.profiled.profile(*id))
        .map(|p| &p.content)
        .collect();
    documents.iter().for_each(|b| {
        std::hint::black_box(embed(b));
    });
    let elapsed = seconds(|| {
        documents.iter().for_each(|b| {
            std::hint::black_box(embed(b));
        })
    });
    out.push((
        "embed.solo.docs_per_s".into(),
        documents.len() as f64 / elapsed,
    ));

    // sketch: MinHash signatures and LSH-Ensemble probes over the columns.
    let columns: Vec<_> = snapshot
        .profiled
        .column_ids
        .iter()
        .take(400)
        .filter_map(|id| snapshot.profiled.profile(*id))
        .collect();
    let elapsed = seconds(|| {
        columns.iter().for_each(|p| {
            std::hint::black_box(profiler.minhasher().signature(p.content.terms()));
        })
    });
    out.push((
        "sketch.minhash.columns_per_s".into(),
        columns.len() as f64 / elapsed,
    ));
    out.push((
        "sketch.lshensemble.probe_us".into(),
        median(&times_us(&columns, |p| {
            std::hint::black_box(indexes.containment.query_top_k(&p.minhash, 10));
        })),
    ));
    out.push((
        "sketch.lshensemble.recall_at_10".into(),
        mean(columns.iter().take(100).map(|p| {
            recall(
                &indexes.containment.query_top_k(&p.minhash, 10),
                &indexes.containment.query_top_k_brute(&p.minhash, 10),
            )
        })),
    ));

    // index: BM25 over the content index, ANN over the solo embeddings.
    out.push((
        "index.bm25.search_us".into(),
        median(&times_us(&bows, |b| {
            std::hint::black_box(indexes.content.search(b, 10));
        })),
    ));
    let scoring = ScoringFunction::default();
    let pruned: f64 = times_us(&bows, |b| {
        std::hint::black_box(indexes.content.search_pruned(b, 10, scoring));
    })
    .iter()
    .sum();
    let unpruned: f64 = times_us(&bows, |b| {
        std::hint::black_box(indexes.content.search_unpruned(b, 10, scoring));
    })
    .iter()
    .sum();
    out.push(("index.bm25.prune_ratio".into(), pruned / unpruned));
    out.push((
        "index.ann.query_us".into(),
        median(&times_us(&vectors, |v| {
            std::hint::black_box(indexes.solo_ann.query(v, 10));
        })),
    ));
    let mut exact = BruteForceIndex::new();
    for id in &snapshot.profiled.column_ids {
        if let Some(profile) = snapshot.profiled.profile(*id) {
            // The ANN index holds exactly the text-searchable columns.
            if profile.kind == DeKind::Column && profile.tags.text_searchable {
                exact.add(id.raw(), profile.solo.content.to_vec());
            }
        }
    }
    out.push((
        "index.ann.recall_at_10".into(),
        mean(
            vectors
                .iter()
                .take(100)
                .map(|v| recall(&indexes.solo_ann.query(v, 10), &exact.query(v, 10))),
        ),
    ));
}

/// Direct `CatalogSnapshot::execute` per query kind, and batching.
fn query_kernels(
    snapshot: &CatalogSnapshot,
    samples: &[(Kind, DiscoveryQuery)],
    out: &mut LayerMetrics,
) {
    let mut per_kind = std::collections::BTreeMap::new();
    for kind in Kind::ALL {
        let queries: Vec<&DiscoveryQuery> = samples
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, q)| q)
            .collect();
        if !kind.is_structured() {
            // Warm this thread's word-vector memo, as a serving thread's is.
            queries.iter().for_each(|q| {
                let _ = std::hint::black_box(snapshot.execute(q));
            });
        }
        let us = median(&times_us(&queries, |q| {
            let _ = std::hint::black_box(snapshot.execute(q));
        }));
        per_kind.insert(kind, us);
    }
    out.push((
        "core.join.joinable_ms".into(),
        per_kind[&Kind::Joinable] / 1e3,
    ));
    out.push((
        "core.join.pkfk_sweep_ms".into(),
        per_kind[&Kind::PkFk] / 1e3,
    ));
    out.push((
        "core.union.unionable_ms".into(),
        per_kind[&Kind::Unionable] / 1e3,
    ));
    for kind in Kind::ALL {
        out.push((
            format!("core.query.execute_us.{}", kind.name()),
            per_kind[&kind],
        ));
    }
    // What coalescing can buy: 16 singles against one batch of 16.
    let cheap: Vec<DiscoveryQuery> = samples
        .iter()
        .filter(|(k, _)| !k.is_structured())
        .map(|(_, q)| q.clone())
        .collect();
    let speedups: Vec<f64> = cheap
        .chunks_exact(16)
        .take(9)
        .map(|batch| {
            let singles = seconds(|| {
                batch.iter().for_each(|q| {
                    let _ = std::hint::black_box(snapshot.execute(q));
                })
            });
            let batched = seconds(|| {
                std::hint::black_box(snapshot.execute_many(batch));
            });
            singles / batched
        })
        .collect();
    out.push(("core.query.execute_many_speedup".into(), median(&speedups)));
}

/// Profiling and index construction: what set-up and every ingest pay.
fn build_kernels(served: &Served, out: &mut LayerMetrics) {
    let snapshot = served.service.snapshot();
    let generator = &served.lake.generator;
    let sizes = generator.sizes();
    let tables: Vec<_> = (0..10)
        .map(|i| {
            generator
                .table(i % sizes.families, sizes.members + 1000 + i)
                .0
        })
        .collect();
    out.push((
        "core.profile.table_ms".into(),
        median(&times_us(&tables, |table| {
            for column in &table.columns {
                std::hint::black_box(snapshot.profiler.profile_column(
                    DeId(u64::MAX),
                    &table.name,
                    column,
                    table.num_rows(),
                ));
            }
        })) / 1e3,
    ));
    let documents: Vec<_> = (0..200)
        .map(|i| {
            generator
                .document(sizes.documents + 100_000 + i, &served.lake.tables)
                .0
        })
        .collect();
    let profile_document = |document: &cmdl_datalake::Document| {
        let raw = snapshot.profiler.doc_pipeline().process(&document.text);
        std::hint::black_box(snapshot.profiler.profile_document(
            DeId(u64::MAX),
            document,
            raw,
            &snapshot.profiled.doc_df,
        ));
    };
    documents.iter().for_each(&profile_document);
    out.push((
        "core.profile.document_us".into(),
        median(&times_us(&documents, profile_document)),
    ));
    out.push((
        "core.indexes.build_s".into(),
        seconds(|| {
            std::hint::black_box(IndexCatalog::build(&snapshot.profiled, &snapshot.config));
        }),
    ));
    out.push(("core.joint.train_s".into(), served.timings.train_s));
}

/// Ingest, copy-on-write publish, delta search, compaction — on a private
/// in-memory catalog — then WAL, checkpoint and cold open on a private
/// durable one. Neither is joint-trained: the probes are about the index
/// and persistence kernels, and skipping training keeps the traced run
/// short.
fn mutation_kernels(
    served: &Served,
    scale: &Scale,
    scratch: &Path,
    bows: &[BagOfWords],
    out: &mut LayerMetrics,
) -> Result<(), String> {
    let lake = &served.lake;
    let generator = &lake.generator;
    let sizes = generator.sizes();
    let document = |i: usize| {
        generator
            .document(sizes.documents + 200_000 + i, &lake.tables)
            .0
    };
    let ingests: Vec<_> = (0..scale.probe_ingests).map(document).collect();
    let fail = |what: &str, e: cmdl_core::CmdlError| format!("mutation probe: {what}: {e}");

    let mut memory = Cmdl::build(lake.lake.clone(), bench_config());
    let mut ingest_us = Vec::with_capacity(ingests.len());
    for document in &ingests {
        let started = Instant::now();
        memory
            .ingest_document(document.clone())
            .map_err(|e| fail("ingest_document", e))?;
        ingest_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let ingest_median = median(&ingest_us);
    out.push(("core.indexes.ingest_us".into(), ingest_median));
    // A published snapshot shares the catalog's `Arc`s, so the next mutation
    // pays a copy-on-write clone: that clone is what publishing costs.
    let mut pinned_us = Vec::new();
    for i in 0..5 {
        let pinned = memory.snapshot();
        let started = Instant::now();
        memory
            .ingest_document(document(scale.probe_ingests + i))
            .map_err(|e| fail("ingest_document under a pinned snapshot", e))?;
        pinned_us.push(started.elapsed().as_secs_f64() * 1e6);
        drop(pinned);
    }
    out.push((
        "core.snapshot.publish_us".into(),
        (median(&pinned_us) - ingest_median).max(0.0),
    ));
    // Table churn is what builds delta pressure (documents touch no sketch
    // index): ingest a twelfth of the lake's table count, remove a third of
    // those.
    let churn = (sizes.tables() / 12).max(2);
    let mut pressure_max: f64 = 0.0;
    let mut names = Vec::new();
    for i in 0..churn {
        let (table, info) = generator.table(i % sizes.families, sizes.members + 2000 + i);
        memory
            .ingest_table(table)
            .map_err(|e| fail("ingest_table", e))?;
        names.push(info.name);
        pressure_max = pressure_max.max(memory.indexes.delta_pressure());
    }
    for name in names.iter().take(churn.div_ceil(3)) {
        memory
            .remove_table(name)
            .map_err(|e| fail("remove_table", e))?;
        pressure_max = pressure_max.max(memory.indexes.delta_pressure());
    }
    out.push(("core.indexes.delta_pressure_max".into(), pressure_max));
    out.push((
        "index.bm25.delta_search_us".into(),
        median(&times_us(bows, |b| {
            std::hint::black_box(memory.indexes.content.search(b, 10));
        })),
    ));
    out.push((
        "core.indexes.compact_ms".into(),
        seconds(|| memory.compact()) * 1e3,
    ));
    drop(memory);

    let dir = scratch.join(format!("probe-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = durable_kernels(
        served,
        &dir,
        &ingests[..ingests.len().min(200)],
        ingest_median,
        out,
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn durable_kernels(
    served: &Served,
    dir: &Path,
    ingests: &[cmdl_datalake::Document],
    memory_ingest_us: f64,
    out: &mut LayerMetrics,
) -> Result<(), String> {
    let fail = |what: &str, e: cmdl_core::CmdlError| format!("durability probe: {what}: {e}");
    let mut durable = Cmdl::open(dir, bench_config(), || served.lake.lake.clone())
        .map_err(|e| fail("open (fresh)", e))?;
    let mut user_bytes = 0usize;
    let mut ingest_us = Vec::with_capacity(ingests.len());
    for document in ingests {
        user_bytes += document.title.len() + document.source.len() + document.text.len();
        let started = Instant::now();
        durable
            .ingest_document(document.clone())
            .map_err(|e| fail("ingest_document", e))?;
        ingest_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    // The same documents cost `memory_ingest_us` without a WAL; the rest is
    // the append and its fsync.
    out.push((
        "core.persist.wal_append_us".into(),
        (median(&ingest_us) - memory_ingest_us).max(0.0),
    ));
    let wal_bytes = std::fs::metadata(dir.join("wal"))
        .map(|m| m.len())
        .unwrap_or(0);
    out.push((
        "core.persist.wal_bytes_per_user_byte".into(),
        wal_bytes as f64 / user_bytes.max(1) as f64,
    ));
    let started = Instant::now();
    durable.checkpoint().map_err(|e| fail("checkpoint", e))?;
    out.push((
        "core.persist.checkpoint_ms".into(),
        started.elapsed().as_secs_f64() * 1e3,
    ));
    drop(durable);
    let started = Instant::now();
    let reopened = Cmdl::open(dir, bench_config(), || {
        unreachable!("the checkpoint was just written")
    })
    .map_err(|e| fail("open (cold start)", e))?;
    out.push((
        "core.persist.open_s".into(),
        started.elapsed().as_secs_f64(),
    ));
    drop(reopened);
    Ok(())
}

/// The front end's two in-process pieces: a result-cache lookup on the live
/// partition, for `/query` bodies the server answered during the traced
/// replay, and tenant admission.
pub fn front_end_kernels(served: &Served, recent_bodies: &[String], out: &mut LayerMetrics) {
    let cache = served.handle().cache();
    let generation = served.service.snapshot().generation;
    let lookups = times_us(recent_bodies, |body| {
        if let CacheOutcome::Hit(hit) = cache.lookup(generation, body.as_bytes()) {
            std::hint::black_box(hit);
        }
    });
    out.push(("server.cache.lookup_ns".into(), median(&lookups) * 1e3));
    let hub = TenantHub::single(Arc::clone(&served.service));
    let tenant = hub
        .tenant(cmdl_server::DEFAULT_TENANT)
        .expect("a single-service hub has the default tenant");
    let rounds = 20_000;
    let elapsed = seconds(|| {
        for _ in 0..rounds {
            std::hint::black_box(tenant.admit().is_ok());
        }
    });
    out.push((
        "server.tenants.admit_ns".into(),
        elapsed * 1e9 / rounds as f64,
    ));
}

/// Run every kernel probe below the front end.
pub fn kernel_metrics(
    served: &Served,
    seed: u64,
    scale: &Scale,
    scratch: &Path,
) -> Result<LayerMetrics, String> {
    let mut out = LayerMetrics::new();
    let snapshot = served.service.snapshot();
    let samples = kind_samples(&served.lake, seed, |kind| match kind {
        Kind::Keyword | Kind::CrossModalText | Kind::DocToTable => 100,
        Kind::Joinable | Kind::JoinableColumn => 12,
        Kind::Unionable => 6,
        Kind::PkFk => 2,
    });
    read_kernels(&snapshot, &samples, &mut out);
    query_kernels(&snapshot, &samples, &mut out);
    build_kernels(served, &mut out);
    let bows: Vec<BagOfWords> = samples
        .iter()
        .filter_map(|(_, q)| query_text(q))
        .map(|t| snapshot.profiler.doc_pipeline().process(t))
        .collect();
    drop(snapshot);
    mutation_kernels(served, scale, scratch, &bows, &mut out)?;
    Ok(out)
}
