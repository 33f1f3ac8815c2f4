//! Online-reconfiguration tests: the pin → background rebuild → replay →
//! atomic swap protocol behind `ServiceRequest::Reconfigure`.
//!
//! The load-bearing invariants:
//!
//! * **Parity** — after a reconfigure (with ingests racing the rebuild),
//!   the swapped catalog answers every discovery surface identically to a
//!   *cold* build at the target config over the same elements, modulo
//!   reordering within exact score ties (element ids differ between the
//!   two systems).
//! * **Liveness** — queries keep being served from the published snapshot
//!   for the whole duration of the rebuild; deltas ingested while the
//!   rebuild runs are present after the swap (the replay log).
//! * **Typed edges** — a second reconfigure while one is in flight, a
//!   shard-count change, a config naming a key that no longer exists, and
//!   the sharded backend are typed errors, never panics or hangs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cmdl_core::{Cmdl, CmdlConfig, QueryBuilder};
use cmdl_datalake::{synth, DataLake, Document, Table};
use cmdl_server::{
    CmdlService, ResponsePayload, ServiceRequest, ServiceResponse, TenantDefaults, TenantHub,
    DEFAULT_TENANT,
};

fn base_parts() -> (Vec<Table>, Vec<Document>) {
    let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
    (lake.tables().to_vec(), lake.documents().to_vec())
}

/// A lake containing `tables` then `documents`, in order.
fn lake_of(name: &str, tables: &[Table], documents: &[Document]) -> DataLake {
    let mut lake = DataLake::new(name);
    for t in tables {
        lake.add_table(t.clone());
    }
    for d in documents {
        lake.add_document(d.clone());
    }
    lake
}

/// Extra documents ingested through the service (racing the rebuild in the
/// interleaving tests).
fn delta_documents(n: usize) -> Vec<Document> {
    (0..n)
        .map(|i| {
            Document::new(
                format!("delta-note-{i}"),
                "PubMed",
                format!("reconfigure delta payload {i}: kinase inhibitor interaction"),
            )
        })
        .collect()
}

/// Collect a comparable `(tag, results)` discovery surface through the
/// service API.
fn surface(service: &CmdlService, tables: &[Table]) -> Vec<(String, Vec<(String, f64)>)> {
    let mut queries = vec![
        QueryBuilder::keyword("kinase inhibitor").top_k(10).build(),
        QueryBuilder::keyword("enzyme target interaction")
            .top_k(10)
            .build(),
        QueryBuilder::keyword("delta payload").top_k(10).build(),
        QueryBuilder::cross_modal_text("drug enzyme inhibitor")
            .top_k(8)
            .build(),
        QueryBuilder::pkfk().top_k(10).build(),
    ];
    let mut names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    for name in names.iter().take(4) {
        queries.push(QueryBuilder::joinable(*name).top_k(8).build());
        queries.push(QueryBuilder::unionable(*name).top_k(8).build());
    }
    queries
        .into_iter()
        .enumerate()
        .map(|(i, query)| {
            let response = service.handle(ServiceRequest::Query(query));
            assert!(response.ok, "surface query {i}: {response:?}");
            let hits = match response.payload {
                Some(ResponsePayload::Query(inner)) => inner
                    .hits
                    .into_iter()
                    .map(|hit| (hit.label, hit.score))
                    .collect(),
                other => panic!("wrong payload: {other:?}"),
            };
            (format!("q{i}"), hits)
        })
        .collect()
}

/// Tie-tolerant result comparison (same contract as the workspace
/// incremental-parity suite): scores must match pairwise at 1e-9
/// resolution; labels must match within every tie group except the
/// boundary one `top_k` may cut through.
fn assert_parity(tag: &str, a: &[(String, f64)], b: &[(String, f64)]) {
    assert_eq!(
        a.len(),
        b.len(),
        "{tag}: counts differ\n a: {a:?}\n b: {b:?}"
    );
    let group = |list: &[(String, f64)]| -> BTreeMap<i64, Vec<String>> {
        let mut grouped: BTreeMap<i64, Vec<String>> = BTreeMap::new();
        for (label, score) in list {
            grouped
                .entry((score * 1e9).round() as i64)
                .or_default()
                .push(label.clone());
        }
        for labels in grouped.values_mut() {
            labels.sort();
        }
        grouped
    };
    let (grouped_a, grouped_b) = (group(a), group(b));
    let keys: Vec<i64> = grouped_a.keys().copied().collect();
    assert_eq!(
        keys,
        grouped_b.keys().copied().collect::<Vec<i64>>(),
        "{tag}: score sequences differ\n a: {a:?}\n b: {b:?}"
    );
    let boundary = keys.first().copied();
    for (score, labels_a) in &grouped_a {
        let labels_b = &grouped_b[score];
        assert_eq!(labels_a.len(), labels_b.len(), "{tag}: tie size differs");
        if Some(*score) != boundary {
            assert_eq!(labels_a, labels_b, "{tag}: labels differ");
        }
    }
}

fn assert_surfaces_agree(live: &CmdlService, cold: &CmdlService, tables: &[Table]) {
    let live_surface = surface(live, tables);
    let cold_surface = surface(cold, tables);
    for ((tag, a), (_, b)) in live_surface.iter().zip(cold_surface.iter()) {
        assert_parity(tag, a, b);
    }
}

/// Run one full reconfigure round: ingest `deltas` through the service
/// concurrently with the rebuild, then compare against a cold build at the
/// target config over the identical element sequence.
fn reconfigure_round(old: CmdlConfig, new: CmdlConfig) {
    let (tables, documents) = base_parts();
    let service = Arc::new(CmdlService::new(Cmdl::build(
        lake_of("live", &tables, &documents),
        old,
    )));
    let generation_before = service.published_generation();

    let deltas = delta_documents(6);
    let done = Arc::new(AtomicBool::new(false));
    let reconfigured = std::thread::scope(|scope| {
        // Queries never block: hammer the read path for the whole rebuild
        // and require every response to succeed.
        let reader = {
            let service = Arc::clone(&service);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut served = 0u64;
                while !done.load(Ordering::Acquire) {
                    let response = service.handle(ServiceRequest::Query(
                        QueryBuilder::keyword("inhibitor").top_k(5).build(),
                    ));
                    assert!(response.ok, "query during rebuild: {response:?}");
                    served += 1;
                }
                served
            })
        };
        // Ingest the deltas while the reconfigure runs — depending on the
        // interleaving each lands before the pin (in the rebuild base),
        // during the rebuild (replayed at swap), or after the swap. All
        // three paths must preserve it.
        let ingester = {
            let service = Arc::clone(&service);
            let deltas = deltas.clone();
            scope.spawn(move || {
                for doc in deltas {
                    let response = service.handle(ServiceRequest::IngestDocument(doc));
                    assert!(response.ok, "delta ingest: {response:?}");
                }
            })
        };
        let response = service.handle(ServiceRequest::Reconfigure(new.clone()));
        ingester.join().expect("ingester");
        done.store(true, Ordering::Release);
        let served = reader.join().expect("reader");
        assert!(served > 0, "the read path must stay live");
        response
    });
    let generation = match reconfigured.payload {
        Some(ResponsePayload::Reconfigured { generation }) => generation,
        other => panic!("reconfigure failed: {other:?} / {:?}", reconfigured.error),
    };
    assert!(
        generation > generation_before,
        "the swap must publish a fresh generation ({generation_before} -> {generation})"
    );

    // Every delta is present after the swap, wherever it landed.
    let stats = service.stats();
    assert_eq!(stats.documents, documents.len() + deltas.len());

    // Parity vs a cold build at the target config over the same elements,
    // after folding both systems' delta state.
    assert!(service.handle(ServiceRequest::Compact).ok);
    let mut all_documents = documents.clone();
    all_documents.extend(deltas);
    let cold = CmdlService::new(Cmdl::build(lake_of("live", &tables, &all_documents), new));
    assert!(cold.handle(ServiceRequest::Compact).ok);
    assert_surfaces_agree(&service, &cold, &tables);
}

#[test]
fn ann_quantize_flip_swaps_online_with_cold_build_parity() {
    let old = CmdlConfig::fast();
    let new = CmdlConfig {
        ann_quantize: true,
        ..CmdlConfig::fast()
    };
    reconfigure_round(old, new);
}

/// A signature-width change rebuilds every MinHash signature and every
/// sketch index online.
#[test]
fn minhash_width_flip_swaps_online_with_cold_build_parity() {
    let old = CmdlConfig::fast();
    assert_eq!(old.minhash_hashes, 64);
    let new = CmdlConfig {
        minhash_hashes: 128,
        ..CmdlConfig::fast()
    };
    reconfigure_round(old, new);
}

#[test]
fn concurrent_reconfigures_never_stack() {
    let (tables, documents) = base_parts();
    let service = Arc::new(CmdlService::new(Cmdl::build(
        lake_of("contended", &tables, &documents),
        CmdlConfig::fast(),
    )));
    let target = CmdlConfig {
        ann_quantize: true,
        ..CmdlConfig::fast()
    };
    let responses: Vec<ServiceResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let service = Arc::clone(&service);
                let target = target.clone();
                scope.spawn(move || service.handle(ServiceRequest::Reconfigure(target)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reconfigure thread"))
            .collect()
    });
    // Sequentialized or rejected-typed — never a panic, wedge, or torn
    // swap. At least one must win.
    assert!(responses.iter().any(|r| r.ok), "{responses:?}");
    for response in &responses {
        assert!(
            response.ok || response.error_code() == Some(cmdl_core::ErrorCode::ReconfigurePending),
            "{response:?}"
        );
    }
    // The service still serves and still mutates.
    assert!(
        service
            .handle(ServiceRequest::Query(
                QueryBuilder::keyword("inhibitor").top_k(5).build()
            ))
            .ok
    );
    assert!(
        service
            .handle(ServiceRequest::IngestDocument(Document::new(
                "post-contention",
                "s",
                "still writable"
            )))
            .ok
    );
}

#[test]
fn shard_count_changes_and_sharded_backends_are_typed_errors() {
    let (tables, documents) = base_parts();
    // A shard-count change cannot be swapped online.
    let single = CmdlService::new(Cmdl::build(
        lake_of("single", &tables, &documents),
        CmdlConfig::fast(),
    ));
    let resharded = single.handle(ServiceRequest::Reconfigure(CmdlConfig {
        shards: 4,
        ..CmdlConfig::fast()
    }));
    assert_eq!(
        resharded.error_code(),
        Some(cmdl_core::ErrorCode::InvalidQuery),
        "{resharded:?}"
    );
    // Knobs that no longer exist, and a knob given twice, are refused at
    // the wire, by name, instead of being silently dropped from the config
    // or read from whichever copy comes first: on `Reconfigure` and on a hub
    // `CreateLake`, and the same body without the extra key goes through.
    let hub = TenantHub::new(TenantDefaults::default()).expect("in-memory hub");
    let config_json = serde_json::to_string(&CmdlConfig::fast()).expect("config serializes");
    assert!(config_json.contains("\"shards\":1"), "{config_json}");
    for (key, value) in [("replicas", 2), ("replica_lag_bound", 2), ("shards", 4)] {
        let stale = format!("{},\"{key}\":{value}}}", config_json.trim_end_matches('}'));
        let reconfigure =
            |config: &str| single.handle_json(format!(r#"{{"Reconfigure":{config}}}"#).as_bytes());
        let create = |config: &str| {
            hub.handle_json(
                DEFAULT_TENANT,
                format!(
                    r#"{{"CreateLake":{{"name":"knob-{key}","config":{config},"quotas":null}}}}"#
                )
                .as_bytes(),
            )
        };
        for (route, rejected) in [
            ("reconfigure", reconfigure(&stale)),
            ("create_lake", create(&stale)),
        ] {
            assert_eq!(
                rejected.error_code(),
                Some(cmdl_core::ErrorCode::MalformedRequest),
                "{route} with `{key}`: {rejected:?}"
            );
            assert!(
                rejected
                    .error
                    .as_ref()
                    .and_then(|error| error.subject.as_deref())
                    .is_some_and(|subject| subject.contains(&format!("`{key}`"))),
                "{route}: the rejection names `{key}`: {rejected:?}"
            );
        }
        for (route, accepted) in [
            ("reconfigure", reconfigure(&config_json)),
            ("create_lake", create(&config_json)),
        ] {
            assert!(accepted.ok, "{route} without `{key}`: {accepted:?}");
        }
    }

    // The sharded backend has no online-reconfigure path at all.
    let sharded = CmdlService::build(
        lake_of("sharded", &tables, &documents),
        CmdlConfig {
            shards: 2,
            ..CmdlConfig::fast()
        },
    );
    let rejected = sharded.handle(ServiceRequest::Reconfigure(CmdlConfig {
        ann_quantize: true,
        ..CmdlConfig::fast()
    }));
    assert_eq!(
        rejected.error_code(),
        Some(cmdl_core::ErrorCode::InvalidQuery),
        "{rejected:?}"
    );
    // Both backends still serve after the rejection.
    assert!(
        single
            .handle(ServiceRequest::Query(
                QueryBuilder::keyword("enzyme").top_k(5).build()
            ))
            .ok
    );
    assert!(
        sharded
            .handle(ServiceRequest::Query(
                QueryBuilder::keyword("enzyme").top_k(5).build()
            ))
            .ok
    );
}

#[test]
fn durable_lake_reconfigures_and_reopens() {
    let dir = std::env::temp_dir().join(format!(
        "cmdl-reconfigure-durable-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (tables, documents) = base_parts();
    let expected_documents = documents.len() + 1;
    {
        let seed = lake_of("durable", &tables, &documents);
        let service =
            CmdlService::open(&dir, CmdlConfig::fast(), move || seed).expect("durable open");
        let swapped = service.handle(ServiceRequest::Reconfigure(CmdlConfig {
            ann_quantize: true,
            ..CmdlConfig::fast()
        }));
        assert!(swapped.ok, "{swapped:?}");
        // Post-swap mutations keep landing in the (handed-over) WAL.
        assert!(
            service
                .handle(ServiceRequest::IngestDocument(Document::new(
                    "post-swap",
                    "s",
                    "durably reconfigured"
                )))
                .ok
        );
        service.flush();
    }
    // Reopen: the checkpoint taken at swap plus the post-swap WAL entries
    // reconstruct the reconfigured catalog.
    let reopened =
        CmdlService::open(&dir, CmdlConfig::fast(), || DataLake::new("durable")).expect("reopen");
    assert_eq!(reopened.stats().documents, expected_documents);
    let response = reopened.handle(ServiceRequest::Query(
        QueryBuilder::keyword("durably reconfigured")
            .top_k(5)
            .build(),
    ));
    assert!(response.ok, "{response:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
