//! Durable catalog: open a persistent catalog, mutate it, and prove the
//! acknowledged mutations survive a restart — including a hard crash.
//!
//! Run with: `cargo run --release --example durable_catalog [DIR] [MODE]`
//!
//! Modes (default `demo`, which runs open → ingest → reopen in-process):
//!
//! - `crash`: open the catalog at DIR, ingest one document, and die
//!   without any shutdown path the moment the ingest call returns. The
//!   WAL fsyncs before `ingest_document` acks, so even this loses
//!   nothing.
//! - `check`: reopen DIR and assert the crashed run's document is
//!   discoverable.
//!
//! Driving `crash` then `check` as separate processes (or `kill -9`-ing
//! a `crash` run externally) exercises the same recovery path the
//! fault-injection harness in `tests/recovery.rs` sweeps exhaustively.

use cmdl::core::{Cmdl, CmdlConfig, Hit, QueryBuilder, RecoveryReport, SearchMode};
use cmdl::datalake::{synth, Document};

const CRASH_DOC_TITLE: &str = "crash-survivor-note";

fn open(dir: &std::path::Path) -> Cmdl {
    Cmdl::open(dir, CmdlConfig::fast(), || {
        println!("(fresh directory: building the catalog from source)");
        synth::pharma::generate(&synth::pharma::PharmaConfig::tiny()).lake
    })
    .expect("open durable catalog")
}

/// The top three documents matching `text`.
fn search_documents(system: &Cmdl, text: &str) -> Vec<Hit> {
    let query = QueryBuilder::keyword(text)
        .mode(SearchMode::Text)
        .top_k(3)
        .build();
    system.execute(&query).expect("keyword search").hits
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args
        .next()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("cmdl-durable-catalog-example"));
    let mode = args.next().unwrap_or_else(|| "demo".into());

    match mode.as_str() {
        "crash" => {
            let mut system = open(&dir);
            system
                .ingest_document(Document::new(
                    CRASH_DOC_TITLE,
                    "PubMed",
                    "Xanthine oxidase inhibition is durable across crashes.",
                ))
                .expect("ingest is fsynced to the WAL before this returns");
            println!("ingest acked; dying without shutdown");
            // Skip every destructor, like a `kill -9` would. The acked
            // ingest is already in the WAL.
            std::process::exit(137);
        }
        "check" => {
            let system = open(&dir);
            let report = system.recovery_report().expect("opened persistently");
            println!("recovery: {report:?}");
            assert!(
                matches!(report, RecoveryReport::Loaded { .. }),
                "check mode expects an existing catalog directory"
            );
            let hits = search_documents(&system, "durable across crashes");
            assert!(
                hits.iter().any(|h| h.label == CRASH_DOC_TITLE),
                "the crashed run's acked ingest must be discoverable, got {hits:?}"
            );
            println!("ok: '{CRASH_DOC_TITLE}' survived the crash and is discoverable");
        }
        "demo" => {
            let _ = std::fs::remove_dir_all(&dir);
            let mut system = open(&dir);
            println!(
                "opened fresh catalog at {} (generation {})",
                dir.display(),
                system.generation()
            );
            system
                .ingest_document(Document::new(
                    "durable-note",
                    "PubMed",
                    "This mutation is fsynced to the WAL before ingest returns.",
                ))
                .expect("ingest");
            drop(system);

            let system = open(&dir);
            let report = system.recovery_report().expect("opened persistently");
            println!("reopened: {report:?}");
            assert!(matches!(report, RecoveryReport::Loaded { .. }));
            let hits = search_documents(&system, "fsynced to the WAL");
            assert!(hits.iter().any(|h| h.label == "durable-note"));
            println!("ok: reopen loaded the segment + WAL tail; ingest survived");
            let _ = std::fs::remove_dir_all(&dir);
        }
        other => {
            eprintln!("unknown mode '{other}' (expected demo | crash | check)");
            std::process::exit(2);
        }
    }
}
