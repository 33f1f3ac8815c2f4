//! Crash-fault-injection harness over the durable catalog.
//!
//! The centerpiece is the kill sweep: a recording run over a scripted
//! 10%-delta ingest enumerates every fsync-boundary failpoint the
//! persistence layer crosses, then the scenario is re-run once per
//! `(failpoint, occurrence)` pair with a simulated `kill -9` armed there.
//! After each crash the directory is recovered with a clean io layer and
//! the harness asserts the two durability contracts:
//!
//! 1. **No acked mutation is lost** — the recovered catalog contains at
//!    least every mutation that returned `Ok` before the crash, and the
//!    recovered prefix is exactly a prefix of the script (mutations are
//!    atomic and ordered).
//! 2. **Recovered state is parity-equal to an uncrashed run** over the
//!    same prefix (modulo reordering within exact score ties).
//!
//! Around the sweep: clean-restart WAL replay (including removals), a
//! torn WAL tail, silent bit-flips during segment writes, hand-corrupted
//! manifest/segment files (all must degrade to rebuild-from-source, never
//! panic), a segment in the older five-section layout (must still load),
//! and proptests proving `decode_frames` recovers exactly the
//! longest valid record prefix under arbitrary truncation or bit-flips.

mod common;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use cmdl::core::persist::{
    decode_frames, encode_frame, load_segment, PersistHandle, MANIFEST_NAME,
};
use cmdl::core::{
    Cmdl, CmdlConfig, CmdlError, Fault, FaultPlan, Io, QueryBuilder, RecoveryReport, SearchMode,
};
use cmdl::datalake::{synth, DataLake, Document, Table};
use common::{assert_result_parity, ranked};

// ---------------------------------------------------------------------
// Scaffolding
// ---------------------------------------------------------------------

/// A scratch directory unique to this process and thread, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "cmdl-recovery-{}-{:?}-{tag}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One scripted catalog mutation (the kill sweep is ingest-only so the
/// applied prefix can be read back from live element counts).
#[derive(Clone)]
enum Mutation {
    Table(Table),
    Document(Document),
}

fn apply(cmdl: &mut Cmdl, mutation: &Mutation) -> Result<(), CmdlError> {
    match mutation {
        Mutation::Table(t) => cmdl.ingest_table(t.clone()).map(|_| ()),
        Mutation::Document(d) => cmdl.ingest_document(d.clone()).map(|_| ()),
    }
}

/// A small pharma lake split into a seed lake plus a ~10% delta script
/// (tables first, then documents, so any prefix is identified by its
/// live table/document counts).
struct Scenario {
    seed: DataLake,
    script: Vec<Mutation>,
    seed_tables: usize,
    seed_docs: usize,
    delta_tables: usize,
    /// Script position after which the scenario runs `compact()` (so the
    /// sweep also kills inside a checkpoint, not just inside WAL appends).
    compact_at: usize,
}

fn scenario() -> Scenario {
    let lake = synth::pharma::generate(&synth::PharmaConfig {
        num_drugs: 12,
        num_enzymes: 8,
        num_documents: 14,
        num_interactions: 24,
        num_synthetic_tables: 3,
        seed: 0xC4A5,
    })
    .lake;
    let tables = lake.tables().to_vec();
    let documents = lake.documents().to_vec();
    let delta_tables = 2;
    let delta_docs = 3;
    let seed_tables = tables.len() - delta_tables;
    let seed_docs = documents.len() - delta_docs;

    let mut seed = DataLake::new("pharma-seed");
    for t in &tables[..seed_tables] {
        seed.add_table(t.clone());
    }
    for d in &documents[..seed_docs] {
        seed.add_document(d.clone());
    }
    let mut script = Vec::new();
    for t in &tables[seed_tables..] {
        script.push(Mutation::Table(t.clone()));
    }
    for d in &documents[seed_docs..] {
        script.push(Mutation::Document(d.clone()));
    }
    Scenario {
        seed,
        script,
        seed_tables,
        seed_docs,
        delta_tables,
        compact_at: delta_tables,
    }
}

/// A few deterministic query strings derived from the raw lake data.
fn queries_for(lake: &DataLake) -> Vec<String> {
    let mut queries = Vec::new();
    for table in lake.tables().iter().take(2) {
        if let Some(column) = table.columns.first() {
            if let Some(v) = column.values.first() {
                let text = v.as_text();
                if !text.is_empty() {
                    queries.push(text);
                }
            }
        }
    }
    for doc in lake.documents().iter().take(2) {
        queries.push(doc.title.clone());
    }
    queries.push("drug enzyme inhibitor target".to_string());
    queries
}

/// A compact discovery surface: content search over every mode plus the
/// PK-FK graph (cheap enough to evaluate once per kill point).
fn quick_surface(cmdl: &Cmdl, queries: &[String]) -> Vec<(String, Vec<(String, f64)>)> {
    let snap = cmdl.snapshot();
    let mut surfaces = Vec::new();
    for (qi, query) in queries.iter().enumerate() {
        for (mode, mode_name) in [
            (SearchMode::All, "all"),
            (SearchMode::Text, "text"),
            (SearchMode::Tables, "tables"),
        ] {
            let keyword = QueryBuilder::keyword(query).mode(mode).top_k(10).build();
            surfaces.push((
                format!("content[{qi}][{mode_name}]"),
                ranked(&snap, &keyword),
            ));
        }
    }
    let pkfk = QueryBuilder::pkfk().top_k(usize::MAX).build();
    surfaces.push(("pkfk".to_string(), ranked(&snap, &pkfk)));
    surfaces
}

fn assert_surfaces_agree(tag: &str, reference: &Cmdl, recovered: &Cmdl, queries: &[String]) {
    let surface_a = quick_surface(reference, queries);
    let surface_b = quick_surface(recovered, queries);
    assert_eq!(surface_a.len(), surface_b.len());
    for ((tag_a, results_a), (tag_b, results_b)) in surface_a.iter().zip(surface_b.iter()) {
        assert_eq!(tag_a, tag_b);
        assert_result_parity(&format!("{tag}:{tag_a}"), results_a, results_b);
    }
}

// ---------------------------------------------------------------------
// The kill sweep
// ---------------------------------------------------------------------

/// Run the scripted scenario against `dir` through `io`, returning how
/// many mutations were acknowledged before the simulated process died
/// (all of them, when nothing is armed).
fn run_scenario(io: &Io, dir: &Path, s: &Scenario, config: &CmdlConfig) -> usize {
    let seed = s.seed.clone();
    let Ok(mut cmdl) = Cmdl::open_with_io(io, dir, config.clone(), move || seed) else {
        return 0; // killed during open/initial checkpoint: nothing acked
    };
    let mut acked = 0;
    for (i, mutation) in s.script.iter().enumerate() {
        match apply(&mut cmdl, mutation) {
            Ok(()) => acked += 1,
            Err(_) => break, // the crash point: nothing past here is acked
        }
        if i + 1 == s.compact_at {
            cmdl.compact();
        }
    }
    acked
}

#[test]
fn kill_at_every_fsync_boundary_loses_no_acked_mutation() {
    let s = scenario();
    let config = CmdlConfig::fast();
    let queries = {
        // Queries over the full lake (seed + delta) so every prefix's
        // reference and recovered catalog see identical query strings.
        let mut full = s.seed.clone();
        for m in &s.script {
            match m {
                Mutation::Table(t) => {
                    full.add_table(t.clone());
                }
                Mutation::Document(d) => {
                    full.add_document(d.clone());
                }
            }
        }
        queries_for(&full)
    };

    // Recording run: nothing armed; every failpoint crossing is logged.
    let record_dir = TempDir::new("record");
    let record_plan = FaultPlan::new();
    let acked = run_scenario(
        &Io::with_plan(record_plan.clone()),
        record_dir.path(),
        &s,
        &config,
    );
    assert_eq!(acked, s.script.len(), "recording run must not fail");
    let crossings = record_plan.hits();
    assert!(
        crossings.len() >= 10,
        "expected a rich failpoint trace, got {crossings:?}"
    );

    // Enumerate each (failpoint, occurrence) pair the scenario crosses.
    let mut seen: HashMap<String, u64> = HashMap::new();
    let kill_points: Vec<(String, u64)> = crossings
        .iter()
        .map(|point| {
            let n = seen.entry(point.clone()).or_insert(0);
            let pair = (point.clone(), *n);
            *n += 1;
            pair
        })
        .collect();

    for (point, occurrence) in kill_points {
        let tag = format!("{point}#{occurrence}");
        let dir = TempDir::new(&format!("kill-{}-{occurrence}", point.replace('.', "_")));
        let plan = FaultPlan::new();
        plan.arm(&point, occurrence, Fault::Kill);
        let acked = run_scenario(&Io::with_plan(plan.clone()), dir.path(), &s, &config);
        assert!(plan.is_dead(), "kill at {tag} never fired");

        // The "process" is dead. Recover from what actually reached disk.
        let seed = s.seed.clone();
        let mut recovered =
            Cmdl::open_with_io(&Io::real(), dir.path(), config.clone(), move || seed)
                .unwrap_or_else(|e| panic!("recovery after kill at {tag} failed: {e}"));

        // The recovered state must be an in-order prefix of the script…
        let live_tables = recovered.profiled.lake.tables().len();
        let live_docs = recovered.profiled.lake.documents().len();
        let r_tables = live_tables
            .checked_sub(s.seed_tables)
            .unwrap_or_else(|| panic!("kill at {tag}: recovered catalog lost seed tables"));
        let r_docs = live_docs
            .checked_sub(s.seed_docs)
            .unwrap_or_else(|| panic!("kill at {tag}: recovered catalog lost seed documents"));
        assert!(
            r_tables == s.delta_tables || r_docs == 0,
            "kill at {tag}: recovered a non-prefix of the script \
             ({r_tables} tables, {r_docs} docs)"
        );
        let recovered_prefix = r_tables + r_docs;

        // …no shorter than what was acknowledged before the crash…
        assert!(
            recovered_prefix >= acked,
            "kill at {tag}: {acked} mutations were acked but only \
             {recovered_prefix} survived recovery"
        );

        // …and parity-equal to an uncrashed run over the same prefix.
        let mut reference = Cmdl::build(s.seed.clone(), config.clone());
        for mutation in &s.script[..recovered_prefix] {
            apply(&mut reference, mutation).expect("in-memory reference ingest");
        }
        reference.compact();
        recovered.compact();
        assert_surfaces_agree(&tag, &reference, &recovered, &queries);
    }
}

// ---------------------------------------------------------------------
// Clean restart, torn tails, silent corruption
// ---------------------------------------------------------------------

#[test]
fn clean_restart_replays_acked_mutations_including_removals() {
    let s = scenario();
    let config = CmdlConfig::fast();
    let dir = TempDir::new("replay");

    let seed = s.seed.clone();
    let mut cmdl = Cmdl::open(dir.path(), config.clone(), move || seed).expect("fresh open");
    assert!(cmdl.is_persistent());
    assert_eq!(cmdl.recovery_report(), Some(&RecoveryReport::Fresh));

    // Acked-but-never-checkpointed mutations: the whole delta script plus
    // one table and one document removal, all living only in the WAL.
    for mutation in &s.script {
        apply(&mut cmdl, mutation).expect("scripted mutation");
    }
    let removed_table = s.seed.tables()[0].name.clone();
    cmdl.remove_table(&removed_table).expect("remove table");
    cmdl.remove_document(0).expect("remove document");
    drop(cmdl); // no shutdown checkpoint: recovery must come from the WAL

    let mut recovered = Cmdl::open(dir.path(), config.clone(), || {
        panic!("clean reopen must not consult the source lake")
    })
    .expect("reopen");
    match recovered.recovery_report() {
        Some(RecoveryReport::Loaded {
            replayed,
            discarded_bytes,
            ..
        }) => {
            // Periodic compaction may have checkpointed mid-run (each
            // checkpoint truncates the WAL), so only the records after
            // the last checkpoint replay — but at least the final
            // removal can never have been checkpointed away silently.
            assert!(
                (1..=s.script.len() + 2).contains(replayed),
                "unexpected replay count {replayed}"
            );
            assert_eq!(*discarded_bytes, 0, "clean shutdown leaves no torn tail");
        }
        other => panic!("expected Loaded, got {other:?}"),
    }

    // Full parity against an uncrashed in-memory run of the same history.
    let mut reference = Cmdl::build(s.seed.clone(), config);
    for mutation in &s.script {
        apply(&mut reference, mutation).expect("reference mutation");
    }
    reference
        .remove_table(&removed_table)
        .expect("reference remove");
    reference.remove_document(0).expect("reference remove doc");
    reference.compact();
    recovered.compact();
    let queries = queries_for(&s.seed);
    assert_surfaces_agree("clean-restart", &reference, &recovered, &queries);
}

#[test]
fn torn_wal_tail_is_skipped_not_fatal() {
    let s = scenario();
    let config = CmdlConfig::fast();
    let dir = TempDir::new("torn");

    let plan = FaultPlan::new();
    let io = Io::with_plan(plan.clone());
    let seed = s.seed.clone();
    let mut cmdl =
        Cmdl::open_with_io(&io, dir.path(), config.clone(), move || seed).expect("fresh open");
    apply(&mut cmdl, &s.script[0]).expect("first mutation is acked");

    // Tear the NEXT WAL append: only 5 bytes of its frame reach disk.
    let occurrence = plan
        .hits()
        .iter()
        .filter(|h| h.as_str() == "wal.append.sync.before")
        .count() as u64;
    plan.arm(
        "wal.append.sync.before",
        occurrence,
        Fault::Torn { keep: 5 },
    );
    let torn = apply(&mut cmdl, &s.script[1]);
    assert!(torn.is_err(), "a torn append must not be acknowledged");
    drop(cmdl);

    let recovered = Cmdl::open(dir.path(), config.clone(), || {
        panic!("torn tail must not force a rebuild")
    })
    .expect("recovery over a torn tail");
    match recovered.recovery_report() {
        Some(RecoveryReport::Loaded {
            replayed,
            discarded_bytes,
            ..
        }) => {
            assert_eq!(*replayed, 1, "the acked record replays");
            assert_eq!(*discarded_bytes, 5, "the torn tail is discarded");
        }
        other => panic!("expected Loaded, got {other:?}"),
    }
    // The acked mutation survived; the torn one is gone.
    assert_eq!(recovered.profiled.lake.tables().len(), s.seed_tables + 1);
}

#[test]
fn bit_flip_during_segment_write_degrades_to_rebuild() {
    let s = scenario();
    let config = CmdlConfig::fast();
    let dir = TempDir::new("bitflip");

    // Silent corruption: the initial checkpoint's segment write flips one
    // bit on its way to disk but reports success.
    let plan = FaultPlan::new();
    plan.arm(
        "segment.write.sync.before",
        0,
        Fault::BitFlip { offset: 1021 },
    );
    let seed = s.seed.clone();
    let cmdl = Cmdl::open_with_io(
        &Io::with_plan(plan),
        dir.path(),
        config.clone(),
        move || seed,
    )
    .expect("bit flips are silent at write time");
    drop(cmdl);

    // Recovery detects the checksum mismatch and rebuilds from source
    // instead of serving corrupt data (or panicking).
    let seed = s.seed.clone();
    let recovered = Cmdl::open(dir.path(), config.clone(), move || seed)
        .expect("detected corruption degrades to rebuild");
    match recovered.recovery_report() {
        Some(RecoveryReport::Rebuilt { reason }) => {
            assert!(
                reason.contains("checksum"),
                "rebuild reason should name the checksum failure: {reason}"
            );
        }
        other => panic!("expected Rebuilt, got {other:?}"),
    }
    // …and the rebuilt catalog checkpoints cleanly: a further reopen loads.
    let reopened = Cmdl::open(dir.path(), config, || {
        panic!("rebuilt directory must load without the source")
    })
    .expect("reopen after rebuild");
    assert!(matches!(
        reopened.recovery_report(),
        Some(RecoveryReport::Loaded { .. })
    ));
}

#[test]
fn hand_corrupted_manifest_and_segment_fall_back_to_rebuild() {
    let s = scenario();
    let config = CmdlConfig::fast();

    for target in ["manifest", "segment"] {
        let dir = TempDir::new(&format!("corrupt-{target}"));
        let seed = s.seed.clone();
        drop(Cmdl::open(dir.path(), config.clone(), move || seed).expect("fresh open"));

        // Flip one byte of the target file, clear of any magic prefix.
        let path = if target == "manifest" {
            dir.path().join(MANIFEST_NAME)
        } else {
            let seg = std::fs::read_dir(dir.path())
                .expect("list catalog dir")
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .find(|name| name.starts_with("seg-"))
                .expect("a segment file exists after the initial checkpoint");
            dir.path().join(seg)
        };
        let mut bytes = std::fs::read(&path).expect("read target file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).expect("write corrupted file");

        let seed = s.seed.clone();
        let recovered = Cmdl::open(dir.path(), config.clone(), move || seed)
            .unwrap_or_else(|e| panic!("corrupt {target} must not fail open: {e}"));
        match recovered.recovery_report() {
            Some(RecoveryReport::Rebuilt { reason }) => {
                assert!(!reason.is_empty(), "rebuild reason must be recorded");
            }
            other => panic!("corrupt {target}: expected Rebuilt, got {other:?}"),
        }
        // The rebuilt catalog still serves queries.
        let results = ranked(
            &recovered.snapshot(),
            &QueryBuilder::keyword("drug").top_k(5).build(),
        );
        assert!(
            !results.is_empty(),
            "rebuilt catalog must keep serving content search"
        );
    }
}

#[test]
fn kill_mid_same_generation_recheckpoint_keeps_previous_checkpoint() {
    // A checkpoint with no mutation since the last one repeats the
    // generation. Segments are write-once: a crash mid-way through the
    // re-checkpoint must leave the previous checkpoint (the one the live
    // manifest points at) fully intact — loaded, never rebuilt.
    let s = scenario();
    let config = CmdlConfig::fast();
    let dir = TempDir::new("recheckpoint");

    let plan = FaultPlan::new();
    let io = Io::with_plan(plan.clone());
    let seed = s.seed.clone();
    let mut cmdl =
        Cmdl::open_with_io(&io, dir.path(), config.clone(), move || seed).expect("fresh open");
    apply(&mut cmdl, &s.script[0]).expect("acked mutation");
    // Die mid-way through the NEXT segment write (past the initial
    // checkpoint and any ingest-triggered compaction), generation
    // unchanged.
    let occurrence = plan
        .hits()
        .iter()
        .filter(|h| h.as_str() == "segment.write.sync.before")
        .count() as u64;
    plan.arm("segment.write.sync.before", occurrence, Fault::Kill);
    assert!(
        cmdl.checkpoint().is_err(),
        "checkpoint must report the kill"
    );
    drop(cmdl);

    let recovered = Cmdl::open(dir.path(), config, || {
        panic!("previous checkpoint must load without the source")
    })
    .expect("recovery after mid-recheckpoint kill");
    match recovered.recovery_report() {
        Some(RecoveryReport::Loaded { replayed, .. }) => {
            // 1 unless an ingest-triggered compaction already folded the
            // record into the (previous) segment.
            assert!(*replayed <= 1, "unexpected replay count {replayed}");
        }
        other => panic!("expected Loaded, got {other:?}"),
    }
    assert_eq!(recovered.profiled.lake.tables().len(), s.seed_tables + 1);
}

#[test]
fn segment_with_a_retired_ekg_section_still_loads() {
    // Segments written while the catalog still kept a knowledge graph hold
    // a fifth section, `ekg`, between `indexes` and `joint`. Recovery looks
    // sections up by name, so such a segment loads with that section
    // checksum-verified and ignored, and the next checkpoint drops it.
    let s = scenario();
    let config = CmdlConfig::fast();
    let io = Io::real();
    let current_dir = TempDir::new("layout-current");
    let seed = s.seed.clone();
    let current = Cmdl::open(current_dir.path(), config.clone(), move || seed).expect("fresh open");
    let section_names = |dir: &Path| {
        let segment = load_segment(&io, dir)
            .expect("segment verifies")
            .expect("directory is checkpointed");
        let mut names: Vec<String> = segment.sections.into_keys().collect();
        names.sort_unstable();
        names
    };
    assert_eq!(
        section_names(current_dir.path()),
        ["config", "indexes", "joint", "profiled"]
    );

    // Rewrite the same catalog in the older layout into a fresh directory.
    let segment = load_segment(&io, current_dir.path())
        .expect("segment verifies")
        .expect("directory is checkpointed");
    let section = |name: &str| segment.sections[name].clone();
    let older_layout = [
        ("config", section("config")),
        ("profiled", section("profiled")),
        ("indexes", section("indexes")),
        ("ekg", b"retired knowledge-graph edges".to_vec()),
        ("joint", section("joint")),
    ];
    let older_dir = TempDir::new("layout-older");
    let (mut handle, _, _) = PersistHandle::open(&io, older_dir.path(), 0).expect("fresh dir");
    handle
        .checkpoint(segment.manifest.generation, &older_layout)
        .expect("older-layout checkpoint");
    drop(handle);

    let mut reopened = Cmdl::open(older_dir.path(), config, || {
        panic!("an older-layout segment must load without the source")
    })
    .expect("reopen");
    assert_eq!(
        reopened.recovery_report(),
        Some(&RecoveryReport::Loaded {
            generation: segment.manifest.generation,
            replayed: 0,
            discarded_bytes: 0,
        })
    );
    let answers = |cmdl: &Cmdl| {
        let snap = cmdl.snapshot();
        let mut queries: Vec<_> = queries_for(&s.seed)
            .iter()
            .map(|text| QueryBuilder::keyword(text).top_k(10).build())
            .collect();
        for table in s.seed.tables() {
            queries.push(QueryBuilder::joinable(&table.name).top_k(5).build());
            queries.push(QueryBuilder::unionable(&table.name).top_k(5).build());
        }
        queries
            .iter()
            .map(|query| ranked(&snap, query))
            .collect::<Vec<_>>()
    };
    assert_eq!(answers(&current), answers(&reopened));

    reopened.checkpoint().expect("checkpoint");
    assert_eq!(
        section_names(older_dir.path()),
        ["config", "indexes", "joint", "profiled"]
    );
}

#[test]
fn unreplayable_wal_is_salvaged_not_destroyed() {
    // When only the segment rots but the WAL is intact, rebuild-from-source
    // cannot replay the acked records — but it must never destroy their
    // only durable evidence: the log is set aside, not truncated.
    let s = scenario();
    let config = CmdlConfig::fast();
    let dir = TempDir::new("salvage");

    let seed = s.seed.clone();
    let mut cmdl = Cmdl::open(dir.path(), config.clone(), move || seed).expect("fresh open");
    apply(&mut cmdl, &s.script[0]).expect("acked mutation");
    apply(&mut cmdl, &s.script[1]).expect("acked mutation");
    drop(cmdl);
    let wal_bytes = std::fs::read(dir.path().join("wal")).expect("wal exists");
    assert!(!wal_bytes.is_empty(), "acked records live in the WAL");

    // Rot the segment under the intact WAL.
    let seg = std::fs::read_dir(dir.path())
        .expect("list dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|name| name.starts_with("seg-"))
        .expect("segment exists");
    let seg_path = dir.path().join(seg);
    let mut bytes = std::fs::read(&seg_path).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&seg_path, &bytes).expect("corrupt segment");

    let seed = s.seed.clone();
    let recovered = Cmdl::open(dir.path(), config, move || seed).expect("degrade to rebuild");
    assert!(matches!(
        recovered.recovery_report(),
        Some(RecoveryReport::Rebuilt { .. })
    ));
    // The old log survives byte-for-byte under the salvage name, and the
    // live WAL was restarted fresh.
    let salvaged = std::fs::read(dir.path().join("wal.salvaged-0"))
        .expect("unreplayable WAL set aside, not truncated");
    assert_eq!(salvaged, wal_bytes);
}

#[test]
fn undecodable_wal_record_degrades_to_rebuild() {
    // A checksum-valid frame whose payload no longer decodes (e.g. written
    // by a different build) must degrade to rebuild-from-source like any
    // other corruption — not leave the directory permanently unopenable.
    let s = scenario();
    let config = CmdlConfig::fast();
    let dir = TempDir::new("undecodable");

    let seed = s.seed.clone();
    drop(Cmdl::open(dir.path(), config.clone(), move || seed).expect("fresh open"));

    // Append a frame that passes the checksum but is not a WalRecord.
    let wal_path = dir.path().join("wal");
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    bytes.extend_from_slice(&encode_frame(9_999, &[0xFF; 16]));
    std::fs::write(&wal_path, &bytes).expect("write poisoned wal");

    let seed = s.seed.clone();
    let recovered = Cmdl::open(dir.path(), config.clone(), move || seed)
        .unwrap_or_else(|e| panic!("undecodable record must not fail open: {e}"));
    match recovered.recovery_report() {
        Some(RecoveryReport::Rebuilt { reason }) => {
            assert!(
                reason.contains("decode"),
                "rebuild reason should name the decode failure: {reason}"
            );
        }
        other => panic!("expected Rebuilt, got {other:?}"),
    }
    // The poisoned log was salvaged and the rebuilt directory reopens clean.
    assert!(dir.path().join("wal.salvaged-0").exists());
    let reopened = Cmdl::open(dir.path(), config, || {
        panic!("rebuilt directory must load without the source")
    })
    .expect("reopen after rebuild");
    assert!(matches!(
        reopened.recovery_report(),
        Some(RecoveryReport::Loaded { .. })
    ));
}

// ---------------------------------------------------------------------
// WAL frame decoding under arbitrary damage (proptest)
// ---------------------------------------------------------------------

/// 1–9 records with arbitrary payload bytes. (The vendored proptest has
/// no tuple or `any` strategies, so the corpus is a bespoke [`Strategy`].)
struct FrameCorpus;

impl Strategy for FrameCorpus {
    type Value = Vec<(u64, Vec<u8>)>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let count = 1 + rng.below(9);
        (0..count)
            .map(|i| {
                let lsn = i as u64 + 1 + rng.next_u64() % 1_000;
                let payload = (0..rng.below(64))
                    .map(|_| (rng.next_u64() & 0xFF) as u8)
                    .collect();
                (lsn, payload)
            })
            .collect()
    }
}

/// Concatenate the encoded frames, also returning each frame's end offset.
fn lay_out(records: &[(u64, Vec<u8>)]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for (lsn, payload) in records {
        bytes.extend_from_slice(&encode_frame(*lsn, payload));
        ends.push(bytes.len());
    }
    (bytes, ends)
}

fn assert_prefix(
    records: &[(u64, Vec<u8>)],
    ends: &[usize],
    frames: &[(u64, Vec<u8>)],
    valid_len: usize,
    expect: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(frames.len(), expect);
    prop_assert_eq!(valid_len, if expect == 0 { 0 } else { ends[expect - 1] });
    for (i, (lsn, payload)) in frames.iter().enumerate() {
        prop_assert_eq!(*lsn, records[i].0);
        prop_assert_eq!(payload, &records[i].1);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating a WAL at ANY byte offset recovers exactly the records
    /// whose frames fit entirely inside the truncation point.
    #[test]
    fn truncation_recovers_longest_valid_prefix(
        records in FrameCorpus,
        cut_seed in 0usize..1_000_000_000,
    ) {
        let (bytes, ends) = lay_out(&records);
        let cut = cut_seed % (bytes.len() + 1); // 0..=len inclusive
        let (frames, valid_len) = decode_frames(&bytes[..cut]);
        let expect = ends.iter().filter(|&&end| end <= cut).count();
        assert_prefix(&records, &ends, &frames, valid_len, expect)?;
    }

    /// Flipping ANY single bit keeps exactly the records that precede the
    /// damaged frame: the checksum (or framing) check rejects the rest.
    #[test]
    fn bit_flip_keeps_only_records_before_the_damage(
        records in FrameCorpus,
        position_seed in 0usize..1_000_000_000,
        bit in 0u8..8,
    ) {
        let (mut bytes, ends) = lay_out(&records);
        let position = position_seed % bytes.len();
        bytes[position] ^= 1 << bit;
        let (frames, valid_len) = decode_frames(&bytes);
        let expect = ends.iter().filter(|&&end| end <= position).count();
        assert_prefix(&records, &ends, &frames, valid_len, expect)?;
    }
}
