//! Replication protocol tests over the loopback link — no sockets, no
//! serving layer. Degraded-read routing, health timing, and
//! resync-after-rejoin parity run here at the protocol level; the service
//! backend and the end-to-end chaos sweep live in `cmdl-server` and the
//! workspace `tests/replication_chaos.rs`.

use super::*;
use crate::config::CmdlConfig;
use crate::query::QueryBuilder;
use cmdl_datalake::{synth, Column, Document, Table};

fn writer() -> Cmdl {
    let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
    // Auto-compaction off so each mutation bumps the generation exactly
    // once — the lag assertions below count generations. (Compaction
    // itself replicates fine; see `compact_records_replicate_deterministically`.)
    let config = CmdlConfig {
        compaction_ratio: 1e9,
        ..CmdlConfig::fast()
    };
    Cmdl::build(lake, config)
}

fn synth_table(i: usize) -> Table {
    Table::new(
        format!("Replica_Feed_{i}"),
        vec![
            Column::from_texts("Id", [format!("rf-{i}-a"), format!("rf-{i}-b")]),
            Column::from_texts(
                "Label",
                [format!("alpha batch {i}"), format!("beta batch {i}")],
            ),
        ],
    )
}

fn synth_document(i: usize) -> Document {
    Document::new(
        format!("replica-note-{i}"),
        "Feed",
        format!("replication delta note number {i} mentions alpha and beta"),
    )
}

/// Tight timings for tests that exercise the silence decay.
fn fast_config(replicas: usize) -> ReplicationConfig {
    ReplicationConfig {
        replicas,
        lag_bound: 2,
        resync_lag: 4,
        reorder_window: 2,
        suspect_after: Duration::from_millis(20),
        down_after: Duration::from_millis(60),
        heartbeat_interval: Duration::from_millis(1),
        retry_base: Duration::from_micros(100),
        retry_cap: Duration::from_millis(1),
        ..ReplicationConfig::default()
    }
}

/// Apply mutation `i` on the writer and return the delta records to ship.
fn mutate(writer: &mut Cmdl, i: usize) -> Vec<DeltaRecord> {
    if i % 3 == 2 {
        let document = synth_document(i);
        writer
            .ingest_document(document.clone())
            .expect("ingest document");
        vec![DeltaRecord::Wal(WalRecord::IngestDocument(document))]
    } else {
        let table = synth_table(i);
        writer.ingest_table(table.clone()).expect("ingest table");
        vec![DeltaRecord::Wal(WalRecord::IngestTable(table))]
    }
}

/// Bit-parity probe: the discovery surface answers identically.
fn assert_parity(writer: &Cmdl, replica: &Replica) {
    let ours = writer.snapshot();
    let theirs = replica.snapshot();
    assert_eq!(ours.generation, theirs.generation, "generation parity");
    assert_eq!(ours.stats(), theirs.stats(), "stats parity");
    for text in ["alpha", "beta batch", "enzyme", "inhibitor"] {
        let query = QueryBuilder::keyword(text).top_k(10).build();
        assert_eq!(
            ours.execute(&query).unwrap().hits,
            theirs.execute(&query).unwrap().hits,
            "content search parity for {text:?}"
        );
    }
}

fn no_pause() -> impl FnMut(usize, u32) {
    |_, _| {}
}

#[test]
fn delta_batch_roundtrips_and_detects_bit_flips() {
    let records = vec![
        DeltaRecord::Wal(WalRecord::IngestTable(synth_table(0))),
        DeltaRecord::Compact,
    ];
    let batch = DeltaBatch::new(7, 3, 5, &records);
    let decoded = batch.records().expect("clean batch decodes");
    assert_eq!(decoded.len(), 2);
    assert!(matches!(decoded[1], DeltaRecord::Compact));

    // Any single flipped bit is caught by the frame checksum.
    for offset in [0, 13, 257, 4099] {
        let mut corrupt = batch.clone();
        corrupt.flip_bit(offset);
        assert!(
            corrupt.records().is_err(),
            "flip at {offset} must fail the checksum"
        );
    }
}

#[test]
fn loopback_chaos_faults_fire_once_each() {
    let link = LoopbackLink::new();
    let chaos = link.chaos();
    chaos.arm(0, LinkFault::Drop);
    chaos.arm(1, LinkFault::Duplicate);
    chaos.arm(2, LinkFault::Fail);

    let batch = |seq| DeltaBatch::new(seq, 0, 0, &[]);
    assert!(link.ship(batch(0)).is_ok(), "drop is a silent success");
    assert!(link.ship(batch(1)).is_ok());
    assert!(link.ship(batch(2)).is_err(), "armed failure surfaces");
    assert!(link.ship(batch(2)).is_ok(), "retry of the same batch lands");
    let seqs: Vec<u64> = link.drain().iter().map(|b| b.seq).collect();
    assert_eq!(seqs, vec![1, 1, 2], "dropped 0, duplicated 1, retried 2");
    assert_eq!(chaos.hits(), 3);
}

#[test]
fn delayed_batches_arrive_reordered_and_still_apply_in_sequence() {
    let mut writer = writer();
    let group = ReplicationGroup::new(&writer, fast_config(1));
    // Delay batch 0 by two ships: arrival order becomes 1, 2, 0.
    group
        .chaos(0)
        .unwrap()
        .arm(0, LinkFault::Delay { ticks: 2 });

    for i in 0..3 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut no_pause());
    }
    // The first pump sees 1 and 2 only: buffered, nothing applied, and the
    // published snapshot must not move (no torn generation).
    let before = group.replica(0).generation();
    // (batches 1 and 2 are in the inbox; 0 is released by the third ship,
    // so everything is actually present — ship a fourth to prove the
    // reorder buffer held them until 0 arrived.)
    assert!(group.pump_all().is_empty(), "no resync needed");
    let replica = group.replica(0);
    assert!(replica.generation() >= before);
    assert_eq!(replica.applied_batches(), 3, "all three applied in order");
    assert_eq!(replica.resyncs(), 0, "reordering absorbed without resync");
    assert_parity(&writer, &replica);
}

#[test]
fn duplicates_are_ignored() {
    let mut writer = writer();
    let group = ReplicationGroup::new(&writer, fast_config(1));
    group.chaos(0).unwrap().arm(0, LinkFault::Duplicate);
    group.chaos(0).unwrap().arm(1, LinkFault::Duplicate);

    for i in 0..4 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut no_pause());
        group.pump_all();
    }
    let replica = group.replica(0);
    assert_eq!(replica.applied_batches(), 4, "each batch applied once");
    assert_parity(&writer, &replica);
}

#[test]
fn bit_flip_in_flight_triggers_resync_and_parity_is_restored() {
    let mut writer = writer();
    let group = ReplicationGroup::new(&writer, fast_config(2));
    group
        .chaos(1)
        .unwrap()
        .arm(2, LinkFault::Flip { offset: 1234 });

    for i in 0..5 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut no_pause());
        for i in group.pump_all() {
            group.mark_recovering(i);
            let clone = writer.resync_clone().expect("resync clone");
            group.install_resynced(i, clone, group.current_seq());
        }
    }
    let poisoned = group.replica(1);
    assert_eq!(poisoned.resyncs(), 1, "checksum mismatch forced one resync");
    assert_parity(&writer, &poisoned);
    assert_parity(&writer, &group.replica(0));
    assert_eq!(group.replica(0).resyncs(), 0, "clean replica never resyncs");
}

#[test]
fn dropped_batches_open_a_gap_that_resync_closes() {
    let mut writer = writer();
    let mut config = fast_config(1);
    config.reorder_window = 1;
    let group = ReplicationGroup::new(&writer, config);
    group.chaos(0).unwrap().arm(1, LinkFault::Drop);

    let mut resynced = 0;
    for i in 0..5 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut no_pause());
        for i in group.pump_all() {
            group.mark_recovering(i);
            assert_eq!(group.replica(i).health(), ReplicaHealth::Recovering);
            let clone = writer.resync_clone().expect("resync clone");
            group.install_resynced(i, clone, group.current_seq());
            resynced += 1;
        }
    }
    assert_eq!(resynced, 1, "the gap triggered exactly one resync");
    let replica = group.replica(0);
    assert_eq!(replica.health(), ReplicaHealth::Healthy);
    assert_parity(&writer, &replica);
}

#[test]
fn route_round_robins_over_healthy_replicas() {
    let writer = writer();
    let group = ReplicationGroup::new(&writer, fast_config(3));
    let mut seen = [0usize; 3];
    for _ in 0..30 {
        let (i, snapshot) = group.route().expect("healthy group routes");
        assert_eq!(snapshot.generation, writer.generation());
        seen[i] += 1;
    }
    assert!(
        seen.iter().all(|&n| n >= 9),
        "round robin spreads reads: {seen:?}"
    );
}

#[test]
fn lag_beyond_bound_excludes_replica_and_empty_set_falls_back() {
    let mut writer = writer();
    let mut config = fast_config(2);
    config.lag_bound = 1;
    config.resync_lag = 100; // keep the laggards lagging, not resyncing
    config.reorder_window = 100;
    let group = ReplicationGroup::new(&writer, config);
    // Drop everything shipped to replica 1: it will trail by the full
    // mutation count while replica 0 stays current.
    for occurrence in 0..8 {
        group.chaos(1).unwrap().arm(occurrence, LinkFault::Drop);
    }
    for i in 0..4 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut no_pause());
        assert!(group.pump_all().is_empty());
    }
    group.sweep_now();
    assert_eq!(group.replica(1).health(), ReplicaHealth::Lagging);
    for _ in 0..10 {
        let (i, _) = group.route().expect("replica 0 is current");
        assert_eq!(i, 0, "laggard beyond the bound never serves reads");
    }
    // Kill the current one too: nothing qualifies, the caller must fall
    // back to the writer snapshot — routing returns None, not an error.
    group.kill(0);
    std::thread::sleep(Duration::from_millis(25));
    group.sweep_now();
    assert!(group.route().is_none(), "no eligible replica routes");
}

#[test]
fn silence_decays_healthy_to_suspect_to_down() {
    let writer = writer();
    let group = ReplicationGroup::new(&writer, fast_config(1));
    let replica = group.replica(0);
    assert_eq!(replica.health(), ReplicaHealth::Healthy);

    group.kill(0);
    group.sweep_now();
    assert_eq!(
        replica.health(),
        ReplicaHealth::Healthy,
        "silence below suspect_after keeps the last classification"
    );
    std::thread::sleep(Duration::from_millis(25));
    group.sweep_now();
    assert_eq!(replica.health(), ReplicaHealth::Suspect);
    std::thread::sleep(Duration::from_millis(60));
    group.sweep_now();
    assert_eq!(replica.health(), ReplicaHealth::Down);
}

#[test]
fn killed_then_revived_replica_rejoins_via_resync() {
    let mut writer = writer();
    let group = ReplicationGroup::new(&writer, fast_config(2));

    for i in 0..2 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut no_pause());
        assert!(group.pump_all().is_empty());
    }
    group.kill(0);
    // Ships to the dead replica fail (and are retried, then abandoned);
    // the survivor keeps applying.
    let mut pauses = 0u32;
    for i in 2..8 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut |_, _| pauses += 1);
        group.pump_all();
    }
    assert!(pauses > 0, "dead link exercised the retry path");
    assert_parity(&writer, &group.replica(1));

    group.revive(0);
    let records = mutate(&mut writer, 8);
    group.ship(&records, writer.generation(), &mut no_pause());
    let needs = group.pump_all();
    assert_eq!(needs, vec![0], "revived replica is past resync_lag");
    group.mark_recovering(0);
    let clone = writer.resync_clone().expect("resync clone");
    group.install_resynced(0, clone, group.current_seq());

    let rejoined = group.replica(0);
    assert_eq!(rejoined.resyncs(), 1);
    assert_eq!(rejoined.health(), ReplicaHealth::Healthy);
    assert_parity(&writer, &rejoined);

    // And it keeps up afterwards through the ordinary stream.
    let records = mutate(&mut writer, 9);
    group.ship(&records, writer.generation(), &mut no_pause());
    assert!(group.pump_all().is_empty());
    assert_parity(&writer, &rejoined);
}

#[test]
fn compact_records_replicate_deterministically() {
    let mut writer = writer();
    let group = ReplicationGroup::new(&writer, fast_config(1));
    for i in 0..3 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut no_pause());
    }
    writer.compact();
    group.ship(
        &[DeltaRecord::Compact],
        writer.generation(),
        &mut no_pause(),
    );
    assert!(group.pump_all().is_empty());
    assert_parity(&writer, &group.replica(0));
}

#[test]
fn status_reports_lag_and_health() {
    let mut writer = writer();
    let mut config = fast_config(2);
    config.resync_lag = 100;
    config.reorder_window = 100;
    let group = ReplicationGroup::new(&writer, config);
    for occurrence in 0..8 {
        group.chaos(1).unwrap().arm(occurrence, LinkFault::Drop);
    }
    for i in 0..3 {
        let records = mutate(&mut writer, i);
        group.ship(&records, writer.generation(), &mut no_pause());
        group.pump_all();
    }
    group.sweep_now();
    let status = group.status();
    assert_eq!(status.len(), 2);
    assert_eq!(status[0].name, "r0");
    assert_eq!(status[0].health, "healthy");
    assert_eq!(status[0].lag, 0);
    assert_eq!(status[0].applied_batches, 3);
    assert_eq!(status[1].name, "r1");
    assert_eq!(status[1].health, "lagging");
    assert_eq!(status[1].lag, 3);
    assert_eq!(status[1].applied_batches, 0);
    assert_eq!(status[1].health_gauge(), ReplicaHealth::Lagging.gauge());
}
