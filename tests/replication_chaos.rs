//! Chaos harness over the replicated serving backend.
//!
//! The protocol-level tests in `cmdl-core` exercise the delta stream in
//! isolation; this suite drives the whole serving stack — `CmdlService`
//! with `Backend::Replicated` — while the loopback links misbehave:
//! batches are dropped, duplicated, delayed out of order, bit-flipped in
//! flight, and ships fail outright to exercise the retry backoff. Replica
//! processes are killed mid-stream and revived later.
//!
//! The contracts asserted throughout:
//!
//! 1. **No torn generations** — a replica's published snapshot only ever
//!    moves forward, and only to generations the writer actually
//!    published (never past the writer, never backwards).
//! 2. **Bit-parity convergence** — once the faults stop, every replica
//!    converges to the writer's exact state: same generation, same
//!    stats, same search results bit for bit.
//! 3. **Reads never error** — with replicas lagging, dead, or all of
//!    them down at once, queries still answer from the freshest eligible
//!    source (falling back to the writer's own snapshot).

use std::sync::Arc;
use std::time::Duration;

use cmdl::core::{
    Cmdl, CmdlConfig, LinkChaos, LinkFault, LoopbackLink, QueryBuilder, Replica, ReplicationConfig,
    ReplicationGroup,
};
use cmdl::datalake::{synth, Column, Document, Table};
use cmdl::server::{CmdlService, ResponsePayload, ServiceRequest};

// ---------------------------------------------------------------------
// Rig
// ---------------------------------------------------------------------

/// A replicated service plus the handles the chaos tests steer it with.
/// `CmdlService::replicated` takes the group by value, so every handle is
/// cloned out before the hand-off.
struct Rig {
    service: CmdlService,
    replicas: Vec<Arc<Replica>>,
    chaos: Vec<Arc<LinkChaos>>,
    links: Vec<Arc<LoopbackLink>>,
}

fn rig(replicas: usize) -> Rig {
    let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
    // Auto-compaction off so each mutation bumps the generation exactly
    // once — the lag arithmetic below counts generations.
    let config = CmdlConfig {
        compaction_ratio: 1e9,
        ..CmdlConfig::fast()
    };
    let cmdl = Cmdl::build(lake, config);
    let replication = ReplicationConfig {
        replicas,
        lag_bound: 2,
        resync_lag: 3,
        reorder_window: 2,
        suspect_after: Duration::from_millis(30),
        down_after: Duration::from_millis(90),
        heartbeat_interval: Duration::from_millis(1),
        retry_base: Duration::from_micros(100),
        retry_cap: Duration::from_millis(1),
        ..ReplicationConfig::default()
    };
    let group = ReplicationGroup::new(&cmdl, replication);
    let replica_handles = (0..replicas).map(|i| group.replica(i)).collect();
    let chaos = (0..replicas)
        .map(|i| group.chaos(i).expect("loopback chaos"))
        .collect();
    let links = (0..replicas)
        .map(|i| group.loopback(i).expect("loopback link"))
        .collect();
    Rig {
        service: CmdlService::replicated(cmdl, group),
        replicas: replica_handles,
        chaos,
        links,
    }
}

impl Rig {
    /// Kill replica `i` the way `ReplicationGroup::kill` does: the
    /// process dies (in-flight batches lost) and its link refuses ships.
    fn kill(&self, i: usize) {
        self.replicas[i].kill();
        self.links[i].set_down(true);
    }

    /// Revive replica `i`: the link answers again and the process rejoins
    /// with its pre-kill catalog and a hole in its delta stream.
    fn revive(&self, i: usize) {
        self.links[i].set_down(false);
        self.replicas[i].revive();
    }
}

/// Apply scripted mutation `i` through the service (table, document, or an
/// explicit compaction — all three delta-record shapes ship).
fn mutate(service: &CmdlService, i: usize) {
    if i % 7 == 6 {
        assert!(service.handle(ServiceRequest::Compact).ok);
    } else if i % 3 == 2 {
        let document = Document::new(
            format!("chaos-note-{i}"),
            "Chaos",
            format!("replication delta note number {i} mentions alpha and beta"),
        );
        assert!(service.ingest_document(document).ok);
    } else {
        let table = Table::new(
            format!("Chaos_Feed_{i}"),
            vec![
                Column::from_texts("Id", [format!("cf-{i}-a"), format!("cf-{i}-b")]),
                Column::from_texts(
                    "Label",
                    [format!("alpha batch {i}"), format!("beta batch {i}")],
                ),
            ],
        );
        assert!(service.ingest_table(table).ok);
    }
}

/// Bit-parity probe: the replica's discovery surface answers identically
/// to the writer's published snapshot.
fn assert_replica_parity(service: &CmdlService, replica: &Replica) {
    let ours = service.snapshot();
    let theirs = replica.snapshot();
    assert_eq!(
        ours.generation,
        theirs.generation,
        "replica {} generation parity",
        replica.name()
    );
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

// ---------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------

#[test]
fn chaos_sweep_converges_to_bit_parity_with_no_torn_generations() {
    let rig = rig(2);
    // Arm a battery across both links. Occurrences are 0-based per-link
    // ship counts (retries included), one batch ships per mutation.
    rig.chaos[0].arm(2, LinkFault::Drop);
    rig.chaos[0].arm(5, LinkFault::Flip { offset: 33 });
    rig.chaos[0].arm(8, LinkFault::Fail);
    rig.chaos[1].arm(3, LinkFault::Delay { ticks: 2 });
    rig.chaos[1].arm(6, LinkFault::Duplicate);
    rig.chaos[1].arm(9, LinkFault::Drop);

    let mut floors = vec![0u64; rig.replicas.len()];
    for i in 0..24 {
        mutate(&rig.service, i);
        // Reads keep answering mid-chaos.
        let response = rig.service.handle(ServiceRequest::Query(
            QueryBuilder::keyword("alpha").build(),
        ));
        assert!(response.ok, "reads must never error under link chaos");
        // No torn generations: each replica's published snapshot moves
        // monotonically and never past the writer.
        let writer_generation = rig.service.snapshot().generation;
        for (r, replica) in rig.replicas.iter().enumerate() {
            let generation = replica.snapshot().generation;
            assert!(
                generation >= floors[r],
                "replica r{r} generation regressed: {} -> {generation}",
                floors[r]
            );
            assert!(
                generation <= writer_generation,
                "replica r{r} ran ahead of the writer"
            );
            floors[r] = generation;
        }
    }
    assert_eq!(
        rig.chaos[0].hits() + rig.chaos[1].hits(),
        6,
        "every armed fault fired"
    );
    // The stream self-heals (reorder buffer) or the writer resyncs from
    // checkpoint (drop/flip); a short clean tail flushes any residual lag.
    for i in 24..30 {
        mutate(&rig.service, i);
    }
    for replica in &rig.replicas {
        assert_replica_parity(&rig.service, replica);
    }
    assert!(
        rig.replicas.iter().any(|r| r.resyncs() > 0),
        "the drop/flip faults must have forced at least one resync"
    );
}

#[test]
fn killed_replica_decays_and_rejoins_via_resync() {
    let rig = rig(2);
    for i in 0..4 {
        mutate(&rig.service, i);
    }
    rig.kill(0);
    // Writes keep flowing; ships to the dead link fail and are retried
    // through the jittered backoff, then abandoned — that is just lag.
    for i in 4..10 {
        mutate(&rig.service, i);
    }
    // The dead replica's lag is visible and excludes it from routing.
    let status = rig.service.replica_status();
    assert!(
        status[0].lag > 2,
        "dead replica must trail past the lag bound, got {}",
        status[0].lag
    );
    assert_eq!(status[1].health, "healthy");
    // Silence decays the dead replica through Suspect to Down.
    std::thread::sleep(Duration::from_millis(150));
    let status = rig.service.replica_status();
    assert_eq!(
        status[0].health, "down",
        "silence past down_after must mark the replica Down"
    );
    // Reads still answer, at the writer's current generation.
    let response = rig.service.handle(ServiceRequest::Query(
        QueryBuilder::keyword("alpha").build(),
    ));
    assert!(response.ok);
    // Revive: gap/lag detection walks it through resync back to parity.
    rig.revive(0);
    for i in 10..16 {
        mutate(&rig.service, i);
    }
    assert!(
        rig.replicas[0].resyncs() >= 1,
        "the rejoin must go through resync, not silent catch-up"
    );
    for replica in &rig.replicas {
        assert_replica_parity(&rig.service, replica);
    }
    let status = rig.service.replica_status();
    assert!(status.iter().all(|s| s.health == "healthy" && s.lag == 0));
}

#[test]
fn reads_fall_back_to_writer_with_every_replica_down() {
    let rig = rig(2);
    for i in 0..3 {
        mutate(&rig.service, i);
    }
    rig.kill(0);
    rig.kill(1);
    // Push the survivors' stale snapshots past the lag bound so routing
    // cannot use them even while health detection still says Healthy.
    for i in 3..8 {
        mutate(&rig.service, i);
    }
    let writer_generation = rig.service.snapshot().generation;
    let response = rig.service.handle(ServiceRequest::Query(
        QueryBuilder::keyword("alpha").build(),
    ));
    assert!(
        response.ok,
        "total replica loss degrades reads, never errors"
    );
    match response.payload {
        Some(ResponsePayload::Query(inner)) => assert_eq!(
            inner.generation, writer_generation,
            "fallback reads serve the writer's snapshot, not a stale replica"
        ),
        other => panic!("wrong payload: {other:?}"),
    }
    // Health still reports ok (the writer is fine) with both replicas
    // visibly lagging.
    match rig.service.handle(ServiceRequest::Health).payload {
        Some(ResponsePayload::Health(h)) => {
            assert_eq!(h.status, "ok");
            assert_eq!(h.replicas.len(), 2);
            assert!(h.replicas.iter().all(|r| r.lag > 2));
        }
        other => panic!("wrong payload: {other:?}"),
    }
}
