//! Delta-log shipping to read replicas (ROADMAP item 2, HTAP half).
//!
//! One writer applies mutations through the ordinary [`Cmdl`] paths, then
//! ships the same records it would WAL — wrapped as generation-stamped,
//! xxh64-checksummed [`DeltaBatch`]es reusing the WAL binary codec — over a
//! [`ReplicaLink`] to N read [`Replica`]s. Each replica applies batches
//! strictly in sequence to its own catalog and republishes a
//! [`CatalogSnapshot`] only after a whole batch lands, so readers never
//! observe a torn generation.
//!
//! Robustness is the point, not the transport:
//!
//! * a per-replica health state machine ([`ReplicaHealth`]) driven by
//!   apply-acks and heartbeats;
//! * read routing ([`ReplicationGroup::route`]) restricted to replicas
//!   within a configurable lag bound, with the caller falling back to the
//!   writer's own snapshot when no replica qualifies — degradation, never
//!   an error;
//! * out-of-order delivery absorbed by a bounded reorder buffer; gaps,
//!   checksum mismatches, and generation discontinuities all collapse to
//!   one recovery action: resync-from-checkpoint
//!   ([`PumpOutcome::NeedsResync`] → [`Cmdl::resync_clone`] →
//!   [`ReplicationGroup::install_resynced`]);
//! * a chaos-injectable loopback link ([`LoopbackLink`] + [`LinkChaos`])
//!   mirroring the persist layer's `FaultPlan`, so the whole failure
//!   surface is testable without sockets.
//!
//! The writer-side driver (batching, ship retries with jittered backoff,
//! resync orchestration) lives in the serving layer
//! (`cmdl-server`'s `Backend::Replicated`); this module owns the protocol
//! and the replica state.

mod health;
mod link;

pub use health::ReplicaHealth;
pub use link::{LinkChaos, LinkError, LinkFault, LoopbackLink, ReplicaLink};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::discovery::Cmdl;
use crate::persist::{decode_frames, encode_frame, WalRecord};
use crate::snapshot::{publish, CatalogSnapshot};

/// One replicated mutation. `Wal` carries the exact record the writer's
/// WAL path logs (or would log, for an in-memory writer); `Compact` covers
/// the one generation-bumping mutation that has no WAL record because it
/// *rewrites* the log instead of appending to it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DeltaRecord {
    /// An ordinary mutation, replayed on the replica through the same code
    /// path as WAL recovery.
    Wal(WalRecord),
    /// A compaction request; the replica runs its own [`Cmdl::compact`],
    /// which is deterministic given identical state and config.
    Compact,
}

/// A generation-stamped batch of delta records, framed with the WAL binary
/// codec: the payload is the bin-serialized record list wrapped in a
/// `[len][seq][xxh64][payload]` frame, so a single bit flip anywhere in
/// flight is detected exactly as it would be on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaBatch {
    /// Dense per-group sequence number; replicas apply strictly in order.
    pub seq: u64,
    /// The writer generation this batch applies on top of. A mismatch on
    /// the replica means the stream is discontinuous → resync.
    pub base_generation: u64,
    /// The writer generation after this batch. The replica verifies it
    /// lands exactly here before publishing.
    pub target_generation: u64,
    /// WAL-codec frame: `encode_frame(seq, bin(records))`.
    frame: Vec<u8>,
}

impl DeltaBatch {
    /// Encode `records` into a checksummed batch.
    pub fn new(
        seq: u64,
        base_generation: u64,
        target_generation: u64,
        records: &[DeltaRecord],
    ) -> Self {
        let payload = serde::to_bin_bytes(records);
        Self {
            seq,
            base_generation,
            target_generation,
            frame: encode_frame(seq, &payload),
        }
    }

    /// Decode and checksum-verify the records. Any corruption — truncated
    /// frame, flipped bit, sequence/stamp mismatch — comes back as `Err`
    /// with the reason; the caller must treat the batch as poisoned and
    /// resync.
    pub fn records(&self) -> Result<Vec<DeltaRecord>, String> {
        let (frames, consumed) = decode_frames(&self.frame);
        if frames.len() != 1 || consumed != self.frame.len() {
            return Err(format!(
                "delta batch {} failed frame checksum ({} of {} bytes decoded)",
                self.seq,
                consumed,
                self.frame.len()
            ));
        }
        let (lsn, payload) = &frames[0];
        if *lsn != self.seq {
            return Err(format!(
                "delta batch {} frame stamped with sequence {lsn}",
                self.seq
            ));
        }
        serde::from_bin_bytes(payload)
            .map_err(|e| format!("delta batch {} payload undecodable: {e}", self.seq))
    }

    /// Flip one bit of the encoded frame (chaos injection).
    pub fn flip_bit(&mut self, offset: usize) {
        if self.frame.is_empty() {
            return;
        }
        let byte = (offset / 8) % self.frame.len();
        self.frame[byte] ^= 1 << (offset % 8);
    }
}

/// Replication tuning. Not serialized: this is runtime wiring, not catalog
/// state (the catalog-level knobs live in `CmdlConfig`).
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Number of read replicas.
    pub replicas: usize,
    /// Maximum generations a replica may trail the writer and still serve
    /// reads.
    pub lag_bound: u64,
    /// Lag (in generations) beyond which the writer stops waiting for the
    /// stream to self-heal and resyncs the replica from checkpoint.
    pub resync_lag: u64,
    /// How many out-of-order batches a replica buffers before concluding
    /// the gap is a loss, not a reordering, and requesting resync.
    pub reorder_window: usize,
    /// Silence (no heartbeat or apply-ack) before a replica turns Suspect.
    pub suspect_after: Duration,
    /// Silence before a Suspect replica turns Down.
    pub down_after: Duration,
    /// Minimum interval between heartbeat sweeps (`tick` is rate-limited
    /// to this).
    pub heartbeat_interval: Duration,
    /// Ship attempts per batch per replica before abandoning it to resync.
    pub ship_attempts: u32,
    /// Base delay for the jittered-exponential ship retry backoff.
    pub retry_base: Duration,
    /// Delay ceiling for the ship retry backoff.
    pub retry_cap: Duration,
    /// Seed for deterministic retry jitter in tests.
    pub seed: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            lag_bound: 8,
            resync_lag: 32,
            reorder_window: 4,
            suspect_after: Duration::from_millis(500),
            down_after: Duration::from_millis(2000),
            heartbeat_interval: Duration::from_millis(50),
            ship_attempts: 3,
            retry_base: Duration::from_millis(2),
            retry_cap: Duration::from_millis(50),
            seed: 0xC3D1,
        }
    }
}

/// A wire/report-friendly view of one replica, embedded in `/healthz`,
/// `/stats`, and the `cmdl_replica_*` metric series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStatus {
    /// Replica name (`r0`, `r1`, ...).
    pub name: String,
    /// Health state label (see [`ReplicaHealth::as_str`]).
    pub health: String,
    /// The generation of the replica's published snapshot.
    pub generation: u64,
    /// Generations behind the writer's last shipped generation.
    pub lag: u64,
    /// Delta batches applied since birth (cumulative across resyncs).
    pub applied_batches: u64,
    /// Resync-from-checkpoint installs since birth.
    pub resyncs: u64,
}

impl ReplicaStatus {
    /// The `cmdl_replica_health_state` gauge value for this status.
    pub fn health_gauge(&self) -> u8 {
        match self.health.as_str() {
            "healthy" => ReplicaHealth::Healthy.gauge(),
            "lagging" => ReplicaHealth::Lagging.gauge(),
            "suspect" => ReplicaHealth::Suspect.gauge(),
            "down" => ReplicaHealth::Down.gauge(),
            _ => ReplicaHealth::Recovering.gauge(),
        }
    }
}

/// What one [`Replica::pump`] pass observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PumpOutcome {
    /// Nothing to apply.
    Idle,
    /// Applied this many batches in order and republished.
    Applied(u64),
    /// The stream is unrecoverable in place (checksum failure, generation
    /// discontinuity, or a delivery gap beyond the reorder window); the
    /// writer must resync this replica from checkpoint.
    NeedsResync(String),
    /// The replica process is dead; nothing was pumped.
    Dead,
}

struct ReplicaState {
    health: ReplicaHealth,
    last_ack: Instant,
}

/// One read replica: its own catalog, its published snapshot, and the
/// apply-side of the delta stream.
pub struct Replica {
    name: String,
    link: Arc<dyn ReplicaLink>,
    catalog: Mutex<Cmdl>,
    published: RwLock<CatalogSnapshot>,
    /// Out-of-order arrivals buffered by sequence number.
    pending: Mutex<BTreeMap<u64, DeltaBatch>>,
    /// The next batch sequence this replica will apply.
    next_seq: AtomicU64,
    alive: AtomicBool,
    applied_batches: AtomicU64,
    resyncs: AtomicU64,
    state: Mutex<ReplicaState>,
}

impl Replica {
    /// Build a replica around `catalog` (normally a
    /// [`Cmdl::from_snapshot`] of the writer) fed by `link`.
    pub fn new(name: String, catalog: Cmdl, link: Arc<dyn ReplicaLink>) -> Self {
        let published = catalog.snapshot();
        Self {
            name,
            link,
            catalog: Mutex::new(catalog),
            published: RwLock::new(published),
            pending: Mutex::new(BTreeMap::new()),
            next_seq: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            applied_batches: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            state: Mutex::new(ReplicaState {
                health: ReplicaHealth::Healthy,
                last_ack: Instant::now(),
            }),
        }
    }

    /// The replica's name (`r0`, `r1`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Is the replica process alive (kill/revive toggle)?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// The replica's current health classification.
    pub fn health(&self) -> ReplicaHealth {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).health
    }

    /// The replica's published (fully-applied) snapshot.
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.published
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The generation of the published snapshot.
    pub fn generation(&self) -> u64 {
        self.published
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .generation
    }

    /// Delta batches applied since birth.
    pub fn applied_batches(&self) -> u64 {
        self.applied_batches.load(Ordering::SeqCst)
    }

    /// Resync-from-checkpoint installs since birth.
    pub fn resyncs(&self) -> u64 {
        self.resyncs.load(Ordering::SeqCst)
    }

    pub(crate) fn link(&self) -> &Arc<dyn ReplicaLink> {
        &self.link
    }

    /// Kill the replica process: in-flight batches are lost (a socket
    /// buffer dies with its owner) and the link refuses further ships. The
    /// published snapshot is deliberately left standing — it remains a
    /// valid, internally consistent (if increasingly stale) read source
    /// until health detection excludes it.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.link.clear();
        self.pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }

    /// Revive a killed replica. It rejoins with its pre-kill catalog and a
    /// hole in its delta stream, so the normal gap/lag detection walks it
    /// through resync.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Drain the link and apply every in-order batch, buffering
    /// out-of-order arrivals and dropping duplicates. The published
    /// snapshot moves only after whole batches are applied and the
    /// generation verified — a reader either sees the previous generation
    /// or the new one, never a torn intermediate.
    pub fn pump(&self, config: &ReplicationConfig) -> PumpOutcome {
        if !self.is_alive() {
            return PumpOutcome::Dead;
        }
        {
            let delivered = self.link.drain();
            let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
            let floor = self.next_seq.load(Ordering::SeqCst);
            for batch in delivered {
                // A sequence below the floor is a duplicate of something
                // already applied; equal-or-above goes into the reorder
                // buffer (re-insertion of the same seq overwrites — the
                // copies are identical unless corrupted, and corruption is
                // caught at decode).
                if batch.seq >= floor {
                    pending.insert(batch.seq, batch);
                }
            }
        }
        let mut applied = 0u64;
        let mut catalog = self.catalog.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let next = self.next_seq.load(Ordering::SeqCst);
            let batch = {
                let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
                match pending.remove(&next) {
                    Some(batch) => batch,
                    None => break,
                }
            };
            let records = match batch.records() {
                Ok(records) => records,
                Err(reason) => return self.needs_resync(reason),
            };
            if batch.base_generation != catalog.generation() {
                return self.needs_resync(format!(
                    "batch {} expects base generation {} but replica is at {}",
                    batch.seq,
                    batch.base_generation,
                    catalog.generation()
                ));
            }
            for record in records {
                let outcome = match record {
                    DeltaRecord::Wal(record) => catalog.apply_wal_record(record),
                    DeltaRecord::Compact => {
                        catalog.compact();
                        Ok(())
                    }
                };
                if let Err(error) = outcome {
                    return self.needs_resync(format!(
                        "batch {} diverged during apply: {error}",
                        batch.seq
                    ));
                }
            }
            if catalog.generation() != batch.target_generation {
                return self.needs_resync(format!(
                    "batch {} landed at generation {} instead of {}",
                    batch.seq,
                    catalog.generation(),
                    batch.target_generation
                ));
            }
            self.next_seq.store(next + 1, Ordering::SeqCst);
            applied += 1;
        }
        let retired = (applied > 0).then(|| {
            self.applied_batches.fetch_add(applied, Ordering::SeqCst);
            publish(&self.published, catalog.snapshot())
        });
        drop(catalog);
        drop(retired);
        let gap = {
            let pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
            pending
                .keys()
                .next_back()
                .map_or(0, |max| max + 1 - self.next_seq.load(Ordering::SeqCst))
        };
        if gap as usize > config.reorder_window {
            return self.needs_resync(format!(
                "delivery gap of {gap} exceeds reorder window {}",
                config.reorder_window
            ));
        }
        if applied > 0 {
            PumpOutcome::Applied(applied)
        } else {
            PumpOutcome::Idle
        }
    }

    /// Flag the stream poisoned: the buffered tail is useless (it applies
    /// on top of state this replica can no longer reach), so it is cleared
    /// and the replica marked Recovering until the writer installs a
    /// resynced catalog.
    fn needs_resync(&self, reason: String) -> PumpOutcome {
        self.pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.health = ReplicaHealth::Recovering;
        PumpOutcome::NeedsResync(reason)
    }

    /// Record a live contact (heartbeat or apply-ack) and reclassify by
    /// lag against `shipped_generation`.
    fn ack(&self, shipped_generation: u64, config: &ReplicationConfig) {
        let lag = shipped_generation.saturating_sub(self.generation());
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.last_ack = Instant::now();
        if state.health != ReplicaHealth::Recovering {
            state.health = if lag > config.lag_bound {
                ReplicaHealth::Lagging
            } else {
                ReplicaHealth::Healthy
            };
        }
    }

    /// Advance the silence-based transitions for a replica that is not
    /// responding: Suspect after `suspect_after`, Down after `down_after`.
    fn decay(&self, now: Instant, config: &ReplicationConfig) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let silent = now.saturating_duration_since(state.last_ack);
        if silent >= config.down_after {
            state.health = ReplicaHealth::Down;
        } else if silent >= config.suspect_after {
            state.health = ReplicaHealth::Suspect;
        }
    }

    fn mark_recovering(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.health = ReplicaHealth::Recovering;
    }

    /// Install a freshly resynced catalog and rejoin the stream at
    /// `next_seq`. Publishes atomically, clears the (poisoned) reorder
    /// buffer, and returns the replica to Healthy.
    pub(crate) fn install_resynced(&self, catalog: Cmdl, next_seq: u64) {
        let snapshot = catalog.snapshot();
        let retiring = std::mem::replace(
            &mut *self.catalog.lock().unwrap_or_else(|p| p.into_inner()),
            catalog,
        );
        self.pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
        self.next_seq.store(next_seq, Ordering::SeqCst);
        let retired = publish(&self.published, snapshot);
        drop((retiring, retired));
        self.resyncs.fetch_add(1, Ordering::SeqCst);
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.health = ReplicaHealth::Healthy;
        state.last_ack = Instant::now();
    }

    /// This replica's reportable status, with lag measured against
    /// `shipped_generation`.
    pub fn status(&self, shipped_generation: u64) -> ReplicaStatus {
        let generation = self.generation();
        ReplicaStatus {
            name: self.name.clone(),
            health: self.health().as_str().to_string(),
            generation,
            lag: shipped_generation.saturating_sub(generation),
            applied_batches: self.applied_batches(),
            resyncs: self.resyncs(),
        }
    }
}

/// The writer-side view of a replica set: sequencing, shipping, health
/// sweeps, and read routing. The group does not own the writer catalog —
/// the serving layer drives it with the records the writer just applied.
pub struct ReplicationGroup {
    config: ReplicationConfig,
    replicas: Vec<Arc<Replica>>,
    /// Loopback handles for chaos arming, populated by [`new`](Self::new).
    loopbacks: Vec<Arc<LoopbackLink>>,
    /// Sequence number the next shipped batch will carry.
    next_seq: AtomicU64,
    /// Target generation of the last shipped batch (= base of the next).
    shipped_generation: AtomicU64,
    /// Round-robin cursor over eligible replicas.
    cursor: AtomicU64,
    last_beat: Mutex<Instant>,
}

impl ReplicationGroup {
    /// Build `config.replicas` replicas, each bootstrapped from the
    /// writer's current snapshot over a fresh [`LoopbackLink`].
    pub fn new(writer: &Cmdl, config: ReplicationConfig) -> Self {
        let mut replicas = Vec::with_capacity(config.replicas);
        let mut loopbacks = Vec::with_capacity(config.replicas);
        for i in 0..config.replicas {
            let link = LoopbackLink::new();
            loopbacks.push(Arc::clone(&link));
            replicas.push(Arc::new(Replica::new(
                format!("r{i}"),
                Cmdl::from_snapshot(writer.snapshot()),
                link as Arc<dyn ReplicaLink>,
            )));
        }
        Self {
            shipped_generation: AtomicU64::new(writer.generation()),
            config,
            replicas,
            loopbacks,
            next_seq: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            last_beat: Mutex::new(Instant::now()),
        }
    }

    /// The group's replication tuning.
    pub fn config(&self) -> &ReplicationConfig {
        &self.config
    }

    /// Number of replicas in the group.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the group has no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// A handle to replica `i` (for kill/revive and direct inspection).
    pub fn replica(&self, i: usize) -> Arc<Replica> {
        Arc::clone(&self.replicas[i])
    }

    /// The chaos plan of replica `i`'s loopback link, if the group was
    /// built with loopback links. Keep a clone before handing the group to
    /// a service.
    pub fn chaos(&self, i: usize) -> Option<Arc<LinkChaos>> {
        self.loopbacks.get(i).map(|link| link.chaos())
    }

    /// The loopback link of replica `i` (kill/revive wiring), if any.
    pub fn loopback(&self, i: usize) -> Option<Arc<LoopbackLink>> {
        self.loopbacks.get(i).cloned()
    }

    /// Kill replica `i`: the process dies and its link starts refusing
    /// ships.
    pub fn kill(&self, i: usize) {
        self.replicas[i].kill();
        if let Some(link) = self.loopbacks.get(i) {
            link.set_down(true);
        }
    }

    /// Revive replica `i`.
    pub fn revive(&self, i: usize) {
        if let Some(link) = self.loopbacks.get(i) {
            link.set_down(false);
        }
        self.replicas[i].revive();
    }

    /// The sequence number the next shipped batch will carry.
    pub fn current_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// The writer generation as of the last shipped batch.
    pub fn shipped_generation(&self) -> u64 {
        self.shipped_generation.load(Ordering::SeqCst)
    }

    /// Ship one batch of records (taking the writer to
    /// `target_generation`) to every replica. Each failed ship is retried
    /// up to `ship_attempts` times; `retry_pause(replica, attempt)` runs
    /// between attempts (the serving layer plugs in the jittered
    /// exponential backoff). A batch abandoned after the retry budget is
    /// simply a gap — resync covers it.
    pub fn ship(
        &self,
        records: &[DeltaRecord],
        target_generation: u64,
        retry_pause: &mut dyn FnMut(usize, u32),
    ) {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let base = self
            .shipped_generation
            .swap(target_generation, Ordering::SeqCst);
        let batch = DeltaBatch::new(seq, base, target_generation, records);
        for (i, replica) in self.replicas.iter().enumerate() {
            let mut attempt = 0u32;
            loop {
                match replica.link().ship(batch.clone()) {
                    Ok(()) => break,
                    Err(_) => {
                        attempt += 1;
                        if attempt >= self.config.ship_attempts {
                            break;
                        }
                        retry_pause(i, attempt);
                    }
                }
            }
        }
    }

    /// Pump every live replica, refresh ack-driven health, and return the
    /// indices that need a resync (stream poisoned in place, or lag beyond
    /// `resync_lag`).
    pub fn pump_all(&self) -> Vec<usize> {
        let mut needs = Vec::new();
        let shipped = self.shipped_generation();
        for (i, replica) in self.replicas.iter().enumerate() {
            match replica.pump(&self.config) {
                PumpOutcome::NeedsResync(reason) => {
                    eprintln!("cmdl: replica {} needs resync: {reason}", replica.name());
                    needs.push(i);
                }
                PumpOutcome::Dead => continue,
                PumpOutcome::Applied(_) | PumpOutcome::Idle => {
                    replica.ack(shipped, &self.config);
                }
            }
            if !needs.contains(&i)
                && shipped.saturating_sub(replica.generation()) > self.config.resync_lag
            {
                needs.push(i);
            }
        }
        needs
    }

    /// Heartbeat sweep, rate-limited to `heartbeat_interval`: live
    /// replicas get their contact refreshed (the in-process link answers a
    /// heartbeat whenever the process is alive); silent ones decay through
    /// Suspect to Down.
    pub fn tick(&self) {
        let now = Instant::now();
        {
            let mut last = self.last_beat.lock().unwrap_or_else(|p| p.into_inner());
            if now.saturating_duration_since(*last) < self.config.heartbeat_interval {
                return;
            }
            *last = now;
        }
        let shipped = self.shipped_generation();
        for replica in &self.replicas {
            if replica.is_alive() {
                replica.ack(shipped, &self.config);
            } else {
                replica.decay(now, &self.config);
            }
        }
    }

    /// Force the silence-based decay sweep immediately (test/benchmark
    /// hook; `tick` is rate-limited).
    pub fn sweep_now(&self) {
        let now = Instant::now();
        let shipped = self.shipped_generation();
        for replica in &self.replicas {
            if replica.is_alive() {
                replica.ack(shipped, &self.config);
            } else {
                replica.decay(now, &self.config);
            }
        }
    }

    /// Route a read: round-robin over replicas that are read-routable
    /// (Healthy/Lagging) *and* within the lag bound. `None` means no
    /// replica qualifies and the caller must fall back to the writer's own
    /// snapshot — degraded, never an error.
    pub fn route(&self) -> Option<(usize, CatalogSnapshot)> {
        self.tick();
        let shipped = self.shipped_generation();
        let eligible: Vec<usize> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, replica)| {
                replica.health().serves_reads()
                    && shipped.saturating_sub(replica.generation()) <= self.config.lag_bound
            })
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let k = self.cursor.fetch_add(1, Ordering::SeqCst) as usize % eligible.len();
        let i = eligible[k];
        Some((i, self.replicas[i].snapshot()))
    }

    /// Mark replica `i` Recovering while the serving layer prepares its
    /// resynced catalog.
    pub fn mark_recovering(&self, i: usize) {
        self.replicas[i].mark_recovering();
    }

    /// Install `catalog` on replica `i`, rejoining the stream at
    /// `next_seq` (normally [`current_seq`](Self::current_seq) read after
    /// the feed was flushed).
    pub fn install_resynced(&self, i: usize, catalog: Cmdl, next_seq: u64) {
        self.replicas[i].install_resynced(catalog, next_seq);
    }

    /// Status of every replica, lag measured against the last shipped
    /// generation.
    pub fn status(&self) -> Vec<ReplicaStatus> {
        let shipped = self.shipped_generation();
        self.replicas
            .iter()
            .map(|replica| replica.status(shipped))
            .collect()
    }
}

#[cfg(test)]
mod tests;
