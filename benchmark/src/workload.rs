//! The four traffic mixes, as lazily generated request streams.
//!
//! A stream is a pure function of `(seed, workload, lane)`: lane `c` is the
//! sequence connection `c` sends. Kinds are **stratified** — every block of
//! 100 requests holds exactly the mix's proportions, shuffled — so two seeds
//! differ in *which* tables and words they ask about, never in how many
//! expensive requests a run happens to draw. Every request carries a
//! per-index `min_score` salt far below any real score, which makes its
//! bytes unique without changing its answer: "distinct" streams can never be
//! served from the result cache by accident.

use std::sync::Arc;

use cmdl_core::{CrossModalStrategy, DiscoveryQuery, DocQuery, QueryBuilder, SearchMode};

use crate::lake::{fnv1a, SynthLake, FNV_OFFSET};
use crate::rng::{Rng, Zipf};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Keyword / cross-modal traffic; every request distinct.
    TextDiscovery,
    /// Join / union / PK-FK traffic; every request distinct.
    StructuredDiscovery,
    /// Zipf over 256 fixed requests; the working set fits the cache.
    RepeatDashboard,
    /// Reads on one connection while another ingests and removes.
    DiscoveryUnderIngest,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::TextDiscovery,
        Workload::StructuredDiscovery,
        Workload::RepeatDashboard,
        Workload::DiscoveryUnderIngest,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TextDiscovery => "text_discovery",
            Workload::StructuredDiscovery => "structured_discovery",
            Workload::RepeatDashboard => "repeat_dashboard",
            Workload::DiscoveryUnderIngest => "discovery_under_ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The frozen open-loop arrival rate of the rate phase, in requests per
    /// second over all read connections: about half of the seed commit's
    /// `sat_rps` on the 2-core reference box (see README, "Sizing").
    pub fn rate_rps(self) -> f64 {
        match self {
            Workload::TextDiscovery => 2400.0,
            Workload::StructuredDiscovery => 30.0,
            Workload::RepeatDashboard => 2000.0,
            Workload::DiscoveryUnderIngest => 400.0,
        }
    }

    /// Whether the workload mutates the lake (and so serves from a durable
    /// catalog with the WAL fsync-before-ack path live).
    pub fn writes(self) -> bool {
        self == Workload::DiscoveryUnderIngest
    }
}

/// Mutations per second on the write connection of
/// [`Workload::DiscoveryUnderIngest`].
pub const MUTATION_RATE: f64 = 1.5;

/// The query kinds the per-layer report is broken down by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `Keyword`.
    Keyword,
    /// `CrossModalText`.
    CrossModalText,
    /// `DocToTable`.
    DocToTable,
    /// `JoinableTable`.
    Joinable,
    /// `JoinableColumn`.
    JoinableColumn,
    /// `Unionable`.
    Unionable,
    /// `PkFk`.
    PkFk,
}

impl Kind {
    /// All kinds, in report order.
    pub const ALL: [Kind; 7] = [
        Kind::Keyword,
        Kind::CrossModalText,
        Kind::DocToTable,
        Kind::Joinable,
        Kind::JoinableColumn,
        Kind::Unionable,
        Kind::PkFk,
    ];

    /// The suffix of the kind's `core.query.execute_us.*` metric.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Keyword => "keyword",
            Kind::CrossModalText => "cross_modal_text",
            Kind::DocToTable => "doc_to_table",
            Kind::Joinable => "joinable",
            Kind::JoinableColumn => "joinable_column",
            Kind::Unionable => "unionable",
            Kind::PkFk => "pkfk",
        }
    }

    /// Join and union kinds: the ones whose time belongs to `core.join` /
    /// `core.union` rather than to the text and sketch kernels.
    pub fn is_structured(self) -> bool {
        matches!(
            self,
            Kind::Joinable | Kind::JoinableColumn | Kind::Unionable | Kind::PkFk
        )
    }
}

/// The text mix: 50 % keyword, 30 % cross-modal text, 20 % doc-to-table.
const TEXT_MIX: [(Kind, usize); 3] = [
    (Kind::Keyword, 50),
    (Kind::CrossModalText, 30),
    (Kind::DocToTable, 20),
];
/// The structured mix: 45 / 25 / 29 / 1.
const STRUCTURED_MIX: [(Kind, usize); 4] = [
    (Kind::Joinable, 45),
    (Kind::JoinableColumn, 25),
    (Kind::Unionable, 29),
    (Kind::PkFk, 1),
];
/// Requests per stratification block.
const BLOCK: usize = 100;
/// Fixed requests in the dashboard working set.
pub const DASHBOARD_REQUESTS: usize = 256;

/// One request as the server sees it: a route and body bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The HTTP path (`/query`, `/ingest/document`, …).
    pub path: &'static str,
    /// The JSON body.
    pub body: String,
    /// The typed query behind a `/query` body, for in-process comparison.
    pub query: Option<DiscoveryQuery>,
}

impl Request {
    fn query(query: DiscoveryQuery) -> Self {
        Self {
            path: "/query",
            body: serde_json::to_string(&query).expect("query serializes"),
            query: Some(query),
        }
    }

    /// The kind of the query behind this request, if it is one.
    pub fn kind(&self) -> Option<Kind> {
        Some(match self.query.as_ref()? {
            DiscoveryQuery::Keyword { .. } => Kind::Keyword,
            DiscoveryQuery::CrossModalText { .. } | DiscoveryQuery::CrossModalDoc { .. } => {
                Kind::CrossModalText
            }
            DiscoveryQuery::DocToTable { .. } => Kind::DocToTable,
            DiscoveryQuery::JoinableTable { .. } => Kind::Joinable,
            DiscoveryQuery::JoinableColumn { .. } => Kind::JoinableColumn,
            DiscoveryQuery::Unionable { .. } => Kind::Unionable,
            DiscoveryQuery::PkFk { .. } => Kind::PkFk,
        })
    }
}

/// Anything that yields the next request of a lane.
pub trait RequestSource: Send {
    /// The next request.
    fn next_request(&mut self) -> Request;
}

/// Generates queries of one mix against the base lake.
struct MixStream {
    lake: Arc<SynthLake>,
    rng: Rng,
    mix: &'static [(Kind, usize)],
    block: Vec<Kind>,
    /// Requests generated so far; with `lane` it forms the uniqueness salt.
    index: u64,
    lane: u64,
}

impl MixStream {
    fn new(
        lake: Arc<SynthLake>,
        seed: u64,
        label: &str,
        lane: usize,
        mix: &'static [(Kind, usize)],
    ) -> Self {
        Self {
            lake,
            rng: Rng::fork(seed, &format!("{label}-lane-{lane}")),
            mix,
            block: Vec::new(),
            index: 0,
            lane: lane as u64,
        }
    }

    fn next_kind(&mut self) -> Kind {
        if self.block.is_empty() {
            for &(kind, share) in self.mix {
                self.block.extend(std::iter::repeat_n(kind, share));
            }
            debug_assert_eq!(self.block.len(), BLOCK);
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("block was just refilled")
    }

    fn next_query(&mut self) -> DiscoveryQuery {
        let kind = self.next_kind();
        self.query_of_kind(kind)
    }

    fn query_of_kind(&mut self, kind: Kind) -> DiscoveryQuery {
        // Unique per (lane, index), and orders of magnitude below any score.
        let salt = 1e-9 * (1 + self.index * 16 + self.lane) as f64;
        self.index += 1;
        let lake = Arc::clone(&self.lake);
        let rng = &mut self.rng;
        let table = &lake.tables[rng.below(lake.tables.len())];
        let builder = match kind {
            Kind::Keyword => {
                let top_k = [5, 10, 20][rng.below(3)];
                match rng.below(5) {
                    0 | 1 => {
                        QueryBuilder::keyword(free_text(&lake, rng, 4, 9)).mode(SearchMode::All)
                    }
                    2 | 3 => {
                        QueryBuilder::keyword(free_text(&lake, rng, 4, 9)).mode(SearchMode::Text)
                    }
                    _ => QueryBuilder::keyword(entity_text(table.entities.as_slice(), rng, 2, 3))
                        .mode(SearchMode::Tables),
                }
                .top_k(top_k)
            }
            Kind::CrossModalText => {
                let text = format!(
                    "{} {}",
                    entity_text(table.entities.as_slice(), rng, 3, 5),
                    free_text(&lake, rng, 5, 11)
                );
                QueryBuilder::cross_modal_text(text).top_k(rng.between(5, 10))
            }
            Kind::DocToTable => {
                let strategy = if rng.below(2) == 0 {
                    CrossModalStrategy::SoloEmbedding
                } else {
                    CrossModalStrategy::JointEmbedding
                };
                let query = if rng.below(2) == 0 {
                    DocQuery::Document(rng.below(lake.lake.num_documents()))
                } else {
                    DocQuery::Text(format!(
                        "{} {}",
                        entity_text(table.entities.as_slice(), rng, 2, 4),
                        free_text(&lake, rng, 8, 16)
                    ))
                };
                QueryBuilder::doc_to_table(query, strategy).top_k(rng.between(5, 10))
            }
            Kind::Joinable => QueryBuilder::joinable(&table.name).top_k(rng.between(5, 24)),
            Kind::JoinableColumn => {
                let column =
                    [&table.id_column, &table.ref_column, &table.name_column][rng.below(3)];
                QueryBuilder::joinable_column(&table.name, column).top_k(rng.between(5, 24))
            }
            Kind::Unionable => QueryBuilder::unionable(&table.name).top_k(rng.between(5, 24)),
            Kind::PkFk => {
                return QueryBuilder::pkfk()
                    .top_k(rng.between(5, 24))
                    .min_score(0.5 + salt)
                    .build()
            }
        };
        builder.min_score(salt).build()
    }
}

fn free_text(lake: &SynthLake, rng: &mut Rng, lo: usize, hi: usize) -> String {
    let words = rng.between(lo, hi);
    lake.generator.query_words(rng, words).join(" ")
}

fn entity_text(entities: &[String], rng: &mut Rng, lo: usize, hi: usize) -> String {
    let count = rng.between(lo, hi).min(entities.len());
    rng.distinct(entities.len(), count)
        .into_iter()
        .map(|i| entities[i].as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

impl RequestSource for MixStream {
    fn next_request(&mut self) -> Request {
        Request::query(self.next_query())
    }
}

/// Zipf(1.0) draws over a fixed request set.
struct DashboardStream {
    requests: Arc<Vec<Request>>,
    zipf: Zipf,
    rng: Rng,
}

impl RequestSource for DashboardStream {
    fn next_request(&mut self) -> Request {
        self.requests[self.zipf.sample(&mut self.rng)].clone()
    }
}

/// The dashboard's fixed working set: half from each mix, interleaved so the
/// Zipf head holds both cheap and expensive requests.
pub fn dashboard_requests(lake: &Arc<SynthLake>, seed: u64) -> Vec<Request> {
    let mut text = MixStream::new(Arc::clone(lake), seed, "dashboard-text", 0, &TEXT_MIX);
    let mut structured = MixStream::new(
        Arc::clone(lake),
        seed,
        "dashboard-structured",
        0,
        &STRUCTURED_MIX,
    );
    (0..DASHBOARD_REQUESTS)
        .map(|i| {
            if i % 2 == 0 {
                text.next_request()
            } else {
                structured.next_request()
            }
        })
        .collect()
}

/// The write connection of `discovery_under_ingest`: per ten mutations,
/// seven document ingests, two table ingests and one removal of the oldest
/// table this stream ingested — always new names, never a base table, so
/// the read stream's targets stay valid.
pub struct MutationStream {
    lake: Arc<SynthLake>,
    index: usize,
    next_document: usize,
    next_table: usize,
    ingested: std::collections::VecDeque<String>,
}

impl MutationStream {
    /// The mutation stream for `lake`.
    pub fn new(lake: Arc<SynthLake>) -> Self {
        let sizes = lake.generator.sizes();
        Self {
            next_document: sizes.documents,
            next_table: 0,
            lake,
            index: 0,
            ingested: std::collections::VecDeque::new(),
        }
    }

    fn ingest_document(&mut self) -> Request {
        let (document, _, _) = self
            .lake
            .generator
            .document(self.next_document, &self.lake.tables);
        self.next_document += 1;
        Request {
            path: "/ingest/document",
            body: serde_json::to_string(&document).expect("document serializes"),
            query: None,
        }
    }

    fn ingest_table(&mut self) -> Request {
        let sizes = self.lake.generator.sizes();
        let family = self.next_table % sizes.families;
        let member = sizes.members + self.next_table / sizes.families;
        self.next_table += 1;
        let (table, info) = self.lake.generator.table(family, member);
        self.ingested.push_back(info.name);
        Request {
            path: "/ingest/table",
            body: serde_json::to_string(&table).expect("table serializes"),
            query: None,
        }
    }
}

impl RequestSource for MutationStream {
    fn next_request(&mut self) -> Request {
        const PATTERN: [u8; 10] = *b"DTDDDTDDRD";
        let step = PATTERN[self.index % PATTERN.len()];
        self.index += 1;
        match step {
            b'T' => self.ingest_table(),
            b'R' => match self.ingested.pop_front() {
                Some(name) => Request {
                    path: "/remove/table",
                    body: format!("{{\"name\":\"{name}\"}}"),
                    query: None,
                },
                None => self.ingest_document(),
            },
            _ => self.ingest_document(),
        }
    }
}

/// The read stream of `workload` for connection `lane`.
pub fn read_stream(
    workload: Workload,
    lake: &Arc<SynthLake>,
    seed: u64,
    lane: usize,
) -> Box<dyn RequestSource> {
    let mix = |label: &str, mix| MixStream::new(Arc::clone(lake), seed, label, lane, mix);
    match workload {
        Workload::TextDiscovery => Box::new(mix("text", &TEXT_MIX)),
        Workload::StructuredDiscovery => Box::new(mix("structured", &STRUCTURED_MIX)),
        Workload::RepeatDashboard => Box::new(DashboardStream {
            requests: Arc::new(dashboard_requests(lake, seed)),
            zipf: Zipf::new(DASHBOARD_REQUESTS, 1.0),
            rng: Rng::fork(seed, &format!("dashboard-lane-{lane}")),
        }),
        // The text mix alone. Any structured share dominates this lane's
        // time (one union costs four hundred keyword searches) and, queued
        // in order on the single read connection, decides both its
        // saturation throughput and its median — the workload would measure
        // `structured_discovery` again, not reads under ingest.
        Workload::DiscoveryUnderIngest => Box::new(mix("ingest-text", &TEXT_MIX)),
    }
}

/// A fixed sample of every kind, drawn the way the two base mixes draw
/// them, for the per-kind direct-execute probes: `per_kind(kind)` queries of
/// each kind.
pub fn kind_samples(
    lake: &Arc<SynthLake>,
    seed: u64,
    per_kind: impl Fn(Kind) -> usize,
) -> Vec<(Kind, DiscoveryQuery)> {
    let mut stream = MixStream::new(Arc::clone(lake), seed, "probe", 0, &TEXT_MIX);
    let mut out = Vec::new();
    for kind in Kind::ALL {
        out.extend((0..per_kind(kind)).map(|_| (kind, stream.query_of_kind(kind))));
    }
    out
}

/// A digest of the first `count` requests of a lane (route and body bytes).
pub fn stream_digest(source: &mut dyn RequestSource, count: usize) -> u64 {
    (0..count).fold(FNV_OFFSET, |hash, _| {
        let request = source.next_request();
        fnv1a(
            fnv1a(hash, request.path.as_bytes()),
            request.body.as_bytes(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lake::{generate, LakeSizes};

    const TINY: LakeSizes = LakeSizes {
        families: 4,
        members: 3,
        rows: 30,
        documents: 60,
        vocabulary: 300,
        doc_words: 40,
    };

    fn digest(workload: Workload, seed: u64, lane: usize) -> u64 {
        let lake = Arc::new(generate(seed, TINY));
        stream_digest(read_stream(workload, &lake, seed, lane).as_mut(), 10_000)
    }

    #[test]
    fn same_seed_same_first_ten_thousand_requests_per_workload() {
        for workload in Workload::ALL {
            assert_eq!(
                digest(workload, 11, 0),
                digest(workload, 11, 0),
                "{}",
                workload.name()
            );
            assert_ne!(
                digest(workload, 11, 0),
                digest(workload, 12, 0),
                "{}",
                workload.name()
            );
            assert_ne!(
                digest(workload, 11, 0),
                digest(workload, 11, 1),
                "{}",
                workload.name()
            );
        }
        let lake = Arc::new(generate(11, TINY));
        let mutations = |lake: &Arc<SynthLake>| {
            stream_digest(&mut MutationStream::new(Arc::clone(lake)), 10_000)
        };
        assert_eq!(mutations(&lake), mutations(&lake));
        assert_ne!(mutations(&lake), mutations(&Arc::new(generate(12, TINY))));
    }

    #[test]
    fn mixes_are_exact_per_block() {
        let lake = Arc::new(generate(2, TINY));
        let mut stream = read_stream(Workload::StructuredDiscovery, &lake, 2, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..300 {
            *counts
                .entry(stream.next_request().kind().unwrap())
                .or_insert(0) += 1;
        }
        assert_eq!(counts[&Kind::Joinable], 135);
        assert_eq!(counts[&Kind::JoinableColumn], 75);
        assert_eq!(counts[&Kind::Unionable], 87);
        assert_eq!(counts[&Kind::PkFk], 3);
    }

    #[test]
    fn distinct_streams_never_repeat_and_dashboard_repeats() {
        let lake = Arc::new(generate(4, TINY));
        for workload in [
            Workload::TextDiscovery,
            Workload::StructuredDiscovery,
            Workload::DiscoveryUnderIngest,
        ] {
            let mut seen = std::collections::HashSet::new();
            for lane in 0..2 {
                let mut stream = read_stream(workload, &lake, 4, lane);
                for _ in 0..2_000 {
                    assert!(
                        seen.insert(stream.next_request().body),
                        "{}",
                        workload.name()
                    );
                }
            }
        }
        let mut stream = read_stream(Workload::RepeatDashboard, &lake, 4, 0);
        let bodies: std::collections::HashSet<String> =
            (0..5_000).map(|_| stream.next_request().body).collect();
        assert!(bodies.len() <= DASHBOARD_REQUESTS);
        assert!(bodies.len() > DASHBOARD_REQUESTS / 2);
    }

    #[test]
    fn mutations_follow_the_pattern_and_remove_only_what_they_ingested() {
        let lake = Arc::new(generate(6, TINY));
        let mut stream = MutationStream::new(Arc::clone(&lake));
        let mut live = std::collections::HashSet::new();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..200 {
            let request = stream.next_request();
            *counts.entry(request.path).or_insert(0usize) += 1;
            match request.path {
                "/ingest/table" => {
                    let table: cmdl_datalake::Table = serde_json::from_str(&request.body).unwrap();
                    assert!(lake.lake.table(&table.name).is_none());
                    assert!(live.insert(table.name));
                }
                "/remove/table" => {
                    let name = request.body.split('"').nth(3).unwrap().to_string();
                    assert!(live.remove(&name), "removed {name} before ingesting it");
                }
                _ => {}
            }
        }
        assert_eq!(counts["/ingest/document"], 140);
        assert_eq!(counts["/ingest/table"], 40);
        assert_eq!(counts["/remove/table"], 20);
    }
}
