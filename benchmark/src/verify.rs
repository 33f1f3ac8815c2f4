//! The untimed verification pass: answers over the socket must equal the
//! in-process answer for the same query, and the planted relations must be
//! in the top-k.

use std::time::{Duration, Instant};

use cmdl_core::{
    CatalogSnapshot, CrossModalStrategy, DiscoveryQuery, DocQuery, QueryBuilder, QueryResponse,
    SearchMode,
};
use cmdl_server::{ResponsePayload, ServiceResponse};

use crate::client::Connection;
use crate::lake::SynthLake;
use crate::rng::Rng;
use crate::setup::Served;
use crate::workload::{read_stream, Workload};

/// Top-k of the join, union and keyword truth checks.
const TRUTH_TOP_K: usize = 10;
/// Top-k of the document-to-table check: a document links up to three
/// tables, each with four siblings that quote-match almost as well, so the
/// page must hold three families.
const LINKED_TABLES_TOP_K: usize = 15;

/// What the verification pass found.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Verified {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, or whose answer differed from the in-process
    /// answer.
    pub failed: u64,
    /// Planted relations checked.
    pub planted: u64,
    /// Planted relations found in the top-k.
    pub found: u64,
}

impl Verified {
    /// The `truth_recall` metric.
    pub fn recall(&self) -> f64 {
        self.found as f64 / self.planted.max(1) as f64
    }
}

/// How many planted relations of each kind the pass samples.
#[derive(Debug, Clone, Copy)]
pub struct TruthSample {
    /// Tables whose join partner is looked up.
    pub joins: usize,
    /// Tables whose union family is looked up.
    pub unions: usize,
    /// Documents whose linked tables are looked up (and which are
    /// themselves looked up by the names they quote).
    pub documents: usize,
}

impl TruthSample {
    /// The full-size sample: about 2500 planted relations.
    pub const FULL: TruthSample = TruthSample {
        joins: 24,
        unions: 12,
        documents: 800,
    };
    /// The smoke-size sample.
    pub const SMOKE: TruthSample = TruthSample {
        joins: 6,
        unions: 4,
        documents: 20,
    };

    /// A tenth of this sample: the traced run spends its time on the layers,
    /// and checks only that answers are still right.
    pub fn traced(self) -> Self {
        Self {
            joins: self.joins.div_ceil(10),
            unions: self.unions.div_ceil(10),
            documents: self.documents.div_ceil(10),
        }
    }
}

/// Send `query` over the socket and return the parsed answer.
fn ask(connection: &mut Connection, query: &DiscoveryQuery) -> Option<QueryResponse> {
    let body = serde_json::to_string(query).expect("query serializes");
    let response = connection.round_trip("/query", body.as_bytes()).ok()?;
    if !response.is_ok() {
        return None;
    }
    let envelope: ServiceResponse =
        serde_json::from_str(std::str::from_utf8(&response.body).ok()?).ok()?;
    match envelope.payload? {
        ResponsePayload::Query(answer) => Some(answer),
        _ => None,
    }
}

/// Does the socket answer equal the in-process one? Everything but the
/// execution time must match.
fn same_answer(remote: &QueryResponse, local: &QueryResponse) -> bool {
    remote.generation == local.generation
        && remote.total_candidates == local.total_candidates
        && remote.hits == local.hits
        && remote.query == local.query
}

/// Replay the head of the workload's lane-0 stream over the socket and
/// in-process, for at most `budget` or `limit` requests.
fn check_equality(
    served: &Served,
    snapshot: &CatalogSnapshot,
    workload: Workload,
    seed: u64,
    limit: usize,
    budget: Duration,
    out: &mut Verified,
) {
    let Ok(mut connection) = Connection::open(served.addr) else {
        out.attempted += 1;
        out.failed += 1;
        return;
    };
    let mut stream = read_stream(workload, &served.lake, seed, 0);
    let started = Instant::now();
    for _ in 0..limit {
        if started.elapsed() > budget {
            break;
        }
        let request = stream.next_request();
        let query = request.query.expect("read streams hold queries");
        out.attempted += 1;
        let matches = match (ask(&mut connection, &query), snapshot.execute(&query)) {
            (Some(remote), Ok(local)) => same_answer(&remote, &local),
            _ => false,
        };
        out.failed += u64::from(!matches);
    }
}

/// The planted relations to look up: `(query, names expected among the
/// hits)`. A hit matches a name by its table or, for documents, its label.
pub fn truth_checks(
    lake: &SynthLake,
    seed: u64,
    sample: TruthSample,
) -> Vec<(DiscoveryQuery, Vec<String>)> {
    let mut rng = Rng::fork(seed, "truth");
    let mut checks = Vec::new();
    for t in rng.distinct(lake.tables.len(), sample.joins.min(lake.tables.len())) {
        let (table, partner) = &lake.truth.join[t];
        checks.push((
            QueryBuilder::joinable(table).top_k(TRUTH_TOP_K).build(),
            vec![partner.clone()],
        ));
    }
    for t in rng.distinct(lake.tables.len(), sample.unions.min(lake.tables.len())) {
        let (table, siblings) = &lake.truth.union[t];
        checks.push((
            QueryBuilder::unionable(table).top_k(TRUTH_TOP_K).build(),
            siblings.clone(),
        ));
    }
    let documents = lake.truth.doc_tables.len();
    for d in rng.distinct(documents, sample.documents.min(documents)) {
        // Linked tables, from the document itself. In the solo space, and
        // with the blend leaning on containment: on this lake of
        // pseudo-words the weakly supervised joint space ranks planted links
        // near chance and the default blend finds three in four, either of
        // which would make the check a coin toss rather than a guard.
        checks.push((
            QueryBuilder::doc_to_table(DocQuery::Document(d), CrossModalStrategy::SoloEmbedding)
                .top_k(LINKED_TABLES_TOP_K)
                .weight_embedding(0.3)
                .weight_containment(0.7)
                .build(),
            lake.truth.doc_tables[d].clone(),
        ));
        // ...and the document, from three of the names it quotes.
        let quoted = lake.doc_mentions[d][..3].join(" ");
        checks.push((
            QueryBuilder::keyword(quoted)
                .mode(SearchMode::Text)
                .top_k(TRUTH_TOP_K)
                .build(),
            vec![lake.lake.documents()[d].title.clone()],
        ));
    }
    checks
}

/// Run the whole pass. The lake must be quiescent (no mutation in flight).
pub fn verify(
    served: &Served,
    workload: Workload,
    seed: u64,
    sample: TruthSample,
    limit: usize,
    budget: Duration,
) -> Verified {
    let mut out = Verified::default();
    let snapshot = served.service.snapshot();
    check_equality(served, &snapshot, workload, seed, limit, budget, &mut out);
    let Ok(mut connection) = Connection::open(served.addr) else {
        out.attempted += 1;
        out.failed += 1;
        return out;
    };
    for (query, expected) in truth_checks(&served.lake, seed, sample) {
        out.attempted += 1;
        out.planted += expected.len() as u64;
        let Some(answer) = ask(&mut connection, &query) else {
            out.failed += 1;
            continue;
        };
        out.found += expected
            .iter()
            .filter(|name| {
                answer
                    .hits
                    .iter()
                    .any(|hit| hit.table.as_ref() == Some(*name) || &hit.label == *name)
            })
            .count() as u64;
    }
    out
}
