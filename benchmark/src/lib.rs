//! # cmdl-benchmark
//!
//! The socket-to-socket benchmark of the CMDL repository: a seeded lake,
//! four workloads driven through the reactor over real sockets, end-to-end
//! metrics with regression bounds, and a per-layer stage budget timed from
//! outside the program. `benchmark/README.md` is the manual; `BENCHMARK.json`
//! at the repository root freezes the contract.

#![warn(missing_docs)]

pub mod client;
pub mod lake;
pub mod layers;
pub mod report;
pub mod rng;
pub mod run;
pub mod scrape;
pub mod setup;
pub mod smoke;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;
