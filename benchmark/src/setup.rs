//! Set-up: generate the lake, build and train CMDL, serve it through the
//! reactor on a loopback port — the configuration an operator gets.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmdl_core::{Cmdl, CmdlConfig};
use cmdl_server::{serve_reactor, CmdlService, ReactorConfig, ReactorHandle};

use crate::lake::{generate, LakeSizes, SynthLake};

/// Everything that scales with "full run" versus "smoke".
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Lake sizes.
    pub sizes: LakeSizes,
    /// How many times an untraced run sets up (the median is reported).
    pub setups: usize,
    /// Unmeasured closed-loop time before the saturation window.
    pub warmup: Duration,
    /// Unmeasured open-loop time before the rate window.
    pub ramp: Duration,
    /// Most requests the traced replay covers (fewer when time runs out).
    pub trace_prefix: usize,
    /// Documents the mutation probe ingests into a private catalog.
    pub probe_ingests: usize,
}

impl Scale {
    /// The frozen full-size benchmark: 150 tables (30 families × 5, 8
    /// columns, 50 rows) and 20 000 documents. See README, "Sizing".
    pub const FULL: Scale = Scale {
        sizes: LakeSizes {
            families: 30,
            members: 5,
            rows: 50,
            documents: 20_000,
            vocabulary: 5_000,
            doc_words: 60,
        },
        setups: 2,
        warmup: Duration::from_millis(1000),
        ramp: Duration::from_millis(300),
        trace_prefix: 2000,
        probe_ingests: 1000,
    };

    /// A lake small enough that all four workloads run in seconds.
    pub const SMOKE: Scale = Scale {
        sizes: LakeSizes {
            families: 6,
            members: 5,
            rows: 40,
            documents: 500,
            vocabulary: 1_000,
            doc_words: 40,
        },
        setups: 1,
        warmup: Duration::from_millis(300),
        ramp: Duration::from_millis(200),
        trace_prefix: 200,
        probe_ingests: 50,
    };
}

/// The bench-scale catalog configuration: 64 MinHash permutations, 48-d
/// solo and 32-d joint embeddings, 8 ANN trees. Joint training samples 5 %
/// of the elements and runs a fixed 12 epochs (no early stop), so set-up
/// does the same amount of work for every seed.
pub fn bench_config() -> CmdlConfig {
    CmdlConfig {
        minhash_hashes: 64,
        embedding_dim: 48,
        joint_dim: 32,
        ann_trees: 8,
        sample_ratio: 0.05,
        max_epochs: 12,
        convergence_delta: 0.0,
        ..CmdlConfig::fast()
    }
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    /// Lake generation.
    pub generate_s: f64,
    /// `Cmdl::build` (or `Cmdl::open` on a fresh directory, which builds
    /// and writes the first checkpoint).
    pub build_s: f64,
    /// `train_joint` (on a durable catalog this includes its checkpoint).
    pub train_s: f64,
    /// `CmdlService::open` from the checkpoint; 0 for in-memory serving.
    pub open_s: f64,
    /// Binding the reactor.
    pub bind_s: f64,
}

impl SetupTimings {
    /// The `setup_s` metric.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.train_s + self.open_s + self.bind_s
    }
}

/// A served lake.
pub struct Served {
    /// The generated lake and its planted truth.
    pub lake: Arc<SynthLake>,
    /// The service behind the reactor.
    pub service: Arc<CmdlService>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// How long each set-up step took.
    pub timings: SetupTimings,
    handle: ReactorHandle,
    catalog_dir: Option<PathBuf>,
}

fn timed<T>(slot: &mut f64, step: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = step();
    *slot = started.elapsed().as_secs_f64();
    value
}

/// Generate, build, train and serve. With `catalog_dir` the catalog is
/// durable: built and trained under `Cmdl::open` (WAL and checkpoints
/// live), then dropped and served by `CmdlService::open` from what reached
/// the disk — the path a restarted server takes.
pub fn set_up(seed: u64, sizes: LakeSizes, catalog_dir: Option<&Path>) -> Result<Served, String> {
    let mut timings = SetupTimings::default();
    let lake = timed(&mut timings.generate_s, || generate(seed, sizes));
    let config = bench_config();
    let service = match catalog_dir {
        None => {
            let mut cmdl = timed(&mut timings.build_s, || {
                Cmdl::build(lake.lake.clone(), config)
            });
            timed(&mut timings.train_s, || cmdl.train_joint(None));
            CmdlService::new(cmdl)
        }
        Some(dir) => {
            let mut cmdl = timed(&mut timings.build_s, || {
                Cmdl::open(dir, config.clone(), || lake.lake.clone())
            })
            .map_err(|e| format!("opening a fresh catalog at {}: {e}", dir.display()))?;
            timed(&mut timings.train_s, || cmdl.train_joint(None));
            drop(cmdl);
            timed(&mut timings.open_s, || {
                CmdlService::open(dir, config, || {
                    unreachable!("the checkpoint was just written")
                })
            })
            .map_err(|e| format!("reopening the catalog at {}: {e}", dir.display()))?
        }
    };
    let service = Arc::new(service);
    let handle = timed(&mut timings.bind_s, || {
        serve_reactor(Arc::clone(&service), ReactorConfig::default())
    })
    .map_err(|e| format!("binding the reactor: {e}"))?;
    Ok(Served {
        lake: Arc::new(lake),
        service,
        addr: handle.addr(),
        timings,
        handle,
        catalog_dir: catalog_dir.map(Path::to_path_buf),
    })
}

impl Served {
    /// The reactor handle (for its cache partition).
    pub fn handle(&self) -> &ReactorHandle {
        &self.handle
    }

    /// Stop the reactor, wait for its threads, and delete the catalog
    /// directory. Returns whether every server thread ended.
    pub fn tear_down(self) -> bool {
        let joined = self.handle.shutdown();
        drop(self.service);
        if let Some(dir) = &self.catalog_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        joined
    }
}
