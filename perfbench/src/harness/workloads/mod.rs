//! The four workloads. Each owns its system under test and is dropped
//! (server stopped, directories removed) before the next one is built.

mod approx_churn;
mod durable_write;
mod exact_scan;
mod wire_read;

pub use approx_churn::ApproxChurn;
pub use durable_write::DurableWrite;
pub use exact_scan::ExactScan;
pub use wire_read::WireRead;

use super::{RunConfig, RunReport, Workload};
use qld_core::CwDatabase;
use qld_engine::Engine;
use std::path::Path;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    ExactScan::NAME,
    ApproxChurn::NAME,
    WireRead::NAME,
    DurableWrite::NAME,
];

/// The mapping budget of the serving configuration: over it, `Auto`
/// answers a query no completeness theorem covers with certified bounds
/// instead of a Theorem 1 enumeration, which keeps every read polynomial.
pub const SERVING_MAPPING_BUDGET: u64 = 10_000;

/// The engine the three serving workloads run: default `Auto` semantics,
/// the mapping budget, one enumeration thread (the client is the only
/// other thread on a two-core host).
pub fn serving_engine(db: CwDatabase) -> Engine {
    Engine::builder(db)
        .mapping_budget(SERVING_MAPPING_BUDGET)
        .parallelism(1)
        .build()
}

/// Constants of the high-null databases Theorem 1 runs on: Bell(6) = 203
/// kernels per walk.
pub const EXACT_CONSTANTS: usize = 6;

/// The database the Theorem 1 probes of a serving workload run on (an
/// enumeration over a serving-sized database does not finish).
pub fn exact_probe_db(seed: u64) -> CwDatabase {
    super::inputs::high_null_db(EXACT_CONSTANTS, seed)
}

/// The `k`-th sub-seed of `seed` (splitmix64), for workloads that draw
/// several databases per run.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What to do with a workload.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// The untraced run: end-to-end metrics over `seconds` of passes.
    Run {
        /// Measuring time.
        seconds: u64,
    },
    /// The traced run: per-layer metrics, span file into `out_dir`.
    Trace {
        /// Where `trace-<workload>.json` goes.
        out_dir: &'a Path,
    },
}

fn run_as<W: Workload>(config: &RunConfig, mode: Mode<'_>) -> RunReport {
    match mode {
        Mode::Run { seconds } => super::run::<W>(config, seconds),
        Mode::Trace { out_dir } => super::trace::<W>(config, out_dir),
    }
}

/// Runs the named workload (`None` for an unknown name).
pub fn run_named(name: &str, config: &RunConfig, mode: Mode<'_>) -> Option<RunReport> {
    Some(match name {
        ExactScan::NAME => run_as::<ExactScan>(config, mode),
        ApproxChurn::NAME => run_as::<ApproxChurn>(config, mode),
        WireRead::NAME => run_as::<WireRead>(config, mode),
        DurableWrite::NAME => run_as::<DurableWrite>(config, mode),
        _ => return None,
    })
}
