//! `durable_write` — the write path with the log.
//!
//! Per pass a fresh directory and a fresh `SharedEngine::durable` over
//! the same 160-constant database, then 1,279 `apply` calls of fresh
//! `P0` pairs (= 4·256 + 255, so recovery replays a checkpoint plus 255
//! records) and no reads; then drop and recover three times. Each write
//! is validate → `Ph₁`/database maintenance → WAL encode + append →
//! `Engine::clone` publish, with a checkpoint every 256 writes. It is the
//! writes-only use of the snapshot machinery, beside `approx_churn`'s
//! reads-after-writes and `wire_read`'s reads-only. Passes restart from
//! the same small state instead of letting the database grow, and they
//! are short: a write is mostly copying, which a busy host slows by half
//! as often as not, and the per-op floor needs some 80 repeats of an op
//! to settle. At 3,839 writes a pass (35–42 passes a run) it was still
//! falling when the run ended and runs of the same seed differed by
//! 10 %; at 1,279 (150–180 passes) they differ by 3 %.
//!
//! **Flush policy.** The log runs with `FsyncPolicy::Never` and a
//! checkpoint every 256 changing deltas: records are appended with real
//! file system calls but only checkpoints are flushed (their file and
//! the directory). With the default `Always` policy
//! a write on the builder's host is 80 % `fsync`, and that `fsync`
//! wanders by ±30 % over tens of seconds on the virtual disk — no bound
//! the contract allows would hold, and a publish or encode change would
//! drown in it. The `Always` path is still measured, ungated, by the
//! per-layer probes `durable.apply_us` and `wal.append_disk_us`.

use crate::harness::inputs::{self, fresh_facts, standard_db};
use crate::harness::layers::ProbeInputs;
use crate::harness::stats::{median, Sample};
use crate::harness::trace::Tracer;
use crate::harness::{Class, PassLog, RunConfig, Workload};
use qld_core::textio::to_text;
use qld_core::CwDatabase;
use qld_engine::{Delta, DiskStorage, DurabilityConfig, FsyncPolicy, SharedEngine, WalConfig};
use qld_logic::{ConstId, PredId};
use std::path::PathBuf;
use std::time::Instant;

use super::{exact_probe_db, serving_engine};

/// The flush policy of the timed passes (see the module docs).
const DURABLE_FSYNC: FsyncPolicy = FsyncPolicy::Never;
/// Changing deltas between automatic checkpoints.
const DURABLE_CHECKPOINT_EVERY: u64 = 256;

const WRITE: u8 = 0;
const WRITE_CHECKPOINT: u8 = 1;
const RECOVERIES: usize = 3;

/// See the module docs.
pub struct DurableWrite {
    db: CwDatabase,
    facts: Vec<(PredId, [ConstId; 2])>,
    config: DurabilityConfig,
    dir: PathBuf,
    writes: usize,
    warm_up_writes: usize,
    seed: u64,
}

impl DurableWrite {
    fn storage(&self) -> Box<DiskStorage> {
        Box::new(DiskStorage::open(&self.dir).expect("scratch directory opens"))
    }

    /// `writes` applies into a fresh log, then the recoveries and the
    /// output checks.
    fn write_and_recover(&self, writes: usize, tracer: &mut Tracer, log: &mut PassLog) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let shared =
            SharedEngine::durable(serving_engine(self.db.clone()), self.storage(), self.config)
                .expect("fresh log directory seeds");
        let every = self.config.checkpoint_every;

        let start = Instant::now();
        for (i, (p, args)) in self.facts[..writes].iter().enumerate() {
            tracer.next_op();
            let delta = Delta::new().insert_fact(*p, args);
            let open = tracer.begin("durable.apply");
            let timer = Instant::now();
            let report = shared.apply(&delta);
            let ns = timer.elapsed().as_nanos() as u64;
            tracer.end(open);
            let class = if (i as u64 + 1).is_multiple_of(every) {
                WRITE_CHECKPOINT
            } else {
                WRITE
            };
            log.samples.push(Sample { class, ns });
            if !report.is_ok_and(|r| r.changed()) {
                log.failed_ops += 1;
            }
        }
        log.wall = start.elapsed();

        let wal = shared.wal_stats().expect("durable engine has a log");
        let live = to_text(shared.snapshot().engine().db());
        drop(shared);
        log.counters = vec![
            ("wal_records_appended", wal.records_appended),
            ("wal_bytes_appended", wal.bytes_appended),
            ("wal_fsyncs", wal.fsyncs),
            ("wal_checkpoints", wal.checkpoints),
            ("reads", 0),
            ("cache_hits", 0),
        ];
        log.check(wal.records_appended == writes as u64, || {
            format!(
                "{} records appended for {writes} writes",
                wal.records_appended
            )
        });

        let mut recover_ms = Vec::with_capacity(RECOVERIES);
        for _ in 0..RECOVERIES {
            let open = tracer.begin("durable.recover_with");
            let timer = Instant::now();
            let recovered = SharedEngine::recover_with(self.storage(), self.config, serving_engine);
            recover_ms.push(timer.elapsed().as_secs_f64() * 1e3);
            tracer.end(open);
            match recovered {
                Ok((engine, report)) => {
                    log.check(report.epoch == writes as u64, || {
                        format!("recovered epoch {} after {writes} writes", report.epoch)
                    });
                    log.check(report.records_replayed == writes as u64 % every, || {
                        format!("{} records replayed", report.records_replayed)
                    });
                    log.check(to_text(engine.snapshot().engine().db()) == live, || {
                        "recovered database text ≠ live database text".to_string()
                    });
                }
                Err(e) => log.check(false, || format!("recovery failed: {e}")),
            }
        }
        log.extras = vec![("recover_ms", median(&recover_ms))];
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for DurableWrite {
    const NAME: &'static str = "durable_write";
    const CLASSES: &'static [Class] = &[
        Class {
            name: "write",
            gated: true,
        },
        Class {
            name: "write_checkpoint",
            gated: true,
        },
    ];

    fn setup(config: &RunConfig) -> DurableWrite {
        let (constants, writes, warm_up_writes, every) = if config.smoke {
            (24, 127, 40, 32)
        } else {
            (160, 1_279, 3_327, DURABLE_CHECKPOINT_EVERY)
        };
        let db = standard_db(constants, config.seed);
        DurableWrite {
            facts: fresh_facts(&db, writes.max(warm_up_writes), config.seed),
            db,
            config: DurabilityConfig {
                wal: WalConfig {
                    fsync: DURABLE_FSYNC,
                    ..WalConfig::default()
                },
                checkpoint_every: every,
            },
            dir: config.scratch.join("durable_write"),
            writes,
            warm_up_writes,
            seed: config.seed,
        }
    }

    fn warm_up(&mut self) -> Vec<Sample> {
        let mut log = PassLog::default();
        self.write_and_recover(self.warm_up_writes, &mut Tracer::off(), &mut log);
        log.samples
    }

    fn pass(&mut self, tracer: &mut Tracer) -> PassLog {
        let mut log = PassLog::default();
        self.write_and_recover(self.writes, tracer, &mut log);
        log
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            db: self.db.clone(),
            exact_db: exact_probe_db(self.seed),
            // No reads of its own: the probes read what `approx_churn`
            // reads.
            texts: [
                inputs::SEMI_JOIN,
                inputs::UNIVERSAL,
                inputs::NEGATED_SELECTION,
            ]
            .map(String::from)
            .to_vec(),
        }
    }
}
