//! `approx_churn` — the §5 approximation plus snapshot publish, on the
//! cache-miss side.
//!
//! Every cycle publishes one fresh `P0` fact and then reads eight times
//! round-robin over six prepared queries, so each cycle has one first
//! read after a publish (the snapshot rebuilds its whole `ApproxEngine`),
//! five plain misses and two hits. The approximation's build and
//! evaluation, `SharedEngine::apply`'s publish and the epoch-keyed
//! cache's miss path do the work; Theorem 1, the wire and the WAL do
//! none.
//!
//! The six queries are chosen so that each read percentile lies inside
//! one latency class: four are the same semi-join (as is, and conjoined
//! with `c = c` — distinct cache keys, equal cost), so reads sort as
//! 2 hits (ranks 0–25 %) < 3 semi-join misses (25–62.5 %, holding p50)
//! < universal < negated selection < first read (87.5–100 %, holding
//! p95). A round-robin over six shapes of six different costs would put
//! the median on the boundary between two of them.

use crate::harness::inputs::{self, fresh_facts, standard_db};
use crate::harness::layers::ProbeInputs;
use crate::harness::stats::Sample;
use crate::harness::trace::Tracer;
use crate::harness::{Class, PassLog, RunConfig, Workload};
use qld_core::CwDatabase;
use qld_engine::{Answers, Delta, SharedEngine};
use qld_logic::{ConstId, PredId};
use std::time::{Duration, Instant};

use super::{exact_probe_db, serving_engine, sub_seed};

/// Databases drawn per run; each gets its cycles of a pass on a fresh
/// `SharedEngine`. One database alone moves the approximation's build
/// time by ±8 %.
const DATABASES: usize = 16;
/// Constants per database. The first read after a publish rebuilds the
/// whole approximation — 1.8 ms at 32 constants, 4 ms at 40, 17 ms at
/// 64 — and the longer an op, the less often a busy host leaves one
/// repeat of it alone, so the more its floor over passes follows the
/// host: with a competing process taking two fifths of the CPU in 4 ms
/// bursts, `ops_per_s` read −14 % at 64 constants, −7 % at 40 and −3 %
/// at 32. At 32 the build is still 79 % of a cycle.
const CONSTANTS: usize = 32;
const READS_PER_CYCLE: usize = 8;

const WRITE: u8 = 0;
const HIT: u8 = 1;
const MISS: u8 = 2;
const MISS_UNIVERSAL: u8 = 3;
const MISS_NEGATED: u8 = 4;
const FIRST_READ: u8 = 5;

/// The class of the `r`-th read of a cycle (query `r % 6`).
const READ_CLASS: [u8; READS_PER_CYCLE] = [
    FIRST_READ,
    MISS,
    MISS,
    MISS,
    MISS_UNIVERSAL,
    MISS_NEGATED,
    HIT,
    HIT,
];

fn span_of(class: u8) -> &'static str {
    match class {
        WRITE => "concurrent.apply",
        HIT => "concurrent.execute.hit",
        FIRST_READ => "concurrent.execute.first_read",
        _ => "concurrent.execute.miss",
    }
}

struct Target {
    db: CwDatabase,
    texts: Vec<String>,
    facts: Vec<(PredId, [ConstId; 2])>,
}

/// See the module docs.
pub struct ApproxChurn {
    targets: Vec<Target>,
    cycles: usize,
    warm_up_cycles: usize,
    seed: u64,
}

impl Target {
    /// The first `cycles` cycles on one database, from a fresh engine;
    /// then the output check against a solo engine at the final epoch.
    /// Returns the timed wall and the cache hits.
    fn segment(&self, cycles: usize, tracer: &mut Tracer, log: &mut PassLog) -> (Duration, u64) {
        let shared = SharedEngine::new(serving_engine(self.db.clone()));
        let mut session = shared.session();
        let prepared: Vec<_> = self
            .texts
            .iter()
            .map(|text| {
                session
                    .prepare_text(text)
                    .expect("benchmark query prepares")
            })
            .collect();
        let mut last: Vec<Option<Answers>> = vec![None; prepared.len()];
        let mut hits = 0;

        let start = Instant::now();
        for (p, args) in &self.facts[..cycles] {
            tracer.next_op();
            let delta = Delta::new().insert_fact(*p, args);
            let open = tracer.begin(span_of(WRITE));
            let timer = Instant::now();
            let report = shared.apply(&delta);
            let ns = timer.elapsed().as_nanos() as u64;
            tracer.end(open);
            log.samples.push(Sample { class: WRITE, ns });
            if !report.is_ok_and(|r| r.changed()) {
                log.failed_ops += 1;
            }
            for (r, class) in READ_CLASS.into_iter().enumerate() {
                let q = r % prepared.len();
                tracer.next_op();
                let open = tracer.begin(span_of(class));
                let timer = Instant::now();
                let answers = session.execute(&prepared[q]);
                let ns = timer.elapsed().as_nanos() as u64;
                tracer.end(open);
                log.samples.push(Sample { class, ns });
                match answers {
                    // The predicted 2 hits / 6 misses per cycle.
                    Ok(a) if a.evidence().cache_hit == (class == HIT) => {
                        hits += u64::from(class == HIT);
                        last[q] = Some(a);
                    }
                    _ => log.failed_ops += 1,
                }
            }
        }
        let wall = start.elapsed();

        let snapshot = shared.snapshot();
        let solo = serving_engine(snapshot.engine().db().clone());
        for (text, got) in self.texts.iter().zip(&last) {
            let want = solo.query(text);
            let ok = match (got, &want) {
                (Some(got), Ok(want)) => {
                    got.tuples() == want.tuples()
                        && got.upper_bound() == want.upper_bound()
                        && got.evidence().certificate == want.evidence().certificate
                        && got.evidence().epoch == snapshot.epoch()
                }
                _ => false,
            };
            log.check(ok, || {
                format!(
                    "`{text}` at epoch {} ≠ a fresh solo engine",
                    snapshot.epoch()
                )
            });
        }
        (wall, hits)
    }
}

impl Workload for ApproxChurn {
    const NAME: &'static str = "approx_churn";
    const CLASSES: &'static [Class] = &[
        Class {
            name: "write",
            gated: false,
        },
        Class {
            name: "hit",
            gated: true,
        },
        Class {
            name: "miss",
            gated: true,
        },
        Class {
            name: "miss_universal",
            gated: true,
        },
        Class {
            name: "miss_negated",
            gated: true,
        },
        Class {
            name: "first_read",
            gated: true,
        },
    ];

    fn setup(config: &RunConfig) -> ApproxChurn {
        let (databases, constants, cycles, warm_up_cycles) = if config.smoke {
            (2, 16, 2, 1)
        } else {
            (DATABASES, CONSTANTS, 4, 4)
        };
        let targets: Vec<Target> = (0..databases)
            .map(|k| {
                let seed = sub_seed(config.seed, k as u64);
                let db = standard_db(constants, seed);
                let mut texts = inputs::variants(&db, inputs::SEMI_JOIN, 4);
                texts.push(inputs::UNIVERSAL.to_string());
                texts.push(inputs::NEGATED_SELECTION.to_string());
                Target {
                    facts: fresh_facts(&db, cycles.max(warm_up_cycles), seed),
                    db,
                    texts,
                }
            })
            .collect();
        ApproxChurn {
            targets,
            cycles,
            warm_up_cycles,
            seed: config.seed,
        }
    }

    fn warm_up(&mut self) -> Vec<Sample> {
        let mut log = PassLog::default();
        for target in &self.targets {
            target.segment(self.warm_up_cycles, &mut Tracer::off(), &mut log);
        }
        log.samples
    }

    fn pass(&mut self, tracer: &mut Tracer) -> PassLog {
        let mut log = PassLog::default();
        let mut hits = 0;
        for target in &self.targets {
            let (wall, target_hits) = target.segment(self.cycles, tracer, &mut log);
            log.wall += wall;
            hits += target_hits;
        }
        let reads = self.targets.len() * self.cycles * READS_PER_CYCLE;
        log.counters = vec![("reads", reads as u64), ("cache_hits", hits)];
        log
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            db: self.targets[0].db.clone(),
            exact_db: exact_probe_db(self.seed),
            texts: self.targets[0].texts.clone(),
        }
    }
}
