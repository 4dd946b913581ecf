//! `exact_scan` — the Theorem 1 path, and nothing else.
//!
//! Solo engines, `Semantics::Exact`, Corollary 2 fast path off, answer
//! cache off, one thread: kernel enumeration, image build and physical
//! evaluation do all the work; the approximation, the caches, publish,
//! the wire and the WAL do none.
//!
//! Every timed query is a *full walk*. A refutable query stops at the
//! first mapping that empties its candidate set, and where that happens
//! is a lottery over the seed (the plain `universal` text costs 0.02 ms
//! on one 8-constant database and 7.8 ms on the next), so the timed mix
//! wraps each body in `| x = x` — E10's device: every tuple is certain,
//! no early exit fires, all Bell(6) = 203 kernels are visited. The plain
//! texts still run in the output checks. For the same reason a run draws
//! [`DATABASES`] databases from its seed and rotates over them: one
//! small database alone moves a full walk by ±10 %.
//!
//! Six constants, not the E-series' eight: an op then takes 0.2–0.9 ms
//! instead of 6–25 ms, a 256-op pass 0.13 s instead of 3.5 s, and a run
//! repeats every op some 110 times. The per-op floor over passes needs
//! both: the shorter an op, the more often a busy host leaves one repeat
//! of it alone. At seven constants (1.4–4.9 ms, 25 repeats) the same
//! seed read 349–486 ops/s over one hour; at six, a competing process
//! taking two fifths of the CPU in 4 ms bursts moves the floor by 4 %.

use crate::harness::inputs::{self, high_null_db, parse, NEGATION_FULL, UNIVERSAL_FULL};
use crate::harness::layers::ProbeInputs;
use crate::harness::stats::Sample;
use crate::harness::trace::Tracer;
use crate::harness::{Class, PassLog, RunConfig, Workload};
use qld_core::{certain_answers, CwDatabase};
use qld_engine::{Answers, Engine, EngineError, Semantics};
use qld_logic::parser::parse_query;
use qld_physical::Relation;
use std::time::Instant;

use super::{sub_seed, EXACT_CONSTANTS};

/// Databases drawn per run.
const DATABASES: usize = 16;
const BATCH: usize = 16;

const NEGATION: u8 = 0;
const UNIVERSAL: u8 = 1;
const BATCH16: u8 = 2;
const SCALING: u8 = 3;

/// One cycle: half the ops are `universal`, so p50 lies inside it (ranks
/// 12.5–62.5 %); a quarter are `scaling`, the slowest by a factor of two
/// (1.5 ms against `batch16`'s 0.7 ms), so p95 lies inside that (ranks
/// 75–100 %). With the E10 two-hop body `scaling` cost 0.83 ms, the
/// batches of the heavier databases sorted among it, and the guard
/// failed 2 runs in 20.
const CYCLE: [u8; 8] = [
    NEGATION, UNIVERSAL, SCALING, UNIVERSAL, BATCH16, UNIVERSAL, SCALING, UNIVERSAL,
];

fn text_of(class: u8) -> &'static str {
    match class {
        NEGATION => NEGATION_FULL,
        UNIVERSAL => UNIVERSAL_FULL,
        _ => inputs::SCALING,
    }
}

struct Target {
    db: CwDatabase,
    engine: Engine,
    batch: Vec<String>,
    /// The last answers of each class, for the output check.
    last: [Vec<Relation>; 4],
}

/// See the module docs.
pub struct ExactScan {
    targets: Vec<Target>,
    cycles: usize,
    warm_up_cycles: usize,
    checked: bool,
}

fn tuples(answers: Vec<Answers>) -> Vec<Relation> {
    answers.into_iter().map(Answers::into_tuples).collect()
}

impl Target {
    /// One op: the single public call a user makes — `Engine::query`, or
    /// prepare-16 + `execute_batch`. Traced, the same work is issued as
    /// the public calls `query` is made of, one span each.
    fn op(&self, class: u8, tracer: &mut Tracer) -> Result<(Vec<Relation>, u64), EngineError> {
        let engine = &self.engine;
        if class == BATCH16 {
            let open = tracer.begin("engine.prepare_batch");
            let prepared = self
                .batch
                .iter()
                .map(|text| engine.prepare_text(text))
                .collect::<Result<Vec<_>, _>>()?;
            tracer.end(open);
            let open = tracer.begin("engine.execute_batch");
            let answers = engine.execute_batch(&prepared)?;
            tracer.end(open);
            let mappings = answers[0].evidence().mappings_evaluated;
            return Ok((tuples(answers), mappings));
        }
        let text = text_of(class);
        let answers = if tracer.enabled() {
            let open = tracer.begin("logic.parse_query");
            let query = parse_query(self.db.voc(), text)?;
            tracer.end(open);
            let open = tracer.begin("engine.prepare");
            let prepared = engine.prepare(query)?;
            tracer.end(open);
            let open = tracer.begin("engine.execute");
            let answers = engine.execute(&prepared)?;
            tracer.end(open);
            answers
        } else {
            engine.query(text)?
        };
        let mappings = answers.evidence().mappings_evaluated;
        Ok((vec![answers.into_tuples()], mappings))
    }
}

impl ExactScan {
    fn run_cycles(&mut self, cycles: usize, tracer: &mut Tracer, log: &mut PassLog) {
        let mut mappings = 0;
        let start = Instant::now();
        for cycle in 0..cycles {
            let k = cycle % self.targets.len();
            for class in CYCLE {
                tracer.next_op();
                let open = tracer.begin("op");
                let timer = Instant::now();
                let result = self.targets[k].op(class, tracer);
                let ns = timer.elapsed().as_nanos() as u64;
                tracer.end(open);
                log.samples.push(Sample { class, ns });
                match result {
                    Ok((answers, m)) => {
                        mappings += m;
                        self.targets[k].last[class as usize] = answers;
                    }
                    Err(_) => log.failed_ops += 1,
                }
            }
        }
        log.wall = start.elapsed();
        let ops = log.samples.len() as u64;
        log.counters = vec![
            ("mappings_evaluated", mappings),
            ("reads", ops),
            ("cache_hits", 0),
        ];
    }

    /// Every timed answer, and the plain early-exit texts, against
    /// `qld_core::certain_answers`.
    fn check(&self, log: &mut PassLog) {
        for (k, target) in self.targets.iter().enumerate() {
            let db = &target.db;
            let expect = |text: &str| certain_answers(db, &parse(db, text));
            for class in [NEGATION, UNIVERSAL, SCALING] {
                let ok = match target.last[class as usize].as_slice() {
                    [got] => expect(text_of(class)).is_ok_and(|want| want == *got),
                    _ => false,
                };
                log.check(ok, || {
                    format!("database {k}: `{}` ≠ certain_answers", text_of(class))
                });
            }
            let got = &target.last[BATCH16 as usize];
            log.check(got.len() == target.batch.len(), || {
                format!("database {k}: batch of {} answers", got.len())
            });
            for (text, got) in target.batch.iter().zip(got) {
                let ok = expect(text).is_ok_and(|want| want == *got);
                log.check(ok, || {
                    format!("database {k}: batch `{text}` ≠ certain_answers")
                });
            }
            for text in [inputs::NEGATION, inputs::UNIVERSAL, inputs::JOIN] {
                let ok = match (target.engine.query(text), expect(text)) {
                    (Ok(got), Ok(want)) => *got.tuples() == want,
                    _ => false,
                };
                log.check(ok, || format!("database {k}: `{text}` ≠ certain_answers"));
            }
        }
    }
}

impl Workload for ExactScan {
    const NAME: &'static str = "exact_scan";
    const CLASSES: &'static [Class] = &[
        Class {
            name: "negation",
            gated: true,
        },
        Class {
            name: "universal",
            gated: true,
        },
        Class {
            name: "batch16",
            gated: true,
        },
        Class {
            name: "scaling",
            gated: true,
        },
    ];

    fn setup(config: &RunConfig) -> ExactScan {
        let (databases, cycles, warm_up_cycles) = if config.smoke {
            (2, 2, 1)
        } else {
            (DATABASES, 2 * DATABASES, 4 * DATABASES)
        };
        let targets = (0..databases)
            .map(|k| {
                let db = high_null_db(EXACT_CONSTANTS, sub_seed(config.seed, k as u64));
                let engine = Engine::builder(db.clone())
                    .semantics(Semantics::Exact)
                    .corollary2_fast_path(false)
                    .answer_cache(false)
                    .parallelism(1)
                    .build();
                Target {
                    batch: inputs::batch_texts(&db, BATCH),
                    db,
                    engine,
                    last: Default::default(),
                }
            })
            .collect();
        ExactScan {
            targets,
            cycles,
            warm_up_cycles,
            checked: false,
        }
    }

    fn warm_up(&mut self) -> Vec<Sample> {
        let mut log = PassLog::default();
        self.run_cycles(self.warm_up_cycles, &mut Tracer::off(), &mut log);
        log.samples
    }

    fn pass(&mut self, tracer: &mut Tracer) -> PassLog {
        let mut log = PassLog::default();
        self.run_cycles(self.cycles, tracer, &mut log);
        if !self.checked {
            self.check(&mut log);
            self.checked = true;
        }
        log
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let db = self.targets[0].db.clone();
        ProbeInputs {
            exact_db: db.clone(),
            db,
            texts: [NEGATION_FULL, UNIVERSAL_FULL, inputs::SCALING]
                .map(String::from)
                .to_vec(),
        }
    }
}
