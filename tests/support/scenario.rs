//! One scenario generator and one oracle behind every differential suite.
//!
//! A [`Scenario`] is a database, the queries to ask of it and the deltas
//! to apply to it, as `:insert`/`:assert-ne` script lines. Each suite
//! drives one engine path through a scenario — an adaptor — and records
//! what every read answered as an [`Observation`]; [`Scenario::check`]
//! compares each observation with the oracle, a fresh solo engine with
//! the answer cache off over [`Scenario::db_at`] the observation's
//! stamped epoch. A scenario's `Debug` form is a `qld --batch` replay
//! script, which is what a failing [`check`](crate::cases::check) prints
//! once it has shrunk the ops and the queries.
//!
//! Include after `cases.rs`:
//!
//! ```ignore
//! #[macro_use]
//! #[path = "support/cases.rs"]
//! mod cases;
//! #[path = "support/scenario.rs"]
//! mod scenario;
//! ```

#![allow(dead_code)]

use crate::cases::{Case, Outcome};
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::textio::to_text;
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::display::display_query;
use querying_logical_databases::logic::{ConstId, Query};
use querying_logical_databases::physical::Relation;
use querying_logical_databases::prelude::{
    Answers, Certificate, Delta, Engine, PreparedQuery, Semantics,
};
use querying_logical_databases::server::script::ScriptLine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::ops::RangeInclusive;

/// What the suites vary between their scenarios.
pub struct Shape {
    /// Constants per database.
    pub consts: RangeInclusive<usize>,
    /// Known constants, in tenths of all of them.
    pub known_tenths: RangeInclusive<u8>,
    /// Facts drawn per predicate.
    pub facts_per_pred: usize,
    /// Queries per scenario.
    pub queries: usize,
    /// Ops drawn per scenario (a reflexive `:assert-ne` draw is dropped).
    pub ops: RangeInclusive<usize>,
}

/// The differential suites' usual shape.
pub const SMALL: Shape = Shape {
    consts: 1..=4,
    known_tenths: 0..=10,
    facts_per_pred: 3,
    queries: 3,
    ops: 1..=4,
};

/// A database over `P0/2` and `P1/1`: `consts` constants named `k…`
/// (known, pairwise distinct) and `u…` (unknown), `facts` random facts
/// per predicate, and `seed % 3` extra uniqueness axioms.
pub fn random_db(consts: usize, known: f64, facts: usize, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts: consts,
        pred_arities: vec![2, 1],
        facts_per_pred: facts,
        known_fraction: known,
        extra_ne_pairs: (seed % 3) as usize,
        seed,
    })
}

/// `count` random queries of depth 3: full first-order and positive in
/// turn, of arities 0, 1, 2 in turn.
pub fn random_queries(db: &CwDatabase, count: usize, seed: u64) -> Vec<Query> {
    (0..count)
        .map(|i| {
            random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: if i % 2 == 0 {
                        QueryFragment::FullFo
                    } else {
                        QueryFragment::Positive
                    },
                    max_depth: 3,
                    head_arity: i % 3,
                    seed: seed.wrapping_mul(37).wrapping_add(i as u64 * 613),
                },
            )
        })
        .collect()
}

/// One mutation `(kind, a, b)` over constant indices modulo `|C|`, as
/// the script line that applies it: kind 0 inserts `P0(a, b)`, kind 1
/// inserts `P1(a)`, kind 2 asserts `a != b` (`None` when the indices
/// coincide — a reflexive axiom is invalid).
pub fn op_to_delta(db: &CwDatabase, (kind, a, b): (u8, u32, u32)) -> Option<ScriptLine> {
    let n = db.num_consts() as u32;
    let (a, b) = (ConstId(a % n), ConstId(b % n));
    let pred = |name| db.voc().pred_id(name).unwrap();
    match kind {
        0 => Some(ScriptLine::Insert(pred("P0"), vec![a, b])),
        1 => Some(ScriptLine::Insert(pred("P1"), vec![a])),
        _ if a != b => Some(ScriptLine::AssertNe(a, b)),
        _ => None,
    }
}

/// The first `count` of `ops` that each change the database the ones
/// before them leave, so the epoch after the `k`-th is `k`.
///
/// # Panics
///
/// If fewer than `count` of them do.
pub fn changing(
    db: &CwDatabase,
    ops: impl IntoIterator<Item = ScriptLine>,
    count: usize,
) -> Vec<ScriptLine> {
    let mut db = db.clone();
    let ops: Vec<_> = ops
        .into_iter()
        .filter(|op| apply(&mut db, op))
        .take(count)
        .collect();
    assert_eq!(ops.len(), count, "too few ops change the database");
    ops
}

/// Applies `op` to `db`; returns whether it changed.
fn apply(db: &mut CwDatabase, op: &ScriptLine) -> bool {
    let changed = match op {
        ScriptLine::Insert(p, args) => db.insert_fact(*p, args),
        ScriptLine::AssertNe(a, b) => db.insert_ne(*a, *b),
        other => panic!("{other:?} is not a delta"),
    };
    changed.expect("a generated op is valid")
}

/// A database, the queries to ask of it, and the deltas to apply to it.
#[derive(Clone)]
pub struct Scenario {
    pub db: CwDatabase,
    pub queries: Vec<Query>,
    /// `:insert` and `:assert-ne` lines, applied in order.
    pub ops: Vec<ScriptLine>,
    /// Enumeration workers of the engine under test.
    pub threads: usize,
    /// Seeds the database and the queries, and through
    /// [`Scenario::adaptor_rng`] whatever an adaptor draws beyond the
    /// scenario (a schedule, a crash offset).
    pub seed: u64,
}

impl Scenario {
    /// Draws a scenario of `shape`.
    pub fn generate(shape: &Shape, rng: &mut StdRng) -> Scenario {
        let seed = rng.gen_range(0..10_000u64);
        let consts = rng.gen_range(shape.consts.clone());
        let known = f64::from(rng.gen_range(shape.known_tenths.clone())) / 10.0;
        let db = random_db(consts, known, shape.facts_per_pred, seed);
        let queries = random_queries(&db, shape.queries, seed);
        let ops = (0..rng.gen_range(shape.ops.clone()))
            .filter_map(|_| {
                let op = (
                    rng.gen_range(0..3),
                    rng.gen_range(0..8),
                    rng.gen_range(0..8),
                );
                op_to_delta(&db, op)
            })
            .collect();
        let threads = rng.gen_range(1..=4);
        Scenario {
            db,
            queries,
            ops,
            threads,
            seed,
        }
    }

    /// A scenario of fixed parts, for one worker, seed 0.
    pub fn fixed(db: CwDatabase, queries: Vec<Query>, ops: Vec<ScriptLine>) -> Scenario {
        Scenario {
            db,
            queries,
            ops,
            threads: 1,
            seed: 0,
        }
    }

    /// The ops as deltas.
    pub fn deltas(&self) -> Vec<Delta> {
        self.ops.iter().filter_map(ScriptLine::to_delta).collect()
    }

    /// The stream an adaptor draws its own choices from: seeded by
    /// [`Scenario::seed`] but scrambled, so that no choice moves in step
    /// with what the seed fixes of the database (its `seed % 3` extra
    /// axioms).
    pub fn adaptor_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The database once the ops have published `epoch` epochs — each op
    /// that changes it publishes one — or `None` if they never do.
    pub fn db_at(&self, epoch: u64) -> Option<CwDatabase> {
        let mut db = self.db.clone();
        let mut at = 0;
        for op in &self.ops {
            if at == epoch {
                break;
            }
            at += u64::from(apply(&mut db, op));
        }
        (at == epoch).then_some(db)
    }

    /// The epoch after each prefix of the ops: `epochs()[k]` after the
    /// first `k`.
    pub fn epochs(&self) -> Vec<u64> {
        let mut db = self.db.clone();
        let mut epoch = 0;
        let mut epochs = vec![0];
        for op in &self.ops {
            epoch += u64::from(apply(&mut db, op));
            epochs.push(epoch);
        }
        epochs
    }

    /// The epoch after the last op.
    pub fn final_epoch(&self) -> u64 {
        self.epochs().last().copied().unwrap_or_default()
    }

    /// The oracle at `epoch`: a fresh solo engine over [`Scenario::db_at`]
    /// it, one worker, answer cache off.
    pub fn oracle(&self, epoch: u64) -> Option<Engine> {
        let db = self.db_at(epoch)?;
        Some(
            Engine::builder(db)
                .parallelism(1)
                .answer_cache(false)
                .build(),
        )
    }

    /// Compares every observation with the oracle at its stamped epoch:
    /// the same tuples, certificate and upper bound. Each answer the
    /// oracle gives must also have run the route [`Engine::route`] names
    /// for it, the one `qld`'s `:explain` prints.
    pub fn check(&self, observations: &[Observation]) -> Outcome {
        let mut oracles = HashMap::new();
        let mut truths = HashMap::new();
        for seen in observations {
            let truth = match truths.entry((seen.epoch, seen.query, seen.semantics)) {
                Entry::Occupied(truth) => truth.into_mut(),
                Entry::Vacant(slot) => {
                    let oracle = oracles
                        .entry(seen.epoch)
                        .or_insert_with(|| self.oracle(seen.epoch));
                    let Some(oracle) = oracle else {
                        return Err(format!(
                            "an answer is stamped with epoch {}, past the last op",
                            seen.epoch
                        ));
                    };
                    let prepared = oracle.prepare(self.queries[seen.query].clone()).unwrap();
                    let answers = oracle.execute_as(&prepared, seen.semantics).unwrap();
                    let evidence = answers.evidence();
                    ensure_eq!(
                        oracle.route(&prepared, seen.semantics),
                        (evidence.regime, evidence.certificate),
                        "`{}` under {:?}: the route `:explain` names is not the one that ran",
                        display_query(self.db.voc(), &self.queries[seen.query]),
                        seen.semantics
                    );
                    let truth = Observation::of(seen.query, seen.semantics, &answers);
                    slot.insert(Observation {
                        epoch: seen.epoch,
                        ..truth
                    })
                }
            };
            ensure_eq!(
                seen,
                truth,
                "`{}` diverged from the oracle",
                display_query(self.db.voc(), &self.queries[seen.query])
            );
        }
        Ok(())
    }

    /// `op` as a script line.
    pub fn line(&self, op: &ScriptLine) -> String {
        let voc = self.db.voc();
        match op {
            ScriptLine::Insert(p, args) => {
                let args: Vec<&str> = args.iter().map(|&c| voc.const_name(c)).collect();
                format!(":insert {}({})", voc.pred_name(*p), args.join(", "))
            }
            ScriptLine::AssertNe(a, b) => {
                format!(":assert-ne {} {}", voc.const_name(*a), voc.const_name(*b))
            }
            other => panic!("{other:?} is not a delta"),
        }
    }

    /// The replay script: the queries, then after each op the queries
    /// again.
    pub fn script(&self) -> String {
        let voc = self.db.voc();
        let queries: String = self
            .queries
            .iter()
            .map(|q| format!("{}\n", display_query(voc, q)))
            .collect();
        let mut script = queries.clone();
        for op in &self.ops {
            script += &format!("{}\n{queries}", self.line(op));
        }
        script
    }
}

/// The failure report: the database and the script that replay the
/// scenario through `qld --batch`.
impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} query(s), {} op(s), seed {}; replay with \
             `qld case.qld --threads {} --mode <the semantics named above> --batch case.q`",
            self.queries.len(),
            self.ops.len(),
            self.seed,
            self.threads
        )?;
        write!(
            f,
            "--- case.qld ---\n{}--- case.q ---\n{}",
            to_text(&self.db),
            self.script()
        )
    }
}

/// The shrinker drops ops (list 0) and queries (list 1).
impl Case for Scenario {
    fn lists(&self) -> Vec<usize> {
        vec![self.ops.len(), self.queries.len()]
    }

    fn retain(&self, list: usize, keep: &dyn Fn(usize) -> bool) -> Scenario {
        fn kept<T: Clone>(items: &[T], keep: &dyn Fn(usize) -> bool) -> Vec<T> {
            (0..items.len())
                .filter(|&i| keep(i))
                .map(|i| items[i].clone())
                .collect()
        }
        let mut shrunk = self.clone();
        match list {
            0 => shrunk.ops = kept(&self.ops, keep),
            _ => shrunk.queries = kept(&self.queries, keep),
        }
        shrunk
    }
}

/// What one read answered: which query (an index into
/// [`Scenario::queries`]), under which semantics, stamped with which
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    pub query: usize,
    pub semantics: Semantics,
    pub epoch: u64,
    pub tuples: Relation,
    pub certificate: Certificate,
    pub upper_bound: Option<Relation>,
}

impl Observation {
    pub fn of(query: usize, semantics: Semantics, answers: &Answers) -> Observation {
        Observation {
            query,
            semantics,
            epoch: answers.evidence().epoch,
            tuples: answers.tuples().clone(),
            certificate: answers.evidence().certificate,
            upper_bound: answers.upper_bound().cloned(),
        }
    }
}

/// Fails unless an engine that reports `engine_epoch` after the first
/// `k` ops is at the epoch [`Scenario::epochs`] names for them, and
/// every answer in `seen`, read there, is stamped with it — so an answer
/// with a stale stamp cannot pass as the oracle's at that stamp.
pub fn stamped(s: &Scenario, k: usize, engine_epoch: u64, seen: &[Observation]) -> Outcome {
    let epoch = s.epochs()[k];
    ensure_eq!(engine_epoch, epoch, "the engine's epoch after {k} op(s)");
    ensure!(
        seen.iter().all(|o| o.epoch == epoch),
        "an answer read after {k} op(s) is not stamped with epoch {epoch}"
    );
    Ok(())
}

/// Every query of `scenario`, prepared on `engine`.
pub fn prepare_all(engine: &Engine, scenario: &Scenario) -> Vec<PreparedQuery> {
    let prepare = |q: &Query| engine.prepare(q.clone()).unwrap();
    scenario.queries.iter().map(prepare).collect()
}

/// Every prepared query under every semantics on `engine`.
pub fn observe(engine: &Engine, prepared: &[PreparedQuery]) -> Vec<Observation> {
    let mut observed = Vec::new();
    for (query, p) in prepared.iter().enumerate() {
        for semantics in Semantics::ALL {
            let answers = engine.execute_as(p, semantics).unwrap();
            observed.push(Observation::of(query, semantics, &answers));
        }
    }
    observed
}
