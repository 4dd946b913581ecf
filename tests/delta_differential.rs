//! Differential tests of the delta-update subsystem, the solo adaptor of
//! the shared harness (`tests/support/`): an engine mutated through
//! `Engine::apply` must answer every query under every semantics exactly
//! like a fresh solo engine at the answer's stamped epoch — with the
//! derived structures (`Ph₁`, `Ph₂`, `α_P`, `NE`) refreshed
//! incrementally and the answer cache invalidated selectively — and a
//! stale cache hit must be impossible after a footprint-overlapping
//! delta. The harness's shrinker is tested here too, on a planted
//! failure whose printed script replays through `qld --batch`.

#[macro_use]
#[path = "support/cases.rs"]
mod cases;
#[path = "support/scenario.rs"]
mod scenario;

use cases::{check, failure_kind, minimize, Case, Outcome};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::ConstId;
use querying_logical_databases::prelude::{Engine, Semantics};
use querying_logical_databases::server::proto::tuple_lines;
use querying_logical_databases::server::script::{Database, ScriptLine};
use rand::rngs::StdRng;
use rand::Rng;
use scenario::{
    observe, op_to_delta, prepare_all, random_db, random_queries, stamped, Observation, Scenario,
    Shape, SMALL,
};
use std::fmt;

/// The solo adaptor: one engine — its structures built, its cache warm
/// and its queries prepared before the ops — applies the ops through
/// `script::Database::add` and answers every (stale) prepared query
/// under every semantics after each, each answer [`stamped`] with the
/// epoch the ops so far reach. Also returns whether an NE delta grew
/// some `α_P`.
fn solo(s: &Scenario) -> Result<(Vec<Observation>, bool), String> {
    let mut engine = Engine::builder(s.db.clone()).parallelism(s.threads).build();
    let prepared = prepare_all(&engine, s);
    let mut observed = observe(&engine, &prepared);
    stamped(s, 0, engine.epoch(), &observed)?;
    let mut alpha_grew = false;
    for (k, op) in s.ops.iter().enumerate() {
        let before = alpha_rows(&engine);
        engine.add(&op.to_delta().unwrap()).unwrap();
        alpha_grew |= matches!(op, ScriptLine::AssertNe(..)) && alpha_rows(&engine) > before;
        let seen = observe(&engine, &prepared);
        stamped(s, k + 1, engine.epoch(), &seen)?;
        observed.extend(seen);
    }
    Ok((observed, alpha_grew))
}

/// The rows of every `α_P` the §5 engine holds.
fn alpha_rows(engine: &Engine) -> usize {
    let approx = engine.approx_engine();
    let rows = |p: &_| approx.extended_db().relation(*p).len();
    approx.alpha_preds().iter().map(rows).sum()
}

/// Random delta sequences: after every applied delta, the incrementally
/// maintained engine (structures built *before* the deltas, answer cache
/// warm, prepared queries stale) answers like the oracle, across all four
/// semantics. Enough cases see an NE delta grow some `α_P` that skipping
/// that growth cannot go unnoticed.
#[test]
fn engine_after_deltas_equals_engine_rebuilt_from_final_db() {
    let mut alpha_grew = 0;
    check(
        "engine_after_deltas_equals_engine_rebuilt_from_final_db",
        400,
        |rng| Scenario::generate(&SMALL, rng),
        |s| {
            let (observed, grew) = solo(s)?;
            alpha_grew += usize::from(grew);
            s.check(&observed)
        },
    );
    assert!(
        alpha_grew >= 25,
        "only {alpha_grew} cases grew an α_P on an NE delta"
    );
}

/// The stale-hit probe: three fixed queries and one `P0` insert.
const STALE_HIT_QUERIES: [&str; 3] = [
    "(x, y) . P0(x, y)", // positive, mentions P0
    "(x) . !P0(x, x)",   // axiom-sensitive, mentions P0
    "(x) . P1(x)",       // positive, disjoint from P0 deltas
];

/// A stale-hit probe: its queries and its op are fixed by position, so
/// the shrinker may drop none of them.
#[derive(Clone)]
struct Probe(Scenario);

impl Case for Probe {}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

fn stale_hit_probe(rng: &mut StdRng) -> Probe {
    let mut s = Scenario::generate(
        &Shape {
            consts: 2..=4,
            ..SMALL
        },
        rng,
    );
    s.queries = STALE_HIT_QUERIES
        .map(|t| parse_query(s.db.voc(), t).unwrap())
        .to_vec();
    let insert = (0, rng.gen_range(0..8), rng.gen_range(0..8));
    s.ops = op_to_delta(&s.db, insert).into_iter().collect();
    Probe(s)
}

property! {
    /// Stale cache hits are impossible: warm the cache, apply a delta whose
    /// footprint overlaps a cached query, and the overlapping entry must be
    /// re-evaluated (no `cache_hit`) while every answer — hit or not —
    /// equals the oracle's.
    fn no_stale_hit_after_footprint_overlapping_delta(Probe(s) in stale_hit_probe; 12) {
        let mut engine = Engine::new(s.db.clone());
        let prepared = prepare_all(&engine, s);
        for p in &prepared {
            engine.execute(p).unwrap();
        }
        ensure_eq!(engine.cache_len(), 3);
        // A fact delta on P0: both P0 entries must go, the P1 entry must
        // survive and keep serving from cache.
        let report = engine.apply(&s.ops[0].to_delta().unwrap()).unwrap();
        if report.changed() {
            ensure_eq!(report.cache_evicted, 2, "both P0 entries evicted");
            ensure_eq!(report.cache_retained, 1);
        }
        let mut observed = Vec::new();
        for (i, p) in prepared.iter().enumerate() {
            let answers = engine.execute(p).unwrap();
            let hit = answers.evidence().cache_hit;
            ensure!(
                !(report.changed() && i < 2 && hit),
                "footprint-overlapping entry {} served from cache",
                STALE_HIT_QUERIES[i]
            );
            ensure!(!report.changed() || i < 2 || hit, "disjoint entry evicted");
            observed.push(Observation::of(i, Semantics::Auto, &answers));
        }
        s.check(&observed)
    }

    /// The interleaving case: queries prepared at epoch 0, then the deltas
    /// applied with *no* execution in between (half the cases warm the
    /// cache first), then executed — the automatic re-certification at
    /// execution time must match the oracle, and the epoch bookkeeping must
    /// line up: the prepared query still reports its prepare-time epoch,
    /// the engine one epoch per *changed* delta, and every answer's
    /// evidence — a hit that survived the deltas included — the epoch it
    /// was served at.
    fn prepared_at_epoch_k_executed_after_m_deltas_matches_fresh_engine(
        s in |rng| Scenario::generate(&Shape { consts: 2..=4, ops: 2..=6, ..SMALL }, rng); 12
    ) {
        let mut engine = Engine::new(s.db.clone());
        let prepared = prepare_all(&engine, s);
        if s.adaptor_rng().gen_bool(0.5) {
            observe(&engine, &prepared);
        }
        for op in &s.ops {
            let report = engine.apply(&op.to_delta().unwrap()).unwrap();
            ensure_eq!(report.epoch, engine.epoch(), "report names its epoch");
        }
        ensure_eq!(engine.epoch(), s.final_epoch(), "one epoch per changed delta");
        ensure_eq!(engine.delta_stats().deltas_applied, s.ops.len() as u64);
        ensure!(
            prepared.iter().all(|p| p.epoch() == 0),
            "the prepare-time epoch is immutable on the handle"
        );
        let observed = observe(&engine, &prepared);
        ensure!(
            observed.iter().all(|o| o.epoch == engine.epoch()),
            "an answer stamped with an epoch it was not served at"
        );
        s.check(&observed)
    }

    /// The mutated `CwDatabase` itself (not just the engine's answers)
    /// equals one rebuilt from scratch with the same axioms.
    fn mutated_database_equals_rebuilt_database(
        s in |rng| Scenario::generate(&Shape { consts: 1..=5, ops: 0..=5, ..SMALL }, rng); 12
    ) {
        let mut builder = CwDatabase::builder(s.db.voc().clone());
        for p in s.db.voc().preds() {
            for t in s.db.facts(p).iter() {
                let args: Vec<ConstId> = t.iter().map(|&e| ConstId(e)).collect();
                builder = builder.fact(p, &args);
            }
        }
        for &(lo, hi) in s.db.ne_pairs() {
            builder = builder.unique(ConstId(lo), ConstId(hi));
        }
        for op in &s.ops {
            builder = match op {
                ScriptLine::Insert(p, args) => builder.fact(*p, args),
                ScriptLine::AssertNe(a, b) => builder.unique(*a, *b),
                other => panic!("{other:?}"),
            };
        }
        ensure_eq!(s.db_at(s.final_epoch()).unwrap(), builder.build().unwrap());
        Ok(())
    }
}

/// The shrinker on a planted failure: a property that fails iff the ops
/// hold one given `:assert-ne` and the queries one given query shrinks
/// to exactly those two, and the script it prints replays through
/// `qld --batch` to the answer the failure names.
#[test]
fn the_shrinker_keeps_exactly_the_planted_delta_and_query() {
    // No axioms, and inserts only beside the planted delta.
    let db = random_db(4, 0.0, 3, 3);
    assert!(db.ne_pairs().is_empty());
    let mut ops: Vec<ScriptLine> = (0..8)
        .filter_map(|i| op_to_delta(&db, (i % 2, u32::from(i), u32::from(i) * 3)))
        .collect();
    let ne = ScriptLine::AssertNe(ConstId(0), ConstId(3));
    ops.insert(3, ne.clone());
    let queries = random_queries(&db, 6, 41);
    let s = Scenario::fixed(db, queries, ops);
    let target = s.queries[2].clone();
    let mut planted = |s: &Scenario| -> Outcome {
        let (Some(k), Some(q)) = (
            s.ops.iter().position(|op| *op == ne),
            s.queries.iter().position(|query| *query == target),
        ) else {
            return Ok(());
        };
        let oracle = s.oracle(s.epochs()[k + 1]).unwrap();
        let prepared = oracle.prepare(target.clone()).unwrap();
        let answers = oracle.execute_as(&prepared, Semantics::Exact).unwrap();
        let mut lines = tuple_lines(s.db.voc(), &answers);
        lines.push(format!("{} tuple(s)", answers.len()));
        Err(format!(
            "planted: query {q} under exact after `{}`:\n{}",
            s.line(&ne),
            lines.join("\n")
        ))
    };
    let (shrunk, failure) = minimize(s, &mut planted);
    assert_eq!(shrunk.ops, std::slice::from_ref(&ne));
    assert_eq!(shrunk.queries, [target]);

    // Replay the printed report.
    let report = format!("{shrunk:?}");
    let (_, files) = report.split_once("--- case.qld ---\n").unwrap();
    let (db_text, script) = files.split_once("--- case.q ---\n").unwrap();
    let dir = std::env::temp_dir().join(format!("qld-shrink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (db_path, script_path) = (dir.join("case.qld"), dir.join("case.q"));
    std::fs::write(&db_path, db_text).unwrap();
    std::fs::write(&script_path, script).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_qld"))
        .args([db_path.to_str().unwrap(), "--mode", "exact", "--batch"])
        .arg(&script_path)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{stdout}");
    let query_line = script.lines().next().unwrap();
    let (_, after_ne) = stdout
        .split_once(&format!("> {}\n", shrunk.line(&ne)))
        .unwrap();
    let (_, answer) = after_ne.split_once(&format!("> {query_line}\n")).unwrap();
    let (_, expected) = failure.split_once(":\n").unwrap();
    assert!(
        answer.starts_with(expected),
        "replay:\n{stdout}\nfailure:\n{failure}"
    );
}

/// The shrinker keeps a drop only while the failure stays the same one:
/// a property whose planted `Err` turns into a different `Err` once the
/// queries fall below three shrinks to three queries, not to the other
/// failure's one.
#[test]
fn the_shrinker_does_not_trade_a_failure_for_a_different_one() {
    let db = random_db(4, 0.5, 3, 7);
    let queries = random_queries(&db, 6, 7);
    let target = queries[4].clone();
    let s = Scenario::fixed(db, queries, Vec::new());
    let mut planted = |s: &Scenario| -> Outcome {
        ensure!(s.queries.contains(&target));
        ensure!(s.queries.len() < 3, "planted: {} queries", s.queries.len());
        Err(format!("a different check: {} queries", s.queries.len()))
    };
    let (shrunk, failure) = minimize(s, &mut planted);
    assert_eq!(shrunk.queries.len(), 3, "{failure}");
    assert!(shrunk.queries.contains(&target));
    assert!(failure.starts_with("planted: "), "{failure}");
}

/// What counts as the same failure: the check, not the values it saw.
#[test]
fn failure_kinds_ignore_values_but_not_checks() {
    let kind = failure_kind;
    assert_eq!(
        kind("query 3 diverged: [1] != [2]"),
        kind("query 12 diverged: []")
    );
    assert_ne!(
        kind("query 3 diverged: [1]"),
        kind("cache_len() == 3: 2 != 3")
    );
    assert_ne!(
        kind("panicked: index out of bounds: 0"),
        kind("panicked: x: 0")
    );
    assert_ne!(kind("panicked: x"), kind("x"));
}
