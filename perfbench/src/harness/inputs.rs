//! The benchmark's inputs, all pure functions of `--seed`.
//!
//! The generators below repeat the shapes of the E-series helpers in
//! `crates/bench` (`standard_db`, `high_null_db`, `fresh_facts`, the
//! standard query texts) on purpose: the instrument owns its inputs, so
//! reworking the E-series cannot silently change what later PRs are
//! measured on.

use qld_core::CwDatabase;
use qld_logic::parser::parse_query;
use qld_logic::{ConstId, PredId, Query};
use qld_workloads::{random_cw_db, DbGenConfig};

fn generated_db(num_consts: usize, known_fraction: f64, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: vec![2, 1],
        facts_per_pred: (2 * num_consts).max(4),
        known_fraction,
        extra_ne_pairs: 0,
        seed,
    })
}

/// The serving-shaped database: binary `P0`, unary `P1`, 30 % of the
/// constants with unknown identity.
pub fn standard_db(num_consts: usize, seed: u64) -> CwDatabase {
    generated_db(num_consts, 0.7, seed)
}

/// The Theorem 1 worst-case shape: only 20 % of the constants carry
/// uniqueness axioms, so the kernel count approaches Bell(|C|).
pub fn high_null_db(num_consts: usize, seed: u64) -> CwDatabase {
    generated_db(num_consts, 0.2, seed)
}

/// A join, a negation and a universally quantified implication.
pub const JOIN: &str = "(x, z) . exists y. P0(x, y) & P0(y, z)";
/// See [`JOIN`].
pub const NEGATION: &str = "(x) . P1(x) & !P0(x, x)";
/// See [`JOIN`].
pub const UNIVERSAL: &str = "(x) . forall y. P0(x, y) -> P1(y)";
/// [`NEGATION`] and [`UNIVERSAL`] wrapped in `| x = x`: every tuple is
/// certain, so no early exit fires and the whole kernel set is walked.
pub const NEGATION_FULL: &str = "(x) . (P1(x) & !P0(x, x)) | x = x";
/// See [`NEGATION_FULL`].
pub const UNIVERSAL_FULL: &str = "(x) . (forall y. P0(x, y) -> P1(y)) | x = x";
/// A three-hop join wrapped in `| z = z`: every tuple is certain, so no
/// early exit fires and the whole kernel set is walked. (E10's device, on
/// a heavier body than [`JOIN`]'s: `exact_scan` needs its slowest class
/// well clear of the batch's cost, see there.)
pub const SCALING: &str = "(x, z) . (exists y, w. P0(x, y) & P0(y, w) & P0(w, z)) | z = z";

/// The six query shapes the serving workloads read: the three standard
/// texts plus a positive semi-join, a negated selection and a union.
pub const SERVING_SHAPES: [&str; 6] = [
    JOIN,
    NEGATION,
    UNIVERSAL,
    SEMI_JOIN,
    NEGATED_SELECTION,
    "(x) . P1(x) | exists y. P0(y, x)",
];
/// The positive semi-join of [`SERVING_SHAPES`].
pub const SEMI_JOIN: &str = "(x) . exists y. P0(x, y) & P1(y)";
/// The negated selection of [`SERVING_SHAPES`].
pub const NEGATED_SELECTION: &str = "(x, y) . P0(x, y) & !P1(x)";

/// `n` distinct Boolean sentences that are all certainly true: none is
/// ever refuted, so a batch of them walks exactly the full kernel set.
pub fn batch_texts(db: &CwDatabase, n: usize) -> Vec<String> {
    const TEMPLATES: [&str; 8] = [
        "exists x, y. P0(x, y)",
        "exists x. P1(x) | exists y. P0(y, y)",
        "forall x. x = x",
        "exists x, y. P0(x, y) | P0(y, x)",
        "exists x. (exists y. P0(x, y)) | P1(x)",
        "forall x. P1(x) -> P1(x)",
        "exists x, y. P0(x, y) & x = x",
        "exists x. exists y. P0(x, y) | P1(y)",
    ];
    (0..n)
        .map(|i| {
            let base = TEMPLATES[i % TEMPLATES.len()];
            if i < TEMPLATES.len() {
                base.to_string()
            } else {
                let name = db.voc().const_name(ConstId((i % db.num_consts()) as u32));
                format!("({base}) & {name} = {name}")
            }
        })
        .collect()
}

/// `count` forms of the open query `shape`: as is, and conjoined with
/// `c = c` for the first `count - 1` constants — distinct syntax
/// (distinct cache keys), same answers, same cost.
pub fn variants(db: &CwDatabase, shape: &str, count: usize) -> Vec<String> {
    let (head, body) = shape.split_once(" . ").expect("open query text");
    let mut texts = vec![shape.to_string()];
    for c in 0..count - 1 {
        let name = db.voc().const_name(ConstId((c % db.num_consts()) as u32));
        texts.push(format!("{head} . ({body}) & {name} = {name}"));
    }
    texts
}

/// The request lines of `wire_read`: `per_shape` [`variants`] of each
/// serving shape.
pub fn wire_lines(db: &CwDatabase, per_shape: usize) -> Vec<String> {
    SERVING_SHAPES
        .iter()
        .flat_map(|shape| variants(db, shape, per_shape))
        .collect()
}

/// Parses `text` against `db`'s vocabulary; the benchmark's own texts
/// always parse.
pub fn parse(db: &CwDatabase, text: &str) -> Query {
    parse_query(db.voc(), text).unwrap_or_else(|e| panic!("benchmark query `{text}`: {e}"))
}

/// `count` distinct `P0` pairs that are not yet facts of `db`, in an
/// order fixed by `seed` (a rotation of the pair space, so no pair
/// repeats).
///
/// # Panics
/// Panics if `db` has fewer than `count` non-fact pairs left.
pub fn fresh_facts(db: &CwDatabase, count: usize, seed: u64) -> Vec<(PredId, [ConstId; 2])> {
    let p0 = db.voc().pred_id("P0").expect("workload predicate P0");
    let n = db.num_consts() as u64;
    let facts = db.facts(p0);
    let mut out = Vec::with_capacity(count);
    for offset in 0..n * n {
        if out.len() == count {
            break;
        }
        let pair = offset.wrapping_add(seed.wrapping_mul(31)) % (n * n);
        let (a, b) = ((pair / n) as u32, (pair % n) as u32);
        if !facts.contains(&[a, b]) {
            out.push((p0, [ConstId(a), ConstId(b)]));
        }
    }
    assert_eq!(out.len(), count, "database too dense for the write stream");
    out
}
