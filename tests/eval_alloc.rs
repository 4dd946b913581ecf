//! What evaluation allocates, counted instead of timed.
//!
//! A tuple is a `&[Elem]` row of a flat buffer: the evaluator binds from
//! one reused row and pushes answers into one `RowWriter`, the algebra
//! operators write their output rows into one, the Theorem 1 walk keeps its
//! candidates in one `Relation` per query, lowers each query once and
//! evaluates every image through one `QueryEvaluator`. None of them may
//! allocate per tuple, per candidate, per atom or per image; what is left
//! is set-up — the lowered program included — plus the doublings of a
//! growing buffer. Wall clocks on a shared host cannot pin that; a counting
//! `#[global_allocator]` can — the counts are constants of the code path.
//!
//! The allocator counts only while the test thread asks it to, and this is
//! the one test of its binary, so nothing else allocates meanwhile.

use querying_logical_databases::algebra::{compile_query, execute, optimize, ExecOptions};
use querying_logical_databases::core::exact::{certain_answers_batch_with, ExactOptions};
use querying_logical_databases::core::ph::ph1;
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::{ConstId, Query, Vocabulary};
use querying_logical_databases::physical::{eval_query, PhysicalDb};
use querying_logical_databases::workloads::{random_cw_db, DbGenConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the number of allocations
/// (reallocations included) it performed.
fn measured<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (result, allocations, _bytes) = counting_alloc::measured(f);
    (result, allocations)
}

/// How often a `Vec<u32>` that receives `elems` elements one row at a time
/// (re)allocates — measured, so the tests below do not restate `Vec`'s
/// growth policy.
fn doublings(elems: usize) -> usize {
    measured(|| {
        let mut buffer: Vec<u32> = Vec::new();
        for e in 0..elems as u32 {
            buffer.extend_from_slice(&[e]);
        }
        buffer
    })
    .1
}

/// `qld_bench`'s generated databases: binary `P0`, unary `P1`, `2·n` facts
/// each.
fn generated_db(num_consts: usize, known_fraction: f64, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: vec![2, 1],
        facts_per_pred: 2 * num_consts,
        known_fraction,
        extra_ne_pairs: 0,
        seed,
    })
}

const UNIVERSAL: &str = "(x) . forall y. P0(x, y) -> P1(y)";
const NEGATION_FULL: &str = "(x) . (P1(x) & !P0(x, x)) | x = x";
const UNIVERSAL_FULL: &str = "(x) . (forall y. P0(x, y) -> P1(y)) | x = x";

/// Allocations of one `eval_query` of [`UNIVERSAL`] besides its answer
/// buffer: the value slots, the candidate row and the odometer, plus the
/// lowered query — its head slots and one box per connective or quantifier
/// that has children (`forall`, `->`).
const EVAL_QUERY_SETUP_ALLOCATIONS: usize = 3 + 3;

/// (a) `eval_query` allocates per query, not per candidate (`|D|`), per
/// answer, or per atom test (`|D|²` for the `UNIVERSAL` shape).
fn eval_query_allocates_per_query_not_per_tuple() {
    for num_consts in [8, 32] {
        let db = generated_db(num_consts, 0.7, 20);
        let base = ph1(&db);
        let query = parse_query(db.voc(), UNIVERSAL).unwrap();
        let (answers, allocations) = measured(|| eval_query(&base, &query));
        assert!(!answers.is_empty(), "{num_consts} constants: vacuous probe");
        assert_eq!(
            allocations,
            EVAL_QUERY_SETUP_ALLOCATIONS + doublings(answers.len()),
            "{num_consts} constants, {} answers",
            answers.len()
        );
    }
}

/// The arity-2 class of `qld_bench`'s `exact_scan`: 36 candidates.
const SCALING: &str = "(x, z) . (exists y, w. P0(x, y) & P0(y, w) & P0(w, z)) | z = z";

/// `exact_scan`'s `batch16`: sixteen Boolean sentences, all certainly true,
/// the second eight mentioning a constant each.
fn batch16(db: &CwDatabase) -> Vec<Query> {
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
    (0..16)
        .map(|i| {
            let base = TEMPLATES[i % TEMPLATES.len()];
            let text = if i < TEMPLATES.len() {
                base.to_string()
            } else {
                let name = db.voc().const_name(ConstId((i % db.num_consts()) as u32));
                format!("({base}) & {name} = {name}")
            };
            parse_query(db.voc(), &text).unwrap()
        })
        .collect()
}

/// Allocations of one sequential full walk (fast path off, early exit off)
/// over the 6-constant high-null database below, and the images it builds.
/// Set-up only: `Ph₁` and its image buffer, the kernel enumeration's state,
/// the candidate set, the lowered query, the evaluator's buffers on the
/// first image. The two arity-1 texts lower to programs of equal size (an
/// `|`, an `&` or a `forall`, a `!` or a `->`) and cost the same; the
/// arity-2 text pays for one more quantifier and the doublings of a 36-row
/// candidate set; the batch pays set-up per sentence — a lowered program,
/// a candidate set, a proven set — and still nothing per image.
const WALK_IMAGES: u64 = 203;
const WALK_ALLOCATIONS: [(&str, usize); 3] =
    [(NEGATION_FULL, 71), (UNIVERSAL_FULL, 71), (SCALING, 80)];
const BATCH_WALK_ALLOCATIONS: usize = 123;

/// (b) The Theorem 1 walk allocates at set-up and when a buffer grows —
/// never per image, never per candidate.
fn the_walk_allocates_less_than_once_per_image() {
    let db = generated_db(6, 0.2, 1);
    let opts = ExactOptions {
        corollary2_fast_path: false,
        early_exit: false,
        ..ExactOptions::sequential()
    };
    let mut walks: Vec<(&str, Vec<Query>, usize)> = WALK_ALLOCATIONS
        .iter()
        .map(|&(text, n)| (text, vec![parse_query(db.voc(), text).unwrap()], n))
        .collect();
    walks.push(("batch16", batch16(&db), BATCH_WALK_ALLOCATIONS));
    for (label, queries, expected) in walks {
        let ((answers, stats), allocations) =
            measured(|| certain_answers_batch_with(&db, &queries, opts).unwrap());
        for (query, answer) in queries.iter().zip(&answers) {
            let space = 6usize.pow(query.arity() as u32);
            assert_eq!(answer.len(), space, "{label}: every tuple is certain");
        }
        assert_eq!(stats.mappings_evaluated, WALK_IMAGES, "{label}");
        assert_eq!(allocations, expected, "{label}");
        assert!(
            (allocations as u64) < stats.mappings_evaluated,
            "{label}: {allocations} allocations over {} images",
            stats.mappings_evaluated
        );
    }
}

/// A physical database with two pseudo-random binary relations of `rows`
/// rows over `rows / 4` values (A1's generator: joins have real fan-out).
fn join_db(rows: usize) -> (Vocabulary, PhysicalDb) {
    let mut voc = Vocabulary::new();
    let a = voc.add_const("a").unwrap();
    let r = voc.add_pred("R", 2).unwrap();
    let s = voc.add_pred("S", 2).unwrap();
    let domain = (rows / 4).max(4) as u64;
    let rel = |salt: u64| {
        (0..rows as u64).map(move |i| {
            let x = i.wrapping_mul(6364136223846793005).wrapping_add(salt) % domain;
            let y = i
                .wrapping_mul(1442695040888963407)
                .wrapping_add(salt ^ 0xabcd)
                % domain;
            vec![x as u32, y as u32]
        })
    };
    let db = PhysicalDb::builder(&voc)
        .domain(0..domain as u32)
        .constant(a, 0)
        .relation_from_tuples(r, rel(1))
        .relation_from_tuples(s, rel(2))
        .build()
        .unwrap();
    (voc, db)
}

/// Allocations of executing the optimized plan of `JOIN_SELECT` — 20
/// operators: scans, a selection, projections, one- and two-key joins, a
/// product, differences — on 64-row and on 1,024-row inputs.
const JOIN_SELECT: &str = "(x, z) . exists y. R(x, y) & S(y, z) & x != z & !R(z, z)";
const EXECUTE_ALLOCATIONS: [(usize, usize); 2] = [(64, 75), (1024, 131)];

/// (c) `qld_algebra::execute` allocates per operator, not per row: sixteen
/// times the input buys a few more doublings of each operator's buffer.
fn execute_allocates_per_operator_not_per_row() {
    let mut counts = Vec::new();
    for (rows, expected) in EXECUTE_ALLOCATIONS {
        let (voc, db) = join_db(rows);
        let query = parse_query(&voc, JOIN_SELECT).unwrap();
        let plan = optimize(&voc, compile_query(&voc, &query).unwrap());
        let (out, allocations) = measured(|| execute(&db, &plan, ExecOptions::default()));
        if rows == 64 {
            assert_eq!(out, eval_query(&db, &query), "{rows} rows");
        }
        assert!(out.len() >= rows / 4, "{rows} rows: vacuous probe");
        assert_eq!(allocations, expected, "{rows} rows");
        counts.push((allocations, plan.num_nodes()));
    }
    let ((small, nodes), (large, _)) = (counts[0], counts[1]);
    // Sixteen times the rows is four more doublings of a buffer that grows
    // linearly with the input and eight of one that grows quadratically.
    assert!(
        large <= small + 8 * nodes,
        "{small} allocations on 64 rows, {large} on 1,024, {nodes} operators"
    );
}

#[test]
fn evaluation_allocates_per_buffer_never_per_tuple() {
    eval_query_allocates_per_query_not_per_tuple();
    the_walk_allocates_less_than_once_per_image();
    execute_allocates_per_operator_not_per_row();
}
