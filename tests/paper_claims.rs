//! The paper's complexity shapes, asserted as counts.
//!
//! Vardi's results are claims about *how much work* a route does: how many
//! mappings Theorem 1 quantifies over, when Corollary 2 skips them, when a
//! co-NP walk must visit them all, what the §5 approximation loses, what
//! `Q̂` costs next to the query it rewrites. Each test below reads one of
//! those amounts — `Evidence`/`EvalStats` counters, the closed-form
//! `count_*` functions, plan node counts, NE store sizes — and never a
//! clock, so a claim holds or fails identically on any host and at any
//! `QLD_THREADS`.
//!
//! Agreement of the routes (same answers) is the differential suites' job
//! (`differential.rs`, `approximation.rs`, `reductions_random.rs`, …); a
//! claim here only adds what no other test pins.

#[path = "support/ne_store.rs"]
mod ne_store;
#[path = "support/oracle.rs"]
mod oracle;

use ne_store::NeStore;
use oracle::{answers_by_raw_mappings, count_respecting_mappings};
use qld_algebra::{compile_query, compile_query_ordered, execute, optimize, ExecOptions};
use qld_reductions::three_color::reduce;
use qld_reductions::Graph;
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::exact::{certain_answers_with, AnswerMode, ExactOptions};
use querying_logical_databases::core::mappings::count_kernel_mappings;
use querying_logical_databases::core::ph::ph1;
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::{ConstId, Query};
use querying_logical_databases::prelude::{Answers, Engine, Regime, Semantics};

/// One binary and one unary predicate, `2·|C|` facts each, 30 % of the
/// constants of unknown identity.
fn standard_db(num_consts: usize, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: vec![2, 1],
        facts_per_pred: (2 * num_consts).max(4),
        known_fraction: 0.7,
        extra_ne_pairs: 0,
        seed,
    })
}

/// [`standard_db`] over `n_core` constants plus `m_free` *free* constants
/// `f0, f1, …` that occur in no fact and no uniqueness axiom: every one
/// multiplies the kernel count, and the free-null collapse in
/// `qld_core::exact` folds their placements into a handful of canonical
/// images per core kernel.
fn sparse_null_db(n_core: usize, m_free: usize, seed: u64) -> CwDatabase {
    let core = standard_db(n_core, seed);
    let mut voc = core.voc().clone();
    for i in 0..m_free {
        voc.add_const(&format!("f{i}")).unwrap();
    }
    // The new names are appended, so the core keeps its constant ids.
    let mut builder = CwDatabase::builder(voc);
    for p in core.voc().preds() {
        for tuple in core.facts(p).iter() {
            let args: Vec<ConstId> = tuple.iter().map(|&e| ConstId(e)).collect();
            builder = builder.fact(p, &args);
        }
    }
    for &(a, b) in core.ne_pairs() {
        builder = builder.unique(ConstId(a), ConstId(b));
    }
    builder.build().unwrap()
}

/// The join wrapped in `∨ z = z`: every tuple is certain, so the candidate
/// set never empties, early exit never fires, and a walk's counts are its
/// full deterministic total.
fn scaling_query(db: &CwDatabase) -> Query {
    parse_query(db.voc(), "(x, z) . (exists y. P0(x, y) & P0(y, z)) | z = z").unwrap()
}

/// Runs `query` through an `Exact` engine that always walks (no
/// Corollary 2 shortcut, no answer cache), so the evidence counts a real
/// enumeration.
fn walk(db: &CwDatabase, query: Query) -> Answers {
    let engine = Engine::builder(db.clone())
        .semantics(Semantics::Exact)
        .corollary2_fast_path(false)
        .answer_cache(false)
        .build();
    let prepared = engine.prepare(query).unwrap();
    engine.execute(&prepared).unwrap()
}

/// E1, Theorem 1: the kernel walk visits at most one image per kernel
/// partition, there are strictly fewer kernels than respecting mappings,
/// and the kernel count grows with |C|.
#[test]
fn e1_the_kernel_walk_is_bounded_by_kernels_and_kernels_by_raw_mappings() {
    let mut previous = 0;
    for n in 3..=7 {
        let db = standard_db(n, 42);
        let join = parse_query(db.voc(), "(x, z) . exists y. P0(x, y) & P0(y, z)").unwrap();
        let evaluated = walk(&db, join).evidence().mappings_evaluated;
        let kernels = count_kernel_mappings(&db);
        let raw = count_respecting_mappings(&db);
        assert!(
            0 < evaluated && evaluated <= kernels && kernels < raw,
            "|C| = {n}: {evaluated} evaluated, {kernels} kernels, {raw} raw mappings"
        );
        assert!(
            kernels > previous,
            "|C| = {n}: {kernels} kernels after {previous}"
        );
        previous = kernels;
    }
}

/// E2, Corollary 2: on a fully specified database the fast path evaluates
/// no mapping, the walk without it exactly one kernel, and Theorem 1
/// verbatim all |C|! injections; an `Exact` engine's evidence names the
/// route it took with and without the fast path.
#[test]
fn e2_a_fully_specified_database_costs_one_kernel_against_factorial_raw_mappings() {
    let kernels_only = ExactOptions {
        corollary2_fast_path: false,
        ..ExactOptions::new()
    };
    for n in 4..=7 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: n,
            pred_arities: vec![2, 1],
            facts_per_pred: 2 * n,
            known_fraction: 1.0,
            extra_ne_pairs: 0,
            seed: 7,
        });
        let negation = parse_query(db.voc(), "(x) . P1(x) & !P0(x, x)").unwrap();
        let (_, fast) = certain_answers_with(&db, &negation, ExactOptions::new()).unwrap();
        assert!(
            fast.fast_path && fast.mappings_evaluated == 0,
            "|C| = {n}: {fast:?}"
        );
        let (_, walked) = certain_answers_with(&db, &negation, kernels_only).unwrap();
        assert_eq!(count_kernel_mappings(&db), 1, "|C| = {n}");
        assert!(
            !walked.fast_path && walked.mappings_evaluated == 1,
            "|C| = {n}: {walked:?}"
        );
        let (_, raw) = answers_by_raw_mappings(&db, &negation, AnswerMode::Certain);
        assert_eq!(raw, (1..=n as u64).product::<u64>(), "|C| = {n}");
        // The engine's `Exact` takes the fast path too, and says so.
        for (fast_path, regime, mappings) in
            [(true, Regime::Corollary2, 0), (false, Regime::Theorem1, 1)]
        {
            let engine = Engine::builder(db.clone())
                .semantics(Semantics::Exact)
                .corollary2_fast_path(fast_path)
                .build();
            let answers = engine.query("(x) . P1(x) & !P0(x, x)").unwrap();
            let e = answers.evidence();
            assert_eq!(
                (e.regime, e.mappings_evaluated),
                (regime, mappings),
                "|C| = {n}, fast path {fast_path}"
            );
        }
    }
}

/// E4, Theorem 5: through the 3-colourability reduction, an uncolourable
/// graph makes the walk visit every kernel (no mapping refutes the
/// sentence), while a colourable ring stops at a refuting mapping — a
/// colouring — strictly short of them. That asymmetry is co-NP.
#[test]
fn e4_uncolourable_graphs_walk_every_kernel_and_colourable_rings_stop_short() {
    let graphs = [
        ("K4", Graph::complete(4), false),
        ("W5", Graph::wheel(5), false),
        ("C4", Graph::ring(4), true),
        ("C5", Graph::ring(5), true),
        ("C6", Graph::ring(6), true),
    ];
    for (name, graph, colourable) in graphs {
        let instance = reduce(&graph);
        let answers = walk(&instance.db, instance.query);
        // The Boolean query is certain exactly when no colouring exists.
        assert_eq!(answers.tuples().is_empty(), colourable, "{name}");
        let kernels = count_kernel_mappings(&instance.db);
        let ev = answers.evidence();
        assert_eq!(
            ev.mappings_evaluated + ev.mappings_pruned,
            kernels,
            "{name}"
        );
        if colourable {
            assert!(
                ev.mappings_evaluated < kernels,
                "{name}: the walk visited all {kernels} kernels despite a colouring"
            );
        } else {
            assert_eq!(ev.mappings_evaluated, kernels, "{name}");
        }
    }
}

/// E7, Theorems 11–13, tuple-weighted over a density sweep of random
/// queries: precision is exactly 1 (soundness); recall is 1 for positive
/// queries and for every query at density 0; and for full first-order
/// queries it drops strictly below 1 at some density > 0 — so the
/// approximation is really lossy there, and every query it loses tuples
/// on is one whose certificate admits it is inexact.
#[test]
fn e7_the_approximation_is_sound_complete_where_claimed_and_lossy_elsewhere() {
    let mut lossy_densities = 0;
    for known_fraction in [1.0, 0.75, 0.5, 0.25] {
        for fragment in [QueryFragment::Positive, QueryFragment::FullFo] {
            let (mut exact_total, mut approx_total, mut correct) = (0, 0, 0);
            for seed in 0..8u64 {
                let engine = Engine::new(random_cw_db(&DbGenConfig {
                    num_consts: 6,
                    pred_arities: vec![2, 1],
                    facts_per_pred: 5,
                    known_fraction,
                    extra_ne_pairs: 0,
                    seed,
                }));
                for qseed in 0..8u64 {
                    let query = random_query(
                        engine.db().voc(),
                        &QueryGenConfig {
                            fragment,
                            max_depth: 3,
                            head_arity: 1,
                            seed: qseed * 101 + seed,
                        },
                    );
                    let prepared = engine.prepare(query).unwrap();
                    let exact = engine.execute_as(&prepared, Semantics::Exact).unwrap();
                    let approx = engine.execute_as(&prepared, Semantics::Approx).unwrap();
                    let hits = approx
                        .tuples()
                        .iter()
                        .filter(|t| exact.tuples().contains(t))
                        .count();
                    if hits < exact.len() {
                        assert!(!approx.is_exact(), "a lossy answer certified exact");
                    }
                    exact_total += exact.len();
                    approx_total += approx.len();
                    correct += hits;
                }
            }
            let label = format!("known {known_fraction}, {fragment:?}");
            assert_eq!(correct, approx_total, "{label}: precision below 1");
            if fragment == QueryFragment::Positive || known_fraction == 1.0 {
                assert_eq!(correct, exact_total, "{label}: recall below 1");
            } else if correct < exact_total {
                lossy_densities += 1;
            }
        }
    }
    assert!(
        lossy_densities > 0,
        "full first-order recall was 1 at every density: the sweep never exercises a loss"
    );
}

/// E8 (Theorem 14) and A3: `Q̂` for the negation mix is a fixed
/// first-order query, so its optimised algebra plan over `Ph₂(LB)` does not
/// grow with the data; and the greedy join order answers what the naive
/// left-to-right order answers.
#[test]
fn e8_a3_the_approximation_plan_is_data_independent_and_join_order_is_answer_neutral() {
    let mut nodes_at_16 = None;
    for n in [16, 32, 64, 128] {
        let db = standard_db(n, 9);
        let negation = parse_query(db.voc(), "(x) . P1(x) & !P0(x, x)").unwrap();
        let engine = Engine::new(db);
        let prepared = engine.prepare(negation).unwrap();
        let approx = engine.approx_engine();
        let voc = approx.extended_voc();
        let plan = compile_query_ordered(voc, approx.extended_db(), prepared.rewritten()).unwrap();
        let nodes = optimize(voc, plan).num_nodes();
        let first = *nodes_at_16.get_or_insert(nodes);
        assert!(
            nodes <= first,
            "|C| = {n}: {nodes} plan nodes, {first} at |C| = 16"
        );
    }

    for n in [8, 16, 32] {
        let db = standard_db(n, 21);
        let physical = ph1(&db);
        // Written worst-first: the naive order starts from a Dom² product.
        let chain = parse_query(
            db.voc(),
            "(x, z) . exists y. x != y & P0(x, y) & P0(y, z) & P1(z)",
        )
        .unwrap();
        let naive = optimize(db.voc(), compile_query(db.voc(), &chain).unwrap());
        let greedy = optimize(
            db.voc(),
            compile_query_ordered(db.voc(), &physical, &chain).unwrap(),
        );
        assert_eq!(
            execute(&physical, &naive, ExecOptions::default()),
            execute(&physical, &greedy, ExecOptions::default()),
            "|C| = {n}"
        );
    }
}

/// E9, §5's closing remark: with ~5 % of the values unknown, the explicit
/// `NE` store holds every ordered pair of known constants (quadratic),
/// the virtual one `|U| + |NE′|` entries (linear in |C| per unknown), and
/// the gap widens at every size.
#[test]
fn e9_explicit_ne_grows_quadratically_and_virtual_ne_linearly() {
    let mut previous_ratio = 0.0;
    for n in [64, 256, 1024] {
        let db = random_cw_db(&DbGenConfig {
            num_consts: n,
            pred_arities: vec![],
            facts_per_pred: 0,
            known_fraction: 0.95,
            extra_ne_pairs: n / 20,
            seed: 13,
        });
        let explicit = NeStore::explicit(&db).stored_entries();
        let virtual_store = NeStore::virtualized(&db);
        let virt = virtual_store.stored_entries();
        let NeStore::Virtual { unknown, .. } = virtual_store else {
            unreachable!("virtualized builds the virtual store")
        };
        let (u, k) = (unknown.len(), n - unknown.len());
        assert!(
            explicit >= k * (k - 1),
            "|C| = {n}: {explicit} explicit entries, {k} known"
        );
        assert!(
            virt <= u * (2 * n + 1),
            "|C| = {n}: {virt} virtual entries, |U| = {u}"
        );
        let ratio = explicit as f64 / virt as f64;
        assert!(
            ratio > previous_ratio,
            "|C| = {n}: ratio {ratio} after {previous_ratio}"
        );
        previous_ratio = ratio;
    }
}

/// E17: free constants multiply the kernel count, but the walk's canonical
/// images plus the kernels it pruned account for exactly that count, and
/// at four free constants it visits at least ten times fewer images than
/// there are kernels.
#[test]
fn e17_free_constants_multiply_kernels_but_not_visited_images() {
    for m_free in 0..=4 {
        let db = sparse_null_db(6, m_free, 42);
        let answers = walk(&db, scaling_query(&db));
        assert!(answers.is_exact(), "{m_free} free");
        let ev = answers.evidence();
        let kernels = count_kernel_mappings(&db);
        assert_eq!(
            ev.mappings_evaluated + ev.mappings_pruned,
            kernels,
            "{m_free} free"
        );
        if m_free == 4 {
            assert!(
                kernels >= 10 * ev.mappings_evaluated,
                "{} visited images for {kernels} kernels",
                ev.mappings_evaluated
            );
        }
    }
}
