//! Theorem 5 in action: deciding graph 3-colorability by *querying a
//! logical database*.
//!
//! The reduction stores the graph as facts over vertex constants with
//! unknown identities and colors `1, 2, 3` with known identities; the
//! fixed Boolean query `(∀y M(y)) → (∃z R(z,z))` is finitely implied by
//! the theory exactly when the graph is NOT 3-colorable. This is the
//! paper's witness that certain-answer data complexity is co-NP-hard —
//! and you can feel the exponential here, long before you can on the
//! approximate evaluator.
//!
//! Paper: Theorem 5 (§4, co-NP-hardness of data complexity) via the
//! 3-colorability reduction.
//!
//! Run with: `cargo run --example graph_coloring`

use qld_reductions::three_color::{is_3colorable_via_logical_db, reduce, solve_3coloring};
use qld_reductions::Graph;
use std::time::Instant;

fn main() {
    let cases: Vec<(&str, Graph)> = vec![
        ("triangle K3", Graph::complete(3)),
        ("K4", Graph::complete(4)),
        ("ring C4", Graph::ring(4)),
        ("ring C5 (odd)", Graph::ring(5)),
        ("wheel W4 (even rim)", Graph::wheel(4)),
        ("wheel W5 (odd rim)", Graph::wheel(5)),
        ("K2,3 bipartite", Graph::complete_bipartite(2, 3)),
        ("self-loop", Graph::new(2, [(0, 0), (0, 1)])),
    ];

    println!(
        "{:22} {:>8} {:>9} {:>14} {:>14}",
        "graph", "vertices", "colorable", "via logical DB", "exact eval time"
    );
    for (name, g) in cases {
        let by_solver = solve_3coloring(&g).is_some();
        let start = Instant::now();
        let by_db = is_3colorable_via_logical_db(&g);
        let elapsed = start.elapsed();
        assert_eq!(by_solver, by_db, "reduction must agree with the solver");
        println!(
            "{:22} {:>8} {:>9} {:>14} {:>12.2?}",
            name,
            g.num_vertices(),
            by_solver,
            by_db,
            elapsed
        );
    }

    // A peek inside the reduction: the database for the triangle.
    let inst = reduce(&Graph::complete(3));
    println!(
        "\nreduction of K3: |C| = {} constants, {} facts, {} uniqueness axioms",
        inst.db.num_consts(),
        inst.db.num_facts(),
        inst.db.num_ne()
    );
    println!(
        "fixed query: {}",
        querying_logical_databases::logic::display::display_query(inst.db.voc(), &inst.query)
    );
}
