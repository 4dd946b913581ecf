//! Theorems 7 and 9 in action: solving quantified Boolean formulas by
//! querying logical databases.
//!
//! * Theorem 7 packs the leading `∀` block into the database (one
//!   constant per variable) and the rest of the prefix into a `Σᴱₖ`
//!   first-order query — combined complexity `Πᵖₖ₊₁`-complete.
//! * Theorem 9 packs the *clauses* into the database and uses a fixed
//!   `Σ¹ₖ` second-order query — the same jump in **data** complexity.
//!
//! Paper: Theorems 7 and 9 (§4, the QBF reductions pinning combined and
//! data complexity to the polynomial hierarchy).
//!
//! Run with: `cargo run --example qbf`

use qld_reductions::{qbf_fo, qbf_so, Lit, Qbf, Quant};
use querying_logical_databases::logic::display::display_query;

fn main() {
    let cases: Vec<(&str, Qbf)> = vec![
        (
            "∀x ∃y ((x∨y) ∧ (¬x∨¬y))   [true: y = ¬x]",
            Qbf::new(
                vec![(Quant::Forall, 1), (Quant::Exists, 1)],
                vec![
                    vec![Lit::pos(0), Lit::pos(1)],
                    vec![Lit::neg(0), Lit::neg(1)],
                ],
            ),
        ),
        (
            "∀x ∃y ((x∨y) ∧ (x∨¬y))    [false at x=0]",
            Qbf::new(
                vec![(Quant::Forall, 1), (Quant::Exists, 1)],
                vec![
                    vec![Lit::pos(0), Lit::pos(1)],
                    vec![Lit::pos(0), Lit::neg(1)],
                ],
            ),
        ),
        (
            "∀x ∃y ∀z ((x∨y∨z) ∧ (¬x∨y∨¬z)) [true: y=1]",
            Qbf::new(
                vec![(Quant::Forall, 1), (Quant::Exists, 1), (Quant::Forall, 1)],
                vec![
                    vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)],
                    vec![Lit::neg(0), Lit::pos(1), Lit::neg(2)],
                ],
            ),
        ),
        (
            "∀x ∃y ∀z ((y∨z) ∧ (¬y∨¬z))     [false]",
            Qbf::new(
                vec![(Quant::Forall, 1), (Quant::Exists, 1), (Quant::Forall, 1)],
                vec![
                    vec![Lit::pos(1), Lit::pos(2)],
                    vec![Lit::neg(1), Lit::neg(2)],
                ],
            ),
        ),
    ];

    println!(
        "{:48} {:>7} {:>8} {:>8}",
        "formula", "solver", "Thm 7", "Thm 9"
    );
    for (name, qbf) in &cases {
        let by_solver = qbf.is_true();
        let by_fo = qbf_fo::qbf_true_via_logical_db(qbf);
        let by_so = qbf_so::qbf_true_via_logical_db(qbf);
        assert_eq!(by_solver, by_fo);
        assert_eq!(by_solver, by_so);
        println!("{name:48} {by_solver:>7} {by_fo:>8} {by_so:>8}");
    }

    // Show the two encodings of the first formula.
    let qbf = &cases[0].1;
    let fo = qbf_fo::reduce(qbf);
    println!(
        "\nTheorem 7 query ({} consts in DB):\n  {}",
        fo.db.num_consts(),
        display_query(fo.db.voc(), &fo.query)
    );
    let so = qbf_so::reduce(qbf);
    println!(
        "Theorem 9 query ({} consts, {} clause predicates in DB):\n  {}",
        so.db.num_consts(),
        so.db.voc().num_preds() - 1,
        display_query(so.db.voc(), &so.query)
    );
}
