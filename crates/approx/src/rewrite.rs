//! The query transformation `Q ↦ Q̂` of §5.
//!
//! After pushing negations to the atoms, the only negative contexts left
//! are `¬(t₁ = t₂)` and `¬P(t…)`. The first becomes `NE(t₁, t₂)`; the
//! second becomes the provable-disagreement atom `α_P(t…)`, a scan of a
//! materialized relation (Theorem 14: "treat the subformulas α_P(x) as if
//! they were atomic formulas"). Negated atoms of *quantified* predicate
//! variables take the literal Lemma 10 formula instead — there is nothing
//! to materialize for them.
//!
//! Note that the result `Q̂` contains **no negations at all**: this is why
//! positive queries rewrite to themselves (Theorem 13) and why the
//! approximation is sound (Theorem 11).

use qld_logic::builders::{alpha_so, VarGen};
use qld_logic::nnf::to_nnf;
use qld_logic::{Formula, PredId, Query};

/// How `¬P(x)` is realized in `Q̂`. There is one way; the argument of
/// [`crate::ApproxEngine::rewrite`] stays only so that its callers keep
/// their signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlphaMode {
    /// `¬P(x)` becomes a scan of the pre-computed `α_P` relation.
    #[default]
    Materialized,
}

/// Rewrites a query body (already NNF-normalized inside) into `Q̂`.
///
/// * `ne` — the `NE` predicate of the extended vocabulary;
/// * `alpha` — `alpha[p]` is the predicate holding the materialized `α_P`
///   relation for vocabulary predicate `p`.
pub fn rewrite_query(query: &Query, ne: PredId, alpha: &[PredId]) -> Query {
    let body = to_nnf(query.body());
    let max_var = body
        .max_var()
        .into_iter()
        .chain(query.head().iter().copied())
        .max();
    let mut gen = VarGen::after(max_var);
    let rewritten = rewrite(&body, ne, alpha, &mut gen);
    Query::new(query.head().to_vec(), rewritten)
        .expect("rewriting preserves the free variables of the body")
}

fn rewrite(f: &Formula, ne: PredId, alpha: &[PredId], gen: &mut VarGen) -> Formula {
    match f {
        Formula::True
        | Formula::False
        | Formula::Atom(..)
        | Formula::SoAtom(..)
        | Formula::Eq(..) => f.clone(),
        Formula::Not(inner) => match &**inner {
            Formula::Eq(a, b) => Formula::atom(ne, [*a, *b]),
            Formula::Atom(p, ts) => Formula::Atom(alpha[p.index()], ts.clone()),
            Formula::SoAtom(r, ts) => alpha_so(*r, ts.len(), ne, ts, gen),
            other => unreachable!("not in NNF: ¬({other:?})"),
        },
        Formula::And(fs) => Formula::And(fs.iter().map(|g| rewrite(g, ne, alpha, gen)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| rewrite(g, ne, alpha, gen)).collect()),
        Formula::Implies(..) | Formula::Iff(..) => {
            unreachable!("NNF eliminates implications")
        }
        Formula::Exists(v, g) => Formula::Exists(*v, Box::new(rewrite(g, ne, alpha, gen))),
        Formula::Forall(v, g) => Formula::Forall(*v, Box::new(rewrite(g, ne, alpha, gen))),
        Formula::SoExists(r, k, g) => {
            Formula::SoExists(*r, *k, Box::new(rewrite(g, ne, alpha, gen)))
        }
        Formula::SoForall(r, k, g) => {
            Formula::SoForall(*r, *k, Box::new(rewrite(g, ne, alpha, gen)))
        }
    }
}

/// Does the formula contain any negation? (`Q̂` never does; used in tests
/// and by Theorem 13's "positive queries rewrite to themselves".)
pub fn negation_free(f: &Formula) -> bool {
    match f {
        Formula::Not(_) => false,
        Formula::True
        | Formula::False
        | Formula::Atom(..)
        | Formula::SoAtom(..)
        | Formula::Eq(..) => true,
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(negation_free),
        Formula::Implies(p, q) | Formula::Iff(p, q) => negation_free(p) && negation_free(q),
        Formula::Exists(_, g)
        | Formula::Forall(_, g)
        | Formula::SoExists(_, _, g)
        | Formula::SoForall(_, _, g) => negation_free(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::parser::parse_query;
    use qld_logic::Vocabulary;

    fn setup() -> (Vocabulary, PredId, Vec<PredId>) {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b"]).unwrap();
        voc.add_pred("R", 2).unwrap();
        voc.add_pred("M", 1).unwrap();
        let ne = voc.add_pred("NE", 2).unwrap();
        let alpha = vec![
            voc.add_pred("ALPHA_R", 2).unwrap(),
            voc.add_pred("ALPHA_M", 1).unwrap(),
        ];
        (voc, ne, alpha)
    }

    #[test]
    fn positive_queries_unchanged() {
        let (voc, ne, alpha) = setup();
        let q = parse_query(&voc, "(x) . exists y. R(x, y) & M(y)").unwrap();
        let qh = rewrite_query(&q, ne, &alpha);
        assert_eq!(qh, q, "positive query must be a fixpoint");
    }

    #[test]
    fn inequality_becomes_ne() {
        let (voc, ne, alpha) = setup();
        let q = parse_query(&voc, "(x, y) . R(x, y) & x != y").unwrap();
        let qh = rewrite_query(&q, ne, &alpha);
        let printed = qld_logic::display::display_query(&voc, &qh).to_string();
        assert!(printed.contains("NE("), "got {printed}");
        assert!(negation_free(qh.body()));
    }

    #[test]
    fn negated_atom_becomes_alpha_scan() {
        let (voc, ne, alpha) = setup();
        let q = parse_query(&voc, "(x) . !M(x)").unwrap();
        let qh = rewrite_query(&q, ne, &alpha);
        let printed = qld_logic::display::display_query(&voc, &qh).to_string();
        assert_eq!(printed, "(x0) . ALPHA_M(x0)");
    }

    #[test]
    fn implication_negations_resolved() {
        let (voc, ne, alpha) = setup();
        // M(x) → R(x,x): the antecedent is implicitly negated.
        let q = parse_query(&voc, "(x) . M(x) -> R(x, x)").unwrap();
        let qh = rewrite_query(&q, ne, &alpha);
        assert!(negation_free(qh.body()));
        let printed = qld_logic::display::display_query(&voc, &qh).to_string();
        assert!(printed.contains("ALPHA_M"), "got {printed}");
    }

    #[test]
    fn universal_quantifiers_survive() {
        let (voc, ne, alpha) = setup();
        let q = parse_query(&voc, "forall x. M(x) | !R(x, x)").unwrap();
        let qh = rewrite_query(&q, ne, &alpha);
        assert!(matches!(qh.body(), Formula::Forall(..)));
        assert!(negation_free(qh.body()));
    }

    #[test]
    fn second_order_negated_predvar_gets_alpha_formula() {
        let (voc, ne, alpha) = setup();
        let q = parse_query(&voc, "exists2 ?S:1. exists x. !?S(x) & M(x)").unwrap();
        let qh = rewrite_query(&q, ne, &alpha);
        assert!(negation_free(qh.body()));
        qh.check(&voc).unwrap();
        // The α formula quantifies and mentions NE.
        assert!(qh.body().size() > 10);
    }

    #[test]
    fn rewriting_is_idempotent_on_output() {
        let (voc, ne, alpha) = setup();
        let q = parse_query(&voc, "(x) . !M(x) & x != a").unwrap();
        let qh = rewrite_query(&q, ne, &alpha);
        let qhh = rewrite_query(&qh, ne, &alpha);
        assert_eq!(qh, qhh);
    }
}
