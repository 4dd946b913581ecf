//! Programmatic formula constructions from the paper.
//!
//! * [`reachability`] — the folklore `O(log n)`-size first-order
//!   reachability formula `β` used in Lemma 10 (attributed to \[St77\]),
//!   built by repeated halving with a **single** occurrence of the edge
//!   formula;
//! * [`gamma_edge`] — the edge formula `γ_{x,y}(u,v)` that turns the
//!   disagreement graph `G_{x,y}` into a definable relation;
//! * [`alpha_p`] — the provable-disagreement formula `α_P(x)` of Lemma 10,
//!   of size `O(k log k)` for a `k`-ary predicate.
//!
//! The explicit sentences of §2.2 (domain closure, completion, uniqueness)
//! are not built here: the engine keeps them implicit, as the paper notes
//! one may, and only the tests' model-enumeration oracle spells them out.

use crate::formula::Formula;
use crate::symbols::{PredId, Var};
use crate::term::Term;

/// Allocator for globally fresh variables, seeded past every variable in
/// the formula under construction.
#[derive(Debug, Clone)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// Creates a generator producing variables strictly greater than
    /// `max_used` (or starting at 0 when `None`).
    pub fn after(max_used: Option<Var>) -> Self {
        VarGen {
            next: max_used.map_or(0, |v| v.0 + 1),
        }
    }

    /// Returns a fresh variable.
    pub fn fresh(&mut self) -> Var {
        let v = Var(self.next);
        self.next += 1;
        v
    }
}

/// Builds `reach_n(u, v)`: "there is a path of length ≤ n from u to v in
/// the graph defined by `edge`", with a single occurrence of the edge
/// formula and `O(log n)` additional size.
///
/// The construction is the repeated-halving trick the paper cites from
/// Stockmeyer: `reach_n(u,v) = ∃w ∀p∀q (((p=u ∧ q=w) ∨ (p=w ∧ q=v)) →
/// reach_⌈n/2⌉(p,q))`, with `reach_1(u,v) = (u=v) ∨ E(u,v)`.
pub fn reachability(
    n: usize,
    u: Term,
    v: Term,
    edge: &mut dyn FnMut(Term, Term) -> Formula,
    gen: &mut VarGen,
) -> Formula {
    if n <= 1 {
        return Formula::or(vec![Formula::Eq(u, v), edge(u, v)]);
    }
    let w = gen.fresh();
    let p = gen.fresh();
    let q = gen.fresh();
    let half = n.div_ceil(2);
    let inner = reachability(half, Term::Var(p), Term::Var(q), edge, gen);
    Formula::Exists(
        w,
        Box::new(Formula::forall(
            [p, q],
            Formula::implies(
                Formula::or(vec![
                    Formula::and(vec![
                        Formula::Eq(Term::Var(p), u),
                        Formula::Eq(Term::Var(q), Term::Var(w)),
                    ]),
                    Formula::and(vec![
                        Formula::Eq(Term::Var(p), Term::Var(w)),
                        Formula::Eq(Term::Var(q), v),
                    ]),
                ]),
                inner,
            ),
        )),
    )
}

/// The edge formula `γ_{x,y}(u,v)` of Lemma 10: `u` and `v` are joined by an
/// edge of the disagreement graph `G_{x,y}`, whose edges are the pairs
/// `(xᵢ, yᵢ)` (in either orientation):
///
/// `⋁ᵢ (u=xᵢ ∧ v=yᵢ) ∨ (u=yᵢ ∧ v=xᵢ)`.
pub fn gamma_edge(xs: &[Term], ys: &[Term], u: Term, v: Term) -> Formula {
    debug_assert_eq!(xs.len(), ys.len());
    let mut disjuncts = Vec::with_capacity(2 * xs.len());
    for (x, y) in xs.iter().zip(ys.iter()) {
        disjuncts.push(Formula::and(vec![Formula::Eq(u, *x), Formula::Eq(v, *y)]));
        disjuncts.push(Formula::and(vec![Formula::Eq(u, *y), Formula::Eq(v, *x)]));
    }
    Formula::or(disjuncts)
}

/// The provable-disagreement formula `α_P(x)` of Lemma 10.
///
/// `α_P(x)` holds of a tuple `c` in `Ph₂(LB)` iff `c` *disagrees* with `d`
/// (w.r.t. the uniqueness axioms) for every `d ∈ I(P)`:
///
/// `∀y ( P(y) → ∃u ∃v ( NE(u,v) ∧ conn_{x,y}(u,v) ) )`
///
/// where `conn` is [`reachability`] over the [`gamma_edge`] graph. The
/// formula has size `O(k log k)` where `k = arity(P)`.
///
/// `xs` are the argument terms of the negated atom `¬P(x)` (constants and
/// repeated variables allowed); `ne` is the `NE` predicate of the extended
/// vocabulary `L′`; `gen` must generate variables fresh for the enclosing
/// query.
pub fn alpha_p(p: PredId, arity: usize, ne: PredId, xs: &[Term], gen: &mut VarGen) -> Formula {
    alpha_generic(&mut |ts| Formula::atom(p, ts), arity, ne, xs, gen)
}

/// [`alpha_p`] for a second-order predicate *variable* `R` instead of a
/// vocabulary predicate — the construction is identical, which is the
/// paper's §5 Remark that the approach (unlike Reiter's proof-theoretic
/// one) extends to higher-order queries.
pub fn alpha_so(
    r: crate::symbols::PredVarId,
    arity: usize,
    ne: PredId,
    xs: &[Term],
    gen: &mut VarGen,
) -> Formula {
    alpha_generic(&mut |ts| Formula::so_atom(r, ts), arity, ne, xs, gen)
}

/// Shared body of [`alpha_p`] / [`alpha_so`]: the atom constructor is the
/// only difference.
fn alpha_generic(
    atom: &mut dyn FnMut(Vec<Term>) -> Formula,
    arity: usize,
    ne: PredId,
    xs: &[Term],
    gen: &mut VarGen,
) -> Formula {
    debug_assert_eq!(xs.len(), arity);
    let ys: Vec<Var> = (0..arity).map(|_| gen.fresh()).collect();
    let y_terms: Vec<Term> = ys.iter().map(|v| Term::Var(*v)).collect();
    let u = gen.fresh();
    let v = gen.fresh();
    // The graph has at most 2k vertices, so any connected pair is joined by
    // a path of length ≤ 2k − 1; round up to 2k (≥ 1 even for k = 0).
    let bound = (2 * arity).max(1);
    let mut edge = |a: Term, b: Term| gamma_edge(xs, &y_terms, a, b);
    let conn = reachability(bound, Term::Var(u), Term::Var(v), &mut edge, gen);
    let exists_witness = Formula::exists(
        [u, v],
        Formula::and(vec![Formula::atom(ne, [Term::Var(u), Term::Var(v)]), conn]),
    );
    Formula::forall(ys.clone(), Formula::implies(atom(y_terms), exists_witness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Vocabulary;

    #[test]
    fn reachability_size_is_logarithmic() {
        let mut gen = VarGen::after(None);
        let u = Term::Var(gen.fresh());
        let v = Term::Var(gen.fresh());
        let mut edge_size = 0usize;
        let sizes: Vec<usize> = [2usize, 4, 8, 16, 32, 64]
            .iter()
            .map(|&n| {
                let mut gen = VarGen::after(Some(Var(1)));
                let mut edge = |a: Term, b: Term| {
                    let f = Formula::Eq(a, b); // stand-in edge formula
                    edge_size = f.size();
                    f
                };
                reachability(n, u, v, &mut edge, &mut gen).size()
            })
            .collect();
        // Each doubling adds a constant amount of formula, so consecutive
        // differences are equal (logarithmic growth).
        let diffs: Vec<isize> = sizes
            .windows(2)
            .map(|w| w[1] as isize - w[0] as isize)
            .collect();
        for pair in diffs.windows(2) {
            assert_eq!(pair[0], pair[1], "sizes were {sizes:?}");
        }
    }

    #[test]
    fn gamma_edge_shape() {
        let xs = [Term::Var(Var(0)), Term::Var(Var(1))];
        let ys = [Term::Var(Var(2)), Term::Var(Var(3))];
        let f = gamma_edge(&xs, &ys, Term::Var(Var(4)), Term::Var(Var(5)));
        match &f {
            Formula::Or(parts) => assert_eq!(parts.len(), 4),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn alpha_p_is_wellformed_and_fo() {
        let mut voc = Vocabulary::new();
        voc.add_const("a").unwrap();
        let p = voc.add_pred("P", 2).unwrap();
        let ne = voc.add_pred("NE", 2).unwrap();
        let x0 = Var(0);
        let x1 = Var(1);
        let mut gen = VarGen::after(Some(x1));
        let f = alpha_p(p, 2, ne, &[Term::Var(x0), Term::Var(x1)], &mut gen);
        f.check(&voc).unwrap();
        assert!(f.is_first_order());
        assert_eq!(f.free_vars(), vec![x0, x1]);
    }

    #[test]
    fn alpha_p_size_scales_klogk() {
        let mut voc = Vocabulary::new();
        let ne = voc.add_pred("NE", 2).unwrap();
        let sizes: Vec<usize> = (1..=6)
            .map(|k| {
                let p = voc.add_pred(&format!("P{k}"), k).unwrap();
                let xs: Vec<Term> = (0..k).map(|i| Term::Var(Var(i as u32))).collect();
                let mut gen = VarGen::after(Some(Var(k as u32)));
                alpha_p(p, k, ne, &xs, &mut gen).size()
            })
            .collect();
        // Strictly increasing and clearly subquadratic: size(k) ≤ c·k·log k
        // for a small constant; check against a generous bound.
        for w in sizes.windows(2) {
            assert!(w[1] > w[0]);
        }
        for (k, s) in sizes.iter().enumerate() {
            let k = (k + 1) as f64;
            assert!(
                (*s as f64) <= 40.0 * k * (k.log2() + 2.0),
                "size {s} too large for arity {k}"
            );
        }
    }
}
