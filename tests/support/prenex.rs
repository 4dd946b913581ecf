//! Prenex normal form and the `Σᴱₖ` classification of §4.
//!
//! Theorem 6/7 speak of "the class of first-order queries with k
//! alternations of quantifiers, starting with an existential quantifier".
//! This module makes that syntactic class checkable: [`to_prenex`] pulls
//! all quantifiers of a first-order formula to the front (NNF first, then
//! bottom-up extraction with all binders renamed apart, so no capture is
//! possible), and [`Prenex::alternation`] reads off the block structure.
//!
//! Only the tests use it: semantics preservation is property-tested
//! against the evaluator in `tests/prenex_semantics.rs`, which includes
//! this file by `#[path]` as `mod prenex`.

#![allow(dead_code)]

use querying_logical_databases::logic::builders::VarGen;
use querying_logical_databases::logic::nnf::to_nnf;
use querying_logical_databases::logic::{Formula, Term, Var};

/// A first-order quantifier kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantKind {
    /// `∃`.
    Exists,
    /// `∀`.
    Forall,
}

/// A formula in prenex normal form: a quantifier prefix over a
/// quantifier-free matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prenex {
    /// Outermost-first quantifier prefix; all variables distinct.
    pub prefix: Vec<(QuantKind, Var)>,
    /// Quantifier-free matrix in negation normal form.
    pub matrix: Formula,
}

impl Prenex {
    /// Rebuilds the ordinary formula.
    pub fn to_formula(&self) -> Formula {
        self.prefix
            .iter()
            .rev()
            .fold(self.matrix.clone(), |acc, (q, v)| match q {
                QuantKind::Exists => Formula::Exists(*v, Box::new(acc)),
                QuantKind::Forall => Formula::Forall(*v, Box::new(acc)),
            })
    }

    /// The quantifier block structure, outermost first (empty for a
    /// quantifier-free formula).
    pub fn blocks(&self) -> Vec<(QuantKind, usize)> {
        let mut blocks: Vec<(QuantKind, usize)> = Vec::new();
        for (q, _) in &self.prefix {
            match blocks.last_mut() {
                Some((kind, n)) if kind == q => *n += 1,
                _ => blocks.push((*q, 1)),
            }
        }
        blocks
    }

    /// `(k, starts_existential)` where `k` is the number of quantifier
    /// blocks: the formula is in `Σᴱₖ` iff this returns
    /// `(j, true)` with `j ≤ k` (or `(0, _)`), per the paper's definition.
    pub fn alternation(&self) -> (usize, bool) {
        let blocks = self.blocks();
        (
            blocks.len(),
            blocks.first().is_none_or(|(q, _)| *q == QuantKind::Exists),
        )
    }

    /// Is the formula in `Σᴱₖ` — at most `k` alternating blocks starting
    /// existentially?
    pub fn is_sigma_k(&self, k: usize) -> bool {
        let (blocks, starts_e) = self.alternation();
        blocks == 0 || (starts_e && blocks <= k)
    }
}

/// Converts a first-order formula to prenex normal form. Returns `None`
/// if the formula contains second-order quantifiers (second-order *atoms*
/// with already-bound predicate variables cannot occur free in a valid
/// query either, so they are rejected too).
pub fn to_prenex(f: &Formula, gen: &mut VarGen) -> Option<Prenex> {
    if !f.is_first_order() {
        return None;
    }
    Some(pull(&to_nnf(f), gen))
}

/// Bottom-up quantifier extraction over an NNF formula. Invariant: the
/// returned matrix is quantifier-free, and every binder in the returned
/// prefix is a fresh variable (so prefixes from sibling subformulas can
/// be concatenated without capture).
fn pull(f: &Formula, gen: &mut VarGen) -> Prenex {
    match f {
        Formula::True
        | Formula::False
        | Formula::Atom(..)
        | Formula::Eq(..)
        | Formula::Not(_)
        | Formula::SoAtom(..) => Prenex {
            prefix: Vec::new(),
            matrix: f.clone(),
        },
        Formula::And(fs) | Formula::Or(fs) => {
            let is_and = matches!(f, Formula::And(_));
            let mut prefix = Vec::new();
            let mut matrices = Vec::with_capacity(fs.len());
            for g in fs {
                let p = pull(g, gen);
                prefix.extend(p.prefix);
                matrices.push(p.matrix);
            }
            Prenex {
                prefix,
                matrix: if is_and {
                    Formula::and(matrices)
                } else {
                    Formula::or(matrices)
                },
            }
        }
        Formula::Exists(v, g) | Formula::Forall(v, g) => {
            let kind = if matches!(f, Formula::Exists(..)) {
                QuantKind::Exists
            } else {
                QuantKind::Forall
            };
            let inner = pull(g, gen);
            // All inner binders are already fresh, so the remaining free
            // occurrences of `v` in the matrix are exactly the ones this
            // binder captures. Rename them to a fresh variable.
            let w = gen.fresh();
            let mut subst: Vec<Option<Term>> = vec![None; v.index() + 1];
            subst[v.index()] = Some(Term::Var(w));
            let mut prefix = vec![(kind, w)];
            prefix.extend(inner.prefix);
            Prenex {
                prefix,
                matrix: inner.matrix.substitute(&subst),
            }
        }
        Formula::Implies(..) | Formula::Iff(..) => {
            unreachable!("NNF eliminates implications")
        }
        Formula::SoExists(..) | Formula::SoForall(..) => {
            unreachable!("to_prenex rejects second-order formulas")
        }
    }
}
