//! The precise second-order simulation of Theorem 3:
//! `Q(LB) = Q′(Ph₂(LB))`.
//!
//! The paper is explicit that this is **not** a practical implementation
//! route — its purpose is to expose the second-order universal
//! quantification hidden in the certain-answer semantics. We build `Q′`
//! literally:
//!
//! * a predicate *variable* `H` (binary) standing for the mapping
//!   `h : C → C`, constrained by `ρ = ρ₁ ∧ ρ₂ ∧ ρ₃` to be a total
//!   functional relation that never maps NE-related values together;
//! * predicate variables `Pᵢ′` standing for the images `h(I(Pᵢ))`,
//!   constrained by `θ = θ₁ ∧ … ∧ θₘ`;
//! * `ψ = ∃x₁…xₖ (H(z₁,x₁) ∧ … ∧ H(zₖ,xₖ) ∧ φ′)` with `φ′` the body of
//!   `Q` with every `Pᵢ` replaced by `Pᵢ′`;
//! * `Q′ = (z) . ∀H ∀P₁′ … ∀Pₘ′ (ρ ∧ θ → ψ)`.
//!
//! Evaluating `Q′` over `Ph₂(LB)` with the brute-force second-order
//! evaluator of `qld_physical` costs `2^{|C|²} · ∏ᵢ 2^{|C|^{arity(Pᵢ)}}`
//! relation candidates — experiment E3 measures exactly this blow-up.
//!
//! A reference the tests check the Theorem 1 walk against, not part of
//! the product; include by `#[path]` as `mod precise`.

#![allow(dead_code)]

use querying_logical_databases::approx::ApproxEngine;
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::builders::VarGen;
use querying_logical_databases::logic::{Formula, LogicError, PredVarId, Query, Term, Var};
use querying_logical_databases::physical::{eval_query, Relation};

/// The output of the Theorem 3 construction.
#[derive(Debug, Clone)]
pub struct PreciseSimulation {
    /// `Ph₂(LB)`, as the §5 engine builds it: its `extended_db()` holds
    /// `L′ = L + NE` (and `α_P` relations that `Q′` never mentions).
    pub ph2: ApproxEngine,
    /// The second-order query `Q′` over `L′`.
    pub query: Query,
}

/// Replaces every vocabulary atom `Pᵢ(t…)` by the second-order atom
/// `Pᵢ′(t…)`.
fn replace_preds(f: &Formula, map: &[PredVarId]) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Eq(..) | Formula::SoAtom(..) => f.clone(),
        Formula::Atom(p, ts) => Formula::SoAtom(map[p.index()], ts.clone()),
        Formula::Not(g) => Formula::Not(Box::new(replace_preds(g, map))),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| replace_preds(g, map)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| replace_preds(g, map)).collect()),
        Formula::Implies(p, q) => Formula::Implies(
            Box::new(replace_preds(p, map)),
            Box::new(replace_preds(q, map)),
        ),
        Formula::Iff(p, q) => Formula::Iff(
            Box::new(replace_preds(p, map)),
            Box::new(replace_preds(q, map)),
        ),
        Formula::Exists(v, g) => Formula::Exists(*v, Box::new(replace_preds(g, map))),
        Formula::Forall(v, g) => Formula::Forall(*v, Box::new(replace_preds(g, map))),
        Formula::SoExists(r, k, g) => Formula::SoExists(*r, *k, Box::new(replace_preds(g, map))),
        Formula::SoForall(r, k, g) => Formula::SoForall(*r, *k, Box::new(replace_preds(g, map))),
    }
}

/// Relativizes every first-order quantifier to the image of `H`:
/// `∃x φ ↦ ∃x (Img(x) ∧ φ)` and `∀x φ ↦ ∀x (Img(x) → φ)` with
/// `Img(x) = ∃w H(w, x)`.
fn relativize(f: &Formula, h: PredVarId, gen: &mut VarGen) -> Formula {
    let img = |x: Var, gen: &mut VarGen| -> Formula {
        let w = gen.fresh();
        Formula::Exists(
            w,
            Box::new(Formula::so_atom(h, [Term::Var(w), Term::Var(x)])),
        )
    };
    match f {
        Formula::True
        | Formula::False
        | Formula::Atom(..)
        | Formula::SoAtom(..)
        | Formula::Eq(..) => f.clone(),
        Formula::Not(g) => Formula::Not(Box::new(relativize(g, h, gen))),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| relativize(g, h, gen)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| relativize(g, h, gen)).collect()),
        Formula::Implies(p, q) => Formula::Implies(
            Box::new(relativize(p, h, gen)),
            Box::new(relativize(q, h, gen)),
        ),
        Formula::Iff(p, q) => Formula::Iff(
            Box::new(relativize(p, h, gen)),
            Box::new(relativize(q, h, gen)),
        ),
        Formula::Exists(v, g) => {
            let guard = img(*v, gen);
            Formula::Exists(
                *v,
                Box::new(Formula::and(vec![guard, relativize(g, h, gen)])),
            )
        }
        Formula::Forall(v, g) => {
            let guard = img(*v, gen);
            Formula::Forall(*v, Box::new(Formula::implies(guard, relativize(g, h, gen))))
        }
        Formula::SoExists(r, k, g) => Formula::SoExists(*r, *k, Box::new(relativize(g, h, gen))),
        Formula::SoForall(r, k, g) => Formula::SoForall(*r, *k, Box::new(relativize(g, h, gen))),
    }
}

/// Builds `Ph₂(LB)` and `Q′` per Theorem 3.
pub fn build(db: &CwDatabase, query: &Query) -> Result<PreciseSimulation, LogicError> {
    query.check(db.voc())?;
    let extended = ApproxEngine::new(db);
    let ne = extended.ne_pred();
    let m = db.voc().num_preds();

    // Fresh second-order variables: H, then one P′ per vocabulary
    // predicate, allocated above anything the input query uses.
    let so_base = query.body().max_pred_var().map_or(0, |r| r.0 + 1);
    let h = PredVarId(so_base);
    let p_primes: Vec<PredVarId> = (0..m as u32).map(|i| PredVarId(so_base + 1 + i)).collect();

    let mut gen = VarGen::after(query.body().max_var().map(|v| {
        // Head variables are free in the body, but guard against an empty
        // body mentioning none of them.
        query.head().iter().fold(v, |acc, hv| acc.max(*hv))
    }));
    let h_atom = |a: Var, b: Var| Formula::so_atom(h, [Term::Var(a), Term::Var(b)]);

    // ρ₁: H is total.
    let (x, y) = (gen.fresh(), gen.fresh());
    let rho1 = Formula::forall([x], Formula::exists([y], h_atom(x, y)));
    // ρ₂: H is functional.
    let (x, y, z) = (gen.fresh(), gen.fresh(), gen.fresh());
    let rho2 = Formula::forall(
        [x, y, z],
        Formula::implies(
            Formula::and(vec![h_atom(x, y), h_atom(x, z)]),
            Formula::eq(Term::Var(y), Term::Var(z)),
        ),
    );
    // ρ₃: H never maps NE-related values to equal values.
    let (x, y, u, v) = (gen.fresh(), gen.fresh(), gen.fresh(), gen.fresh());
    let rho3 = Formula::forall(
        [x, y, u, v],
        Formula::implies(
            Formula::and(vec![
                Formula::atom(ne, [Term::Var(x), Term::Var(y)]),
                h_atom(x, u),
                h_atom(y, v),
            ]),
            Formula::neq(Term::Var(u), Term::Var(v)),
        ),
    );
    let rho = Formula::and(vec![rho1, rho2, rho3]);

    // θᵢ: Pᵢ′ is exactly the image of Pᵢ under H.
    let mut thetas = Vec::with_capacity(m);
    for p in db.voc().preds() {
        let n = db.voc().pred_arity(p);
        let ys: Vec<Var> = (0..n).map(|_| gen.fresh()).collect();
        let us: Vec<Var> = (0..n).map(|_| gen.fresh()).collect();
        let y_terms: Vec<Term> = ys.iter().map(|v| Term::Var(*v)).collect();
        let u_terms: Vec<Term> = us.iter().map(|v| Term::Var(*v)).collect();
        let h_links: Vec<Formula> = ys
            .iter()
            .zip(us.iter())
            .map(|(yv, uv)| h_atom(*yv, *uv))
            .collect();

        // Forward: (Pᵢ(y) ∧ H(y₁,u₁) ∧ … ) → Pᵢ′(u).
        let mut fwd_ante = vec![Formula::atom(p, y_terms.iter().copied())];
        fwd_ante.extend(h_links.iter().cloned());
        let fwd = Formula::forall(
            ys.iter().copied().chain(us.iter().copied()),
            Formula::implies(
                Formula::and(fwd_ante),
                Formula::so_atom(p_primes[p.index()], u_terms.iter().copied()),
            ),
        );

        // Backward: ∀u ∃y (Pᵢ′(u) → Pᵢ(y) ∧ H(y₁,u₁) ∧ …).
        let mut bwd_cons = vec![Formula::atom(p, y_terms.iter().copied())];
        bwd_cons.extend(h_links);
        let bwd = Formula::forall(
            us.iter().copied(),
            Formula::exists(
                ys.iter().copied(),
                Formula::implies(
                    Formula::so_atom(p_primes[p.index()], u_terms.iter().copied()),
                    Formula::and(bwd_cons),
                ),
            ),
        );
        thetas.push(Formula::and(vec![fwd, bwd]));
    }
    let theta = Formula::and(thetas);

    // ψ: ∃x₁…xₖ (H(z₁,x₁) ∧ … ∧ H(zₖ,xₖ) ∧ φ′), with fresh head z.
    //
    // Faithful repair (documented in ARCHITECTURE.md): the paper's ψ routes the
    // answer tuple through H but leaves constant symbols *inside* φ
    // interpreted by Ph₂ — i.e. un-mapped — while its correctness proof
    // identifies the primed part of the structure with h(Ph₁(LB)), where a
    // constant c denotes h(c). We therefore additionally replace each
    // constant c occurring in the body by a fresh variable w_c constrained
    // by H(c, w_c), which is exactly the treatment the head receives.
    let k = query.arity();
    let zs: Vec<Var> = (0..k).map(|_| gen.fresh()).collect();
    let body_consts = query.body().constants();
    let mut const_subst: Vec<Option<Term>> = Vec::new();
    let mut const_links: Vec<Formula> = Vec::with_capacity(body_consts.len());
    for c in &body_consts {
        let w = gen.fresh();
        if const_subst.len() <= c.index() {
            const_subst.resize(c.index() + 1, None);
        }
        const_subst[c.index()] = Some(Term::Var(w));
        const_links.push(Formula::so_atom(h, [Term::Const(*c), Term::Var(w)]));
    }
    let routed_body = query.body().replace_consts(&const_subst);
    // Second faithful repair: the proof identifies the primed part of a
    // model with h(Ph₁(LB)), whose *domain* is h(C) — but Q′ is evaluated
    // over Ph₂(LB) with domain C. Quantifiers inside φ′ must therefore be
    // relativized to the image of H (`Img(x) ≡ ∃w H(w,x)`); head variables
    // and routed constants are already image elements via their H-links.
    // With all first-order variables ranging over the image, second-order
    // quantifiers need no relativization: their relations are only ever
    // probed at image tuples.
    let phi_prime = relativize(&replace_preds(&routed_body, &p_primes), h, &mut gen);
    let mut psi_parts: Vec<Formula> = query
        .head()
        .iter()
        .zip(zs.iter())
        .map(|(xv, zv)| h_atom(*zv, *xv))
        .collect();
    psi_parts.extend(const_links);
    psi_parts.push(phi_prime);
    let w_vars: Vec<Var> = const_subst
        .iter()
        .filter_map(|t| t.and_then(Term::as_var))
        .collect();
    let psi = Formula::exists(
        query.head().iter().copied().chain(w_vars),
        Formula::and(psi_parts),
    );

    // Q′ = (z) . ∀H ∀P′ (ρ ∧ θ → ψ).
    let mut body = Formula::implies(Formula::and(vec![rho, theta]), psi);
    for p in db.voc().preds().collect::<Vec<_>>().into_iter().rev() {
        body = Formula::SoForall(p_primes[p.index()], db.voc().pred_arity(p), Box::new(body));
    }
    body = Formula::SoForall(h, 2, Box::new(body));
    let q_prime = Query::new(zs, body)?;
    q_prime.check(extended.extended_voc())?;
    Ok(PreciseSimulation {
        ph2: extended,
        query: q_prime,
    })
}

/// Convenience: builds the simulation and evaluates `Q′(Ph₂(LB))`.
///
/// The answer relation is over the constants of `LB` (element `i` =
/// `ConstId(i)`), directly comparable with
/// `qld_core::certain_answers`.
pub fn evaluate(db: &CwDatabase, query: &Query) -> Result<Relation, LogicError> {
    let sim = build(db, query)?;
    Ok(eval_query(sim.ph2.extended_db(), &sim.query))
}
