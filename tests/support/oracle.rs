//! The reference walks the certain-answer evaluator is tested against:
//! an independent model-enumeration oracle for the certain-answer
//! semantics over the explicit theory of §2.2, Theorem 1 verbatim over
//! every raw mapping, and the kernel count by enumeration. Include by
//! `#[path]` as `mod oracle`.
//!
//! `Q(LB) = { c : T ⊨_f φ(c) }` is defined by quantification over *all
//! finite models* of `T`. This module re-derives answers from that raw
//! definition, deliberately **not** using Theorem 1's insight that models
//! are exactly the images `h(Ph₁(LB))`:
//!
//! 1. every model of the domain-closure axiom has `|D| ≤ |C|`, so up to
//!    isomorphism its domain is a subset of `C` and its constant
//!    assignment is a function `C → C`;
//! 2. enumerate *every* such assignment and *every* combination of
//!    relations over the resulting domain — a strict superset of the
//!    models;
//! 3. keep the structures that satisfy the **explicit** theory
//!    ([`theory_sentences`]) under the generic first-order evaluator;
//! 4. intersect query answers across the survivors.
//!
//! Doubly exponential; usable only on the tiny instances the differential
//! tests feed it. That is its job.
//!
//! A second, cheaper reference sits one step closer to the production
//! walk: [`answers_by_raw_mappings`] takes Theorem 1 exactly as stated —
//! every respecting `h` ([`for_each_respecting_mapping`], with its own NE
//! check), no kernel canonicalization, no free-null collapse — with its
//! own candidate list and a fresh [`apply_mapping`] image per mapping, so
//! it shares no logic with the `qld_core::exact` walk it checks.

#![allow(dead_code)]

use querying_logical_databases::core::mappings::for_each_kernel_mapping;
use querying_logical_databases::core::{AnswerMode, CwDatabase};
use querying_logical_databases::logic::builders::VarGen;
use querying_logical_databases::logic::{
    ConstId, Formula, LogicError, PredId, Query, Term, Var, Vocabulary,
};
use querying_logical_databases::physical::{
    eval_query, satisfies_all, tuples::for_each_relation, Elem, PhysicalDb, Relation, TupleSpace,
};

/// The domain-closure axiom of §2.2: `∀x (x=c₁ ∨ … ∨ x=cₙ)`.
///
/// Panics if the vocabulary has no constants (a CW database always has a
/// nonempty domain, matching §2.1's requirement).
pub fn domain_closure_axiom(voc: &Vocabulary, gen: &mut VarGen) -> Formula {
    assert!(
        voc.num_consts() > 0,
        "domain-closure axiom requires at least one constant symbol"
    );
    let x = gen.fresh();
    Formula::Forall(
        x,
        Box::new(Formula::or(
            voc.consts()
                .map(|c| Formula::Eq(Term::Var(x), Term::Const(c)))
                .collect(),
        )),
    )
}

/// The completion axiom of §2.2 for predicate `p` with the given facts:
/// `∀x (P(x) → x=c¹ ∨ … ∨ x=cᵐ)`, or `∀x ¬P(x)` when there are no facts.
pub fn completion_axiom(
    p: PredId,
    arity: usize,
    facts: &[Box<[ConstId]>],
    gen: &mut VarGen,
) -> Formula {
    let xs: Vec<Var> = (0..arity).map(|_| gen.fresh()).collect();
    let x_terms: Vec<Term> = xs.iter().map(|v| Term::Var(*v)).collect();
    let atom = Formula::atom(p, x_terms.iter().copied());
    if facts.is_empty() {
        return Formula::forall(xs, Formula::not(atom));
    }
    let disjuncts: Vec<Formula> = facts
        .iter()
        .map(|tuple| {
            Formula::and(
                tuple
                    .iter()
                    .zip(x_terms.iter())
                    .map(|(c, x)| Formula::Eq(*x, Term::Const(*c)))
                    .collect(),
            )
        })
        .collect();
    Formula::forall(xs, Formula::implies(atom, Formula::or(disjuncts)))
}

/// A uniqueness axiom `¬(cᵢ = cⱼ)` of §2.2.
pub fn uniqueness_axiom(ci: ConstId, cj: ConstId) -> Formula {
    Formula::neq(Term::Const(ci), Term::Const(cj))
}

/// Materializes the full theory `T` of `db` as explicit sentences: atomic
/// fact axioms, uniqueness axioms, the domain-closure axiom, and one
/// completion axiom per predicate.
pub fn theory_sentences(db: &CwDatabase) -> Vec<Formula> {
    let voc = db.voc();
    let mut sentences = Vec::new();
    for p in voc.preds() {
        for t in db.facts(p).iter() {
            sentences.push(Formula::atom(p, t.iter().map(|&e| Term::Const(ConstId(e)))));
        }
    }
    for &(a, b) in db.ne_pairs() {
        sentences.push(uniqueness_axiom(ConstId(a), ConstId(b)));
    }
    let mut gen = VarGen::after(None);
    sentences.push(domain_closure_axiom(voc, &mut gen));
    for p in voc.preds() {
        let facts: Vec<Box<[ConstId]>> = db
            .facts(p)
            .iter()
            .map(|t| t.iter().map(|&e| ConstId(e)).collect())
            .collect();
        sentences.push(completion_axiom(p, voc.pred_arity(p), &facts, &mut gen));
    }
    sentences
}

/// Applies a mapping `h : C → C` (given as `h[i] = h(ConstId(i))`) to
/// `Ph₁(LB)`, producing `h(Ph₁(LB))`: the domain is `h(C)`, each constant
/// `c` is interpreted as `h(c)`, and each relation is `h(I(P))`.
pub fn apply_mapping(db: &CwDatabase, h: &[Elem]) -> PhysicalDb {
    debug_assert_eq!(h.len(), db.num_consts());
    let mut builder = PhysicalDb::builder(db.voc()).domain(h.iter().copied());
    for c in db.voc().consts() {
        builder = builder.constant(c, h[c.index()]);
    }
    for p in db.voc().preds() {
        builder = builder.relation(p, db.facts(p).map_elems(|e| h[e as usize]));
    }
    builder
        .build()
        .expect("image of Ph1 under a total mapping is a valid interpretation")
}

/// Enumerates every mapping `h : C → C` respecting the uniqueness axioms
/// — all `≤ |C|^|C|` of them, by backtracking with a forward check
/// against each constant's smaller NE neighbours — invoking `visit(h)` on
/// each (as a slice `h[i] = h(ConstId(i))`). Returns `false` iff `visit`
/// stopped the enumeration early.
pub fn for_each_respecting_mapping(
    db: &CwDatabase,
    mut visit: impl FnMut(&[Elem]) -> bool,
) -> bool {
    let n = db.num_consts();
    let mut smaller = vec![Vec::new(); n];
    for &(a, b) in db.ne_pairs() {
        // normalized a < b
        smaller[b as usize].push(a);
    }
    let mut h: Vec<Elem> = vec![0; n];
    raw_rec(0, &mut h, &smaller, &mut visit)
}

/// The backtracking recursion from position `pos`: all earlier positions
/// of `h` are already assigned. Returns `false` iff `visit` stopped.
fn raw_rec(
    pos: usize,
    h: &mut [Elem],
    smaller: &[Vec<Elem>],
    visit: &mut dyn FnMut(&[Elem]) -> bool,
) -> bool {
    if pos == h.len() {
        return visit(h);
    }
    for v in 0..h.len() as Elem {
        if smaller[pos].iter().any(|&j| h[j as usize] == v) {
            continue;
        }
        h[pos] = v;
        if !raw_rec(pos + 1, h, smaller, visit) {
            return false;
        }
    }
    true
}

/// Counts the respecting mappings (`|C|^|C|` when there are no uniqueness
/// axioms).
pub fn count_respecting_mappings(db: &CwDatabase) -> u64 {
    let mut count = 0u64;
    for_each_respecting_mapping(db, |_| {
        count += 1;
        true
    });
    count
}

/// Hard cap on the enumeration size so a mistaken call fails loudly
/// instead of running for hours.
const MAX_STRUCTURES: u64 = 50_000_000;

fn enumeration_size(db: &CwDatabase) -> u64 {
    let n = db.num_consts() as u64;
    let mut total = n.checked_pow(n as u32).unwrap_or(u64::MAX);
    for p in db.voc().preds() {
        let tuples = n.checked_pow(db.voc().pred_arity(p) as u32).unwrap_or(64);
        total = total.saturating_mul(1u64 << tuples.min(63));
    }
    total
}

/// Computes certain answers by brute-force model enumeration (see module
/// docs). Panics if the instance is too large to enumerate.
pub fn certain_answers_oracle(db: &CwDatabase, query: &Query) -> Result<Relation, LogicError> {
    query.check(db.voc())?;
    assert!(
        enumeration_size(db) <= MAX_STRUCTURES,
        "oracle instance too large: {} structures",
        enumeration_size(db)
    );
    let theory: Vec<Formula> = theory_sentences(db);
    let n = db.num_consts();
    let consts: Vec<Elem> = (0..n as Elem).collect();
    let arity = query.arity();
    let mut candidates: Vec<Vec<Elem>> = TupleSpace::new(&consts, arity).collect();
    let mut saw_model = false;

    // Enumerate constant assignments h : C → C ...
    for assignment in TupleSpace::new(&consts, n) {
        let mut domain: Vec<Elem> = assignment.clone();
        domain.sort_unstable();
        domain.dedup();
        // ... and all relation combinations over the induced domain.
        let preds: Vec<(PredId, usize)> = db
            .voc()
            .preds()
            .map(|p| (p, db.voc().pred_arity(p)))
            .collect();
        let mut chosen: Vec<Relation> = Vec::with_capacity(preds.len());
        enumerate_relations(
            db,
            &assignment,
            &domain,
            &preds,
            &mut chosen,
            &theory,
            query,
            &mut candidates,
            &mut saw_model,
        );
        if candidates.is_empty() && saw_model {
            break;
        }
    }
    assert!(saw_model, "a CW theory always has at least one model");
    Ok(Relation::from_rows(arity, candidates))
}

/// Theorem 1 verbatim, as a reference for `qld_core::exact`: visits every
/// respecting `h : C → C` (all `≤ |C|^|C|` of them, no early exit), builds
/// `h(Ph₁(LB))` afresh and keeps the candidates `c` with `h(c)` in the
/// image's answers under every `h` ([`AnswerMode::Certain`]) or under some
/// `h` ([`AnswerMode::Possible`]). Returns the answers and the number of
/// mappings visited.
///
/// # Panics
/// Panics if `query` is not valid over the database's vocabulary.
pub fn answers_by_raw_mappings(
    db: &CwDatabase,
    query: &Query,
    mode: AnswerMode,
) -> (Relation, u64) {
    query.check(db.voc()).expect("query matches the vocabulary");
    let consts: Vec<Elem> = (0..db.num_consts() as Elem).collect();
    let candidates: Vec<Vec<Elem>> = TupleSpace::new(&consts, query.arity()).collect();
    // `hits[i]`: how many mappings put candidate `i`'s image in the answers.
    let mut hits = vec![0u64; candidates.len()];
    let mut visited = 0u64;
    for_each_respecting_mapping(db, |h| {
        visited += 1;
        let answers = eval_query(&apply_mapping(db, h), query);
        for (c, hit) in candidates.iter().zip(hits.iter_mut()) {
            let mapped: Vec<Elem> = c.iter().map(|&e| h[e as usize]).collect();
            *hit += u64::from(answers.contains(&mapped));
        }
        true
    });
    let needed = match mode {
        AnswerMode::Certain => visited,
        AnswerMode::Possible => 1,
    };
    let kept = candidates
        .into_iter()
        .zip(hits)
        .filter(|&(_, hit)| hit >= needed)
        .map(|(c, _)| c);
    (Relation::from_rows(query.arity(), kept), visited)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_relations(
    db: &CwDatabase,
    assignment: &[Elem],
    domain: &[Elem],
    preds: &[(PredId, usize)],
    chosen: &mut Vec<Relation>,
    theory: &[Formula],
    query: &Query,
    candidates: &mut Vec<Vec<Elem>>,
    saw_model: &mut bool,
) {
    if chosen.len() == preds.len() {
        let mut builder = PhysicalDb::builder(db.voc()).domain(domain.iter().copied());
        for c in db.voc().consts() {
            builder = builder.constant(c, assignment[c.index()]);
        }
        for ((p, _), rel) in preds.iter().zip(chosen.iter()) {
            builder = builder.relation(*p, rel.clone());
        }
        let pdb = builder.build().expect("enumerated structure is valid");
        if !satisfies_all(&pdb, theory) {
            return;
        }
        *saw_model = true;
        let answers = eval_query(&pdb, query);
        candidates.retain(|c| {
            let mapped: Vec<Elem> = c.iter().map(|&e| assignment[e as usize]).collect();
            answers.contains(&mapped)
        });
        return;
    }
    let (_, arity) = preds[chosen.len()];
    for_each_relation(domain, arity, |rel| {
        chosen.push(rel.clone());
        enumerate_relations(
            db, assignment, domain, preds, chosen, theory, query, candidates, saw_model,
        );
        chosen.pop();
        true
    });
}

/// The kernel count by walking the full kernel tree: the reference for
/// the closed form `qld_core::mappings::count_kernel_mappings`.
pub fn count_kernel_mappings_by_enumeration(db: &CwDatabase) -> u64 {
    let mut count = 0u64;
    for_each_kernel_mapping(db, |_| {
        count = count.saturating_add(1);
        true
    });
    count
}
