//! The reference walks the certain-answer evaluator is tested against:
//! an independent model-enumeration oracle for the certain-answer
//! semantics, Theorem 1 verbatim over every raw mapping, and the kernel
//! count by enumeration. Include by `#[path]` as `mod oracle`.
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
//!    (`CwDatabase::theory_sentences`) under the generic
//!    first-order evaluator;
//! 4. intersect query answers across the survivors.
//!
//! Doubly exponential; usable only on the tiny instances the differential
//! tests feed it. That is its job.
//!
//! A second, cheaper reference sits one step closer to the production
//! walk: [`answers_by_raw_mappings`] takes Theorem 1 exactly as stated —
//! every respecting `h`, no kernel canonicalization, no free-null collapse
//! — with its own candidate list and a fresh [`apply_mapping`] image per
//! mapping, so it shares no logic with the `qld_core::exact` walk it
//! checks.

#![allow(dead_code)]

use querying_logical_databases::core::mappings::{
    for_each_kernel_mapping, for_each_respecting_mapping,
};
use querying_logical_databases::core::ph::apply_mapping;
use querying_logical_databases::core::{AnswerMode, CwDatabase};
use querying_logical_databases::logic::{Formula, LogicError, PredId, Query};
use querying_logical_databases::physical::{
    eval_query, satisfies_all, tuples::for_each_relation, Elem, PhysicalDb, Relation, TupleSpace,
};

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
    let theory: Vec<Formula> = db.theory_sentences();
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
