//! The physical database `(L, I)` and its validating builder.

use crate::relation::{Elem, Relation};
use qld_logic::{ConstId, PredId, Vocabulary};
use std::fmt;

/// Errors raised when assembling an interpretation that is not one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysicalError {
    /// The domain is empty (§2.1 requires a nonempty finite domain).
    EmptyDomain,
    /// A constant symbol was left without a value.
    UnassignedConstant(String),
    /// A constant was assigned an element outside the domain.
    ConstantOutsideDomain(String, Elem),
    /// A relation tuple mentions an element outside the domain.
    TupleOutsideDomain(String, Vec<Elem>),
    /// A relation was given with the wrong arity.
    RelationArity {
        /// Predicate name.
        predicate: String,
        /// Declared arity.
        expected: usize,
        /// Arity of the supplied relation.
        found: usize,
    },
}

impl fmt::Display for PhysicalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalError::EmptyDomain => write!(f, "physical database domain must be nonempty"),
            PhysicalError::UnassignedConstant(c) => {
                write!(f, "constant {c} has no assigned value")
            }
            PhysicalError::ConstantOutsideDomain(c, e) => {
                write!(
                    f,
                    "constant {c} assigned to {e}, which is outside the domain"
                )
            }
            PhysicalError::TupleOutsideDomain(p, t) => {
                write!(f, "relation {p} contains tuple {t:?} outside the domain")
            }
            PhysicalError::RelationArity {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "relation {predicate} declared with arity {expected} but given arity {found}"
            ),
        }
    }
}

impl std::error::Error for PhysicalError {}

/// A physical database: a finite interpretation `I` of a vocabulary `L`.
///
/// Constructed via [`PhysicalDbBuilder`], which validates the §2.1
/// well-formedness conditions, and immutable thereafter — with a few
/// audited exceptions that provably preserve well-formedness:
///
/// * [`PhysicalDb::assign_mapped_image`] overwrites a clone of a
///   validated database with the image of its source under a total
///   element mapping, so the Theorem 1 hot loop can reuse one buffer
///   instead of rebuilding;
/// * the incremental-maintenance append path —
///   [`PhysicalDb::insert_tuple`] (validated against domain and arity),
///   [`PhysicalDb::retain_tuples`] (a subset of a valid relation is
///   valid), and [`PhysicalDb::set_relation`] (validated like the
///   builder) — lets delta updates extend the physical relations in
///   place instead of rebuilding the database per mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalDb {
    domain: Vec<Elem>,
    const_val: Vec<Elem>,
    rels: Vec<Relation>,
}

// Physical databases (and the relations they hold) cross thread
// boundaries in the concurrent serving layer; enforce it at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PhysicalDb>();
    assert_send_sync::<Relation>();
};

impl PhysicalDb {
    /// Starts building an interpretation for `voc`.
    pub fn builder(voc: &Vocabulary) -> PhysicalDbBuilder {
        PhysicalDbBuilder::new(voc)
    }

    /// The domain `D`, sorted ascending.
    #[inline]
    pub fn domain(&self) -> &[Elem] {
        &self.domain
    }

    /// The value `I(c)` of a constant symbol.
    #[inline]
    pub fn const_val(&self, c: ConstId) -> Elem {
        self.const_val[c.index()]
    }

    /// The relation `I(P)` of a predicate symbol.
    #[inline]
    pub fn relation(&self, p: PredId) -> &Relation {
        &self.rels[p.index()]
    }

    /// Number of predicate relations stored.
    pub fn num_relations(&self) -> usize {
        self.rels.len()
    }

    /// Total number of tuples across all relations — the "size of the
    /// database" used by the data-complexity measure.
    pub fn total_tuples(&self) -> usize {
        self.rels.iter().map(Relation::len).sum()
    }

    /// True iff `e` is a domain element (binary search).
    #[inline]
    pub fn in_domain(&self, e: Elem) -> bool {
        self.domain.binary_search(&e).is_ok()
    }

    /// Rewrites `self` in place to be the image of `base` under the element
    /// mapping `h` (`h[e]` is the image of element `e`): the domain becomes
    /// `h(D)`, every constant value and relation tuple is remapped. The
    /// result equals rebuilding from mapped parts with
    /// [`PhysicalDbBuilder`], but reuses `self`'s allocations — the
    /// Theorem 1 hot loop clones `Ph₁(LB)` once and overwrites that buffer
    /// for each mapping instead of constructing a fresh database image.
    ///
    /// The image has two parts that callers may update apart:
    /// [`PhysicalDb::assign_mapped_relations`] and
    /// [`PhysicalDb::assign_mapped_frame`]. Mappings that agree on every
    /// element occurring in a tuple share the first.
    ///
    /// `self` must interpret the same vocabulary shape as `base` (clone
    /// `base` to create the buffer), and `h` must be defined on every
    /// element of `base`'s domain.
    ///
    /// # Panics
    /// Panics if `self`'s constant or relation count differs from
    /// `base`'s, or (via index bounds) if `h` does not cover an element.
    pub fn assign_mapped_image(&mut self, base: &PhysicalDb, h: &[Elem]) {
        self.assign_mapped_relations(base, h);
        self.assign_mapped_frame(base, h);
    }

    /// The relations of [`PhysicalDb::assign_mapped_image`]: every tuple of
    /// `base` remapped through `h`, domain and constants left alone.
    pub fn assign_mapped_relations(&mut self, base: &PhysicalDb, h: &[Elem]) {
        assert_eq!(
            self.rels.len(),
            base.rels.len(),
            "image buffer was not cloned from a database of base's shape"
        );
        for (dst, src) in self.rels.iter_mut().zip(&base.rels) {
            dst.assign_mapped(src, |e| h[e as usize]);
        }
    }

    /// The frame of [`PhysicalDb::assign_mapped_image`]: the domain `h(D)`
    /// and the constants' values, relations left alone.
    pub fn assign_mapped_frame(&mut self, base: &PhysicalDb, h: &[Elem]) {
        assert_eq!(
            self.const_val.len(),
            base.const_val.len(),
            "image buffer was not cloned from a database of base's shape"
        );
        self.domain.clear();
        self.domain
            .extend(base.domain.iter().map(|&e| h[e as usize]));
        self.domain.sort_unstable();
        self.domain.dedup();
        for (dst, &src) in self.const_val.iter_mut().zip(&base.const_val) {
            *dst = h[src as usize];
        }
    }

    /// Appends one tuple to a relation in place, validating it exactly as
    /// the builder would (arity and domain membership). Returns `true` iff
    /// the tuple was new. This is the incremental append path delta
    /// updates use instead of rebuilding the database.
    pub fn insert_tuple(&mut self, p: PredId, tuple: &[Elem]) -> Result<bool, PhysicalError> {
        let rel = &self.rels[p.index()];
        if tuple.len() != rel.arity() {
            return Err(PhysicalError::RelationArity {
                predicate: format!("predicate #{}", p.index()),
                expected: rel.arity(),
                found: tuple.len(),
            });
        }
        if tuple.iter().any(|&e| !self.in_domain(e)) {
            return Err(PhysicalError::TupleOutsideDomain(
                format!("predicate #{}", p.index()),
                tuple.to_vec(),
            ));
        }
        Ok(self.rels[p.index()].insert(tuple))
    }

    /// Drops the tuples of one relation for which `keep` returns false, in
    /// place (a subset of a valid relation is always valid). Returns how
    /// many tuples were dropped.
    pub fn retain_tuples(&mut self, p: PredId, keep: impl FnMut(&[Elem]) -> bool) -> usize {
        self.rels[p.index()].retain(keep)
    }

    /// Replaces one relation in place, validating the replacement exactly
    /// as the builder would (arity and domain membership). The clone-free
    /// counterpart of [`PhysicalDb::with_relation`], used by delta updates
    /// to refresh derived relations (e.g. the virtual-`NE` store).
    pub fn set_relation(&mut self, p: PredId, rel: Relation) -> Result<(), PhysicalError> {
        let current = &self.rels[p.index()];
        if rel.arity() != current.arity() {
            return Err(PhysicalError::RelationArity {
                predicate: format!("predicate #{}", p.index()),
                expected: current.arity(),
                found: rel.arity(),
            });
        }
        if let Some(bad) = rel.iter().find(|t| t.iter().any(|&e| !self.in_domain(e))) {
            return Err(PhysicalError::TupleOutsideDomain(
                format!("predicate #{}", p.index()),
                bad.to_vec(),
            ));
        }
        self.rels[p.index()] = rel;
        Ok(())
    }

    /// Replaces one relation, returning a new database (used by the
    /// second-order evaluator to interpret quantified predicate variables
    /// and by tests). The new relation must have the same arity.
    pub fn with_relation(&self, p: PredId, rel: Relation) -> PhysicalDb {
        assert_eq!(rel.arity(), self.rels[p.index()].arity());
        let mut rels = self.rels.clone();
        rels[p.index()] = rel;
        PhysicalDb {
            domain: self.domain.clone(),
            const_val: self.const_val.clone(),
            rels,
        }
    }
}

/// Validating builder for [`PhysicalDb`].
#[derive(Debug, Clone)]
pub struct PhysicalDbBuilder {
    pred_arities: Vec<usize>,
    pred_names: Vec<String>,
    const_names: Vec<String>,
    domain: Vec<Elem>,
    const_val: Vec<Option<Elem>>,
    rels: Vec<Option<Relation>>,
}

impl PhysicalDbBuilder {
    /// Creates a builder that knows the vocabulary's shape (names are kept
    /// only for error messages).
    pub fn new(voc: &Vocabulary) -> Self {
        PhysicalDbBuilder {
            pred_arities: voc.preds().map(|p| voc.pred_arity(p)).collect(),
            pred_names: voc.preds().map(|p| voc.pred_name(p).to_owned()).collect(),
            const_names: voc.consts().map(|c| voc.const_name(c).to_owned()).collect(),
            domain: Vec::new(),
            const_val: vec![None; voc.num_consts()],
            rels: vec![None; voc.num_preds()],
        }
    }

    /// Sets the domain (sorted and deduplicated automatically).
    pub fn domain<I: IntoIterator<Item = Elem>>(mut self, elems: I) -> Self {
        self.domain = elems.into_iter().collect();
        self.domain.sort_unstable();
        self.domain.dedup();
        self
    }

    /// Assigns a value to a constant symbol.
    pub fn constant(mut self, c: ConstId, value: Elem) -> Self {
        self.const_val[c.index()] = Some(value);
        self
    }

    /// Supplies the relation for a predicate.
    pub fn relation(mut self, p: PredId, rel: Relation) -> Self {
        self.rels[p.index()] = Some(rel);
        self
    }

    /// Supplies the relation for a predicate from raw tuples.
    pub fn relation_from_tuples<I: IntoIterator<Item = Vec<Elem>>>(
        self,
        p: PredId,
        tuples: I,
    ) -> Self {
        let arity = self.pred_arities[p.index()];
        let rel = Relation::from_rows(arity, tuples);
        self.relation(p, rel)
    }

    /// Validates and produces the interpretation. Unsupplied relations
    /// default to empty; unassigned constants are an error.
    pub fn build(self) -> Result<PhysicalDb, PhysicalError> {
        if self.domain.is_empty() {
            return Err(PhysicalError::EmptyDomain);
        }
        let in_domain = |e: Elem| self.domain.binary_search(&e).is_ok();
        let mut const_val = Vec::with_capacity(self.const_val.len());
        for (i, v) in self.const_val.iter().enumerate() {
            match v {
                None => {
                    return Err(PhysicalError::UnassignedConstant(
                        self.const_names[i].clone(),
                    ))
                }
                Some(e) if !in_domain(*e) => {
                    return Err(PhysicalError::ConstantOutsideDomain(
                        self.const_names[i].clone(),
                        *e,
                    ))
                }
                Some(e) => const_val.push(*e),
            }
        }
        let mut rels = Vec::with_capacity(self.rels.len());
        for (i, r) in self.rels.into_iter().enumerate() {
            let arity = self.pred_arities[i];
            let rel = r.unwrap_or_else(|| Relation::empty(arity));
            if rel.arity() != arity {
                return Err(PhysicalError::RelationArity {
                    predicate: self.pred_names[i].clone(),
                    expected: arity,
                    found: rel.arity(),
                });
            }
            if let Some(bad) = rel.iter().find(|t| t.iter().any(|&e| !in_domain(e))) {
                return Err(PhysicalError::TupleOutsideDomain(
                    self.pred_names[i].clone(),
                    bad.to_vec(),
                ));
            }
            rels.push(rel);
        }
        Ok(PhysicalDb {
            domain: self.domain,
            const_val,
            rels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voc() -> (Vocabulary, ConstId, PredId) {
        let mut voc = Vocabulary::new();
        let a = voc.add_const("a").unwrap();
        voc.add_const("b").unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        (voc, a, r)
    }

    #[test]
    fn builds_valid_db() {
        let (voc, a, r) = voc();
        let b = voc.const_id("b").unwrap();
        let db = PhysicalDb::builder(&voc)
            .domain([0, 1, 2])
            .constant(a, 0)
            .constant(b, 1)
            .relation_from_tuples(r, vec![vec![0, 1], vec![1, 2]])
            .build()
            .unwrap();
        assert_eq!(db.domain(), &[0, 1, 2]);
        assert_eq!(db.const_val(a), 0);
        assert!(db.relation(r).contains(&[0, 1]));
        assert_eq!(db.total_tuples(), 2);
    }

    #[test]
    fn empty_domain_rejected() {
        let (voc, _, _) = voc();
        assert_eq!(
            PhysicalDb::builder(&voc).build().unwrap_err(),
            PhysicalError::EmptyDomain
        );
    }

    #[test]
    fn unassigned_constant_rejected() {
        let (voc, a, _) = voc();
        let err = PhysicalDb::builder(&voc)
            .domain([0])
            .constant(a, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, PhysicalError::UnassignedConstant("b".into()));
    }

    #[test]
    fn constant_outside_domain_rejected() {
        let (voc, a, _) = voc();
        let b = voc.const_id("b").unwrap();
        let err = PhysicalDb::builder(&voc)
            .domain([0])
            .constant(a, 0)
            .constant(b, 9)
            .build()
            .unwrap_err();
        assert_eq!(err, PhysicalError::ConstantOutsideDomain("b".into(), 9));
    }

    #[test]
    fn tuple_outside_domain_rejected() {
        let (voc, a, r) = voc();
        let b = voc.const_id("b").unwrap();
        let err = PhysicalDb::builder(&voc)
            .domain([0, 1])
            .constant(a, 0)
            .constant(b, 1)
            .relation_from_tuples(r, vec![vec![0, 7]])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            PhysicalError::TupleOutsideDomain("R".into(), vec![0, 7])
        );
    }

    #[test]
    fn relation_arity_checked() {
        let (voc, a, r) = voc();
        let b = voc.const_id("b").unwrap();
        let err = PhysicalDb::builder(&voc)
            .domain([0, 1])
            .constant(a, 0)
            .constant(b, 1)
            .relation(r, Relation::empty(3))
            .build()
            .unwrap_err();
        assert!(matches!(err, PhysicalError::RelationArity { .. }));
    }

    #[test]
    fn missing_relations_default_empty() {
        let (voc, a, r) = voc();
        let b = voc.const_id("b").unwrap();
        let db = PhysicalDb::builder(&voc)
            .domain([0, 1])
            .constant(a, 0)
            .constant(b, 1)
            .build()
            .unwrap();
        assert!(db.relation(r).is_empty());
    }

    #[test]
    fn assign_mapped_image_matches_builder() {
        let (voc, a, r) = voc();
        let b = voc.const_id("b").unwrap();
        let base = PhysicalDb::builder(&voc)
            .domain([0, 1, 2])
            .constant(a, 0)
            .constant(b, 1)
            .relation_from_tuples(r, vec![vec![0, 1], vec![1, 2], vec![2, 2]])
            .build()
            .unwrap();
        let mut image = base.clone();
        for h in [[0u32, 1, 2], [0, 1, 1], [2, 2, 2], [1, 0, 0]] {
            image.assign_mapped_image(&base, &h);
            let expected = PhysicalDb::builder(&voc)
                .domain(h.iter().copied())
                .constant(a, h[0])
                .constant(b, h[1])
                .relation(r, base.relation(r).map_elems(|e| h[e as usize]))
                .build()
                .unwrap();
            assert_eq!(image, expected, "mapping {h:?}");
        }
    }

    #[test]
    fn insert_tuple_appends_and_validates() {
        let (voc, a, r) = voc();
        let b = voc.const_id("b").unwrap();
        let mut db = PhysicalDb::builder(&voc)
            .domain([0, 1])
            .constant(a, 0)
            .constant(b, 1)
            .relation_from_tuples(r, vec![vec![0, 1]])
            .build()
            .unwrap();
        assert_eq!(db.insert_tuple(r, &[1, 0]), Ok(true));
        assert_eq!(db.insert_tuple(r, &[1, 0]), Ok(false), "duplicate");
        assert!(db.relation(r).contains(&[1, 0]));
        assert_eq!(db.total_tuples(), 2);
        // The incremental result equals the built-from-scratch database.
        let rebuilt = PhysicalDb::builder(&voc)
            .domain([0, 1])
            .constant(a, 0)
            .constant(b, 1)
            .relation_from_tuples(r, vec![vec![0, 1], vec![1, 0]])
            .build()
            .unwrap();
        assert_eq!(db, rebuilt);
        // Validation matches the builder's.
        assert!(matches!(
            db.insert_tuple(r, &[0]),
            Err(PhysicalError::RelationArity { .. })
        ));
        assert!(matches!(
            db.insert_tuple(r, &[0, 9]),
            Err(PhysicalError::TupleOutsideDomain(..))
        ));
        assert_eq!(db.total_tuples(), 2, "failed inserts change nothing");
    }

    #[test]
    fn retain_and_set_relation() {
        let (voc, a, r) = voc();
        let b = voc.const_id("b").unwrap();
        let mut db = PhysicalDb::builder(&voc)
            .domain([0, 1])
            .constant(a, 0)
            .constant(b, 1)
            .relation_from_tuples(r, vec![vec![0, 1], vec![1, 0], vec![1, 1]])
            .build()
            .unwrap();
        assert_eq!(db.retain_tuples(r, |t| t[0] == 1), 1);
        assert_eq!(db.relation(r).len(), 2);
        db.set_relation(r, Relation::from_rows(2, [[0, 0]]))
            .unwrap();
        assert!(db.relation(r).contains(&[0, 0]));
        assert_eq!(db.relation(r).len(), 1);
        assert!(matches!(
            db.set_relation(r, Relation::empty(3)),
            Err(PhysicalError::RelationArity { .. })
        ));
        assert!(matches!(
            db.set_relation(r, Relation::from_rows(2, [[0, 9]])),
            Err(PhysicalError::TupleOutsideDomain(..))
        ));
    }

    #[test]
    fn with_relation_replaces() {
        let (voc, a, r) = voc();
        let b = voc.const_id("b").unwrap();
        let db = PhysicalDb::builder(&voc)
            .domain([0, 1])
            .constant(a, 0)
            .constant(b, 1)
            .build()
            .unwrap();
        let db2 = db.with_relation(r, Relation::from_rows(2, [[1, 1]]));
        assert!(db.relation(r).is_empty());
        assert!(db2.relation(r).contains(&[1, 1]));
    }
}
