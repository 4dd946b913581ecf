//! The canonical physical databases `Ph₁(LB)` (§3.1) and `Ph₂(LB)` (§3.2/§5).

use crate::theory::CwDatabase;
use qld_logic::{PredId, Vocabulary};
use qld_physical::{Elem, PhysicalDb, Relation};

/// Builds `Ph₁(LB)`: domain = the constant symbols themselves (element `i`
/// is `ConstId(i)`), each constant interpreted as itself, and
/// `I(P) = { c : P(c) ∈ T }`.
pub fn ph1(db: &CwDatabase) -> PhysicalDb {
    let n = db.num_consts() as Elem;
    let mut builder = PhysicalDb::builder(db.voc()).domain(0..n);
    for c in db.voc().consts() {
        builder = builder.constant(c, c.0);
    }
    for p in db.voc().preds() {
        builder = builder.relation(p, db.facts(p).clone());
    }
    builder
        .build()
        .expect("Ph1 of a valid CW database is always a valid interpretation")
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

/// The extended physical database `Ph₂(LB) = (L′, I)` of §3.2 and §5:
/// `L′ = L + NE`, with `I(NE) = { (cᵢ,cⱼ) : ¬(cᵢ=cⱼ) ∈ T }` and everything
/// else as in `Ph₁`.
#[derive(Debug, Clone)]
pub struct Ph2 {
    /// The extended vocabulary `L′` (the original `L` plus `NE`).
    pub voc: Vocabulary,
    /// The interpretation over `L′`.
    pub db: PhysicalDb,
    /// The id of the added `NE` predicate in `voc`.
    pub ne: PredId,
}

/// Builds `Ph₂(LB)`.
///
/// `NE` is stored *explicitly* here, faithful to §3.2 — which is quadratic
/// in `|C|` for mostly-known databases. The practical virtual
/// representation the paper closes §5 with lives in `qld-approx`.
pub fn ph2(db: &CwDatabase) -> Ph2 {
    let mut voc = db.voc().clone();
    let ne = voc.add_fresh_pred("NE", 2);
    let n = db.num_consts() as Elem;
    let mut builder = PhysicalDb::builder(&voc).domain(0..n);
    for c in voc.consts() {
        builder = builder.constant(c, c.0);
    }
    for p in db.voc().preds() {
        builder = builder.relation(p, db.facts(p).clone());
    }
    // NE is symmetric: the paper identifies ¬(cᵢ=cⱼ) with ¬(cⱼ=cᵢ).
    let ne_rel = Relation::from_rows(2, db.ne_pairs().iter().flat_map(|&(a, b)| [[a, b], [b, a]]));
    builder = builder.relation(ne, ne_rel);
    Ph2 {
        db: builder
            .build()
            .expect("Ph2 of a valid CW database is always a valid interpretation"),
        voc,
        ne,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::CwDatabase;
    use qld_logic::Vocabulary;

    fn sample() -> CwDatabase {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "c"]).unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        CwDatabase::builder(voc)
            .fact(r, &[ids[0], ids[1]])
            .fact(r, &[ids[1], ids[2]])
            .unique(ids[0], ids[1])
            .build()
            .unwrap()
    }

    #[test]
    fn ph1_is_identity_on_constants() {
        let db = sample();
        let pdb = ph1(&db);
        assert_eq!(pdb.domain(), &[0, 1, 2]);
        for c in db.voc().consts() {
            assert_eq!(pdb.const_val(c), c.0);
        }
        let r = db.voc().pred_id("R").unwrap();
        assert!(pdb.relation(r).contains(&[0, 1]));
        assert!(pdb.relation(r).contains(&[1, 2]));
        assert_eq!(pdb.relation(r).len(), 2);
    }

    #[test]
    fn apply_identity_mapping_is_ph1() {
        let db = sample();
        assert_eq!(apply_mapping(&db, &[0, 1, 2]), ph1(&db));
    }

    #[test]
    fn apply_collapsing_mapping() {
        let db = sample();
        // Merge c into b (allowed: only a≠b is an axiom).
        let pdb = apply_mapping(&db, &[0, 1, 1]);
        assert_eq!(pdb.domain(), &[0, 1]);
        let r = db.voc().pred_id("R").unwrap();
        assert!(pdb.relation(r).contains(&[0, 1]));
        assert!(pdb.relation(r).contains(&[1, 1]));
        assert_eq!(pdb.relation(r).len(), 2);
    }

    #[test]
    fn assign_mapped_image_matches_apply_mapping() {
        let db = sample();
        let base = ph1(&db);
        let mut image = base.clone();
        for h in [[0u32, 1, 2], [0, 1, 1], [0, 1, 0], [2, 0, 0]] {
            image.assign_mapped_image(&base, &h);
            assert_eq!(image, apply_mapping(&db, &h), "mapping {h:?}");
        }
    }

    #[test]
    fn ph2_has_symmetric_ne() {
        let db = sample();
        let ph2 = ph2(&db);
        assert_eq!(ph2.voc.pred_name(ph2.ne), "NE");
        let ne_rel = ph2.db.relation(ph2.ne);
        assert!(ne_rel.contains(&[0, 1]));
        assert!(ne_rel.contains(&[1, 0]));
        assert_eq!(ne_rel.len(), 2);
    }

    #[test]
    fn ph2_avoids_name_collision() {
        let mut voc = Vocabulary::new();
        voc.add_const("a").unwrap();
        voc.add_pred("NE", 2).unwrap(); // user already has an NE
        let db = CwDatabase::builder(voc).build().unwrap();
        let ph2 = ph2(&db);
        assert_eq!(ph2.voc.pred_name(ph2.ne), "NE_1");
    }
}
