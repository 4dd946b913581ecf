//! The canonical physical database `Ph₁(LB)` (§3.1). `Ph₂(LB)` (§3.2/§5)
//! is built by `qld_approx::ApproxEngine`, the one place that evaluates
//! over it.

use crate::theory::CwDatabase;
use qld_physical::{Elem, PhysicalDb};

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

#[cfg(test)]
mod tests {
    use super::*;
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
}
