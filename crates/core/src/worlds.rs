//! Possible-worlds view of a CW logical database.
//!
//! "A logical database represents a set of possible physical databases,
//! i.e., all its finite models" (§2.1). This module exposes that set
//! directly: enumerate the worlds (one representative per isomorphism
//! class), count them, and bracket a query's answer between its certain
//! and possible tuples.

use crate::exact::{certain_answers, possible_answers};
use crate::mappings::{count_kernel_mappings, for_each_kernel_mapping};
use crate::ph::ph1;
use crate::theory::CwDatabase;
use qld_logic::{LogicError, Query};
use qld_physical::{PhysicalDb, Relation};

/// Invokes `visit` on one representative physical database per
/// isomorphism class of models of the theory (kernel-canonical images
/// `h(Ph₁(LB))`). Returns `false` iff `visit` stopped early.
///
/// Theorem 1's proof shows every model of `T` is such an image, and every
/// image is a model; one representative per kernel covers each model up
/// to isomorphism exactly once.
///
/// Every world is presented in one reusable image buffer (overwritten
/// between invocations of `visit` — clone it to keep a world).
pub fn for_each_world(db: &CwDatabase, mut visit: impl FnMut(&PhysicalDb) -> bool) -> bool {
    let base = ph1(db);
    let mut image = base.clone();
    for_each_kernel_mapping(db, |h| {
        image.assign_mapped_image(&base, h);
        visit(&image)
    })
}

/// Number of possible worlds up to isomorphism (Bell(|C|)-bounded;
/// exactly 1 for fully specified databases).
pub fn count_worlds(db: &CwDatabase) -> u64 {
    count_kernel_mappings(db)
}

/// The answer interval of a query: every model's answer set projects the
/// truth between these two relations (`certain ⊆ answer-in-any-world ⊆
/// possible`, component-wise on tuples of constants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerBounds {
    /// Tuples true in every world (`Q(LB)`).
    pub certain: Relation,
    /// Tuples true in at least one world.
    pub possible: Relation,
}

impl AnswerBounds {
    /// Tuples that are possible but not certain — the query's *uncertain*
    /// zone, empty exactly when the database fully determines the answer.
    pub fn uncertain(&self) -> Relation {
        let mut uncertain = self.possible.clone();
        uncertain.retain(|t| !self.certain.contains(t));
        uncertain
    }

    /// True iff every possible tuple is certain (the answer is fully
    /// determined despite any unknown values).
    pub fn is_determined(&self) -> bool {
        self.possible.len() == self.certain.len()
    }
}

/// Computes both ends of the answer interval.
pub fn answer_bounds(db: &CwDatabase, query: &Query) -> Result<AnswerBounds, LogicError> {
    Ok(AnswerBounds {
        certain: certain_answers(db, query)?,
        possible: possible_answers(db, query)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::parser::parse_query;
    use qld_logic::Vocabulary;

    fn teaching() -> CwDatabase {
        let mut voc = Vocabulary::new();
        let ids = voc
            .add_consts(["socrates", "plato", "aristotle", "mystery"])
            .unwrap();
        let teaches = voc.add_pred("TEACHES", 2).unwrap();
        CwDatabase::builder(voc)
            .fact(teaches, &[ids[0], ids[1]])
            .pairwise_unique(&ids[..3])
            .build()
            .unwrap()
    }

    #[test]
    fn world_count_matches_kernels() {
        let db = teaching();
        // mystery can be: itself, socrates, plato, or aristotle.
        assert_eq!(count_worlds(&db), 4);
        let mut n = 0;
        for_each_world(&db, |_| {
            n += 1;
            true
        });
        assert_eq!(n, 4);
    }

    #[test]
    fn fully_specified_has_one_world() {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b"]).unwrap();
        let db = CwDatabase::builder(voc).fully_specified().build().unwrap();
        assert_eq!(count_worlds(&db), 1);
    }

    #[test]
    fn bounds_bracket_the_answer() {
        let db = teaching();
        let q = parse_query(db.voc(), "(x) . TEACHES(socrates, x)").unwrap();
        let bounds = answer_bounds(&db, &q).unwrap();
        assert!(bounds.certain.is_subset_of(&bounds.possible));
        assert!(!bounds.is_determined());
        // The uncertain zone is exactly `mystery`.
        let uncertain = bounds.uncertain();
        assert_eq!(uncertain.len(), 1);
        assert!(uncertain.contains(&[3]));
    }

    #[test]
    fn determined_on_fully_specified() {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b"]).unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let db = CwDatabase::builder(voc)
            .fact(r, &[ids[0], ids[1]])
            .fully_specified()
            .build()
            .unwrap();
        let q = parse_query(db.voc(), "(x) . exists y. R(x, y)").unwrap();
        let bounds = answer_bounds(&db, &q).unwrap();
        assert!(bounds.is_determined());
        assert!(bounds.uncertain().is_empty());
    }

    #[test]
    fn early_exit_propagates() {
        let db = teaching();
        let mut n = 0;
        let done = for_each_world(&db, |_| {
            n += 1;
            n < 2
        });
        assert!(!done);
        assert_eq!(n, 2);
    }
}
