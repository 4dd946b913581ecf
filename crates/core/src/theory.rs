//! The CW logical database: facts + uniqueness axioms (§2.2).

use qld_logic::{ConstId, PredId, Vocabulary};
use qld_physical::Relation;
use std::fmt;
use std::sync::Arc;

/// Errors raised when assembling a CW logical database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CwError {
    /// A fact was stated with the wrong number of arguments.
    FactArity {
        /// Predicate name.
        predicate: String,
        /// Declared arity.
        expected: usize,
        /// Number of arguments in the fact.
        found: usize,
    },
    /// A uniqueness axiom `¬(c = c)` about a single constant is
    /// unsatisfiable and therefore rejected.
    ReflexiveUniqueness(String),
    /// The vocabulary has no constants: §2.1 requires a nonempty domain,
    /// and the domain-closure axiom needs at least one constant.
    NoConstants,
    /// A delta mentioned a predicate id outside the vocabulary.
    UnknownPredicate(u32),
    /// A delta mentioned a constant id outside the vocabulary.
    UnknownConstant(u32),
}

impl fmt::Display for CwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CwError::FactArity {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "fact for {predicate} has {found} arguments, but the predicate has arity {expected}"
            ),
            CwError::ReflexiveUniqueness(c) => {
                write!(f, "uniqueness axiom {c} != {c} is unsatisfiable")
            }
            CwError::NoConstants => {
                write!(f, "a CW database needs at least one constant symbol")
            }
            CwError::UnknownPredicate(p) => {
                write!(f, "predicate id {p} is not in the vocabulary")
            }
            CwError::UnknownConstant(c) => {
                write!(f, "constant id {c} is not in the vocabulary")
            }
        }
    }
}

impl std::error::Error for CwError {}

/// A closed-world logical database `LB = (L, T)`.
///
/// Stores the two components that determine the theory (paper §2.2: "In
/// practice it suffices to specify the atomic fact axioms and the
/// uniqueness axioms, since this determines the domain closure axiom and
/// the completion axioms"):
///
/// * one fact relation per predicate (tuples of constants);
/// * the set of uniqueness axioms, as unordered pairs of distinct
///   constants.
///
/// If every pair of distinct constants has a uniqueness axiom the database
/// is *fully specified* — it represents no unknown values, and by
/// Corollary 2 behaves exactly like the physical database `Ph₁(LB)`.
///
/// Every part sits behind an `Arc`, so a clone shares the vocabulary, each
/// fact relation and the axiom list with its source (reference-count bumps,
/// no copy of any tuple), and [`CwDatabase::insert_fact`] /
/// [`CwDatabase::insert_ne`] copy on write exactly the one part they
/// change. A clone is therefore an immutable snapshot of the theory for as
/// long as it is kept — what `qld_engine::SharedEngine` publishes per epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CwDatabase {
    voc: Arc<Vocabulary>,
    /// Indexed by `PredId`; element `i` of a tuple is `ConstId(i)`.
    facts: Vec<Arc<Relation>>,
    /// Normalized `(lo, hi)` with `lo < hi`, sorted, deduplicated.
    ne_pairs: Arc<Vec<(u32, u32)>>,
}

// The concurrent serving layer (`qld_engine::SharedEngine`) shares
// databases across threads; keep that property compiler-enforced so a
// non-`Sync` field can never sneak in silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CwDatabase>();
};

impl CwDatabase {
    /// Starts building a database over the given vocabulary (which the
    /// database takes ownership of — the vocabulary *is* the `L` of
    /// `(L, T)`).
    pub fn builder(voc: Vocabulary) -> CwDatabaseBuilder {
        CwDatabaseBuilder::new(voc)
    }

    /// The vocabulary `L`.
    pub fn voc(&self) -> &Vocabulary {
        &self.voc
    }

    /// Number of constant symbols `|C|`.
    pub fn num_consts(&self) -> usize {
        self.voc.num_consts()
    }

    /// The fact relation of a predicate (tuples of `ConstId` indices).
    pub fn facts(&self, p: PredId) -> &Relation {
        &self.facts[p.index()]
    }

    /// All uniqueness axioms as normalized `(lo, hi)` constant pairs.
    pub fn ne_pairs(&self) -> &[(u32, u32)] {
        &self.ne_pairs
    }

    /// Is `¬(a = b)` an axiom of the theory?
    pub fn is_ne(&self, a: ConstId, b: ConstId) -> bool {
        if a == b {
            return false;
        }
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.ne_pairs.binary_search(&key).is_ok()
    }

    /// Number of uniqueness axioms.
    pub fn num_ne(&self) -> usize {
        self.ne_pairs.len()
    }

    /// Total number of atomic fact axioms.
    pub fn num_facts(&self) -> usize {
        self.facts.iter().map(|r| r.len()).sum()
    }

    /// True iff every pair of distinct constants carries a uniqueness
    /// axiom (§2.2's *fully specified* condition).
    pub fn is_fully_specified(&self) -> bool {
        let n = self.num_consts();
        self.ne_pairs.len() == n * (n - 1) / 2
    }

    /// For each constant, the number of uniqueness axioms it appears in.
    /// A constant with degree `|C| − 1` is distinguishable from every other
    /// constant; lower degrees indicate unknown identity.
    pub fn ne_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_consts()];
        for &(a, b) in self.ne_pairs.iter() {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        deg
    }

    /// Validates a fact delta without applying it: the predicate and every
    /// constant must exist and the arity must match. Used by
    /// [`CwDatabase::insert_fact`] and by callers that need all-or-nothing
    /// delta application (validate everything, then mutate).
    pub fn check_fact(&self, p: PredId, args: &[ConstId]) -> Result<(), CwError> {
        check_fact(&self.voc, p, args)
    }

    /// Validates a uniqueness-axiom delta without applying it.
    pub fn check_ne(&self, a: ConstId, b: ConstId) -> Result<(), CwError> {
        check_ne(&self.voc, a, b)
    }

    /// Adds one atomic fact axiom in place, returning `true` iff the fact
    /// was new. The incremental counterpart of
    /// [`CwDatabaseBuilder::fact`]: the resulting database is equal to one
    /// rebuilt from scratch with the fact included (property-tested in the
    /// delta differential suite). A new fact copies the predicate's
    /// relation first if a clone of this database still shares it; a
    /// duplicate copies nothing.
    pub fn insert_fact(&mut self, p: PredId, args: &[ConstId]) -> Result<bool, CwError> {
        self.check_fact(p, args)?;
        let tuple: Vec<u32> = args.iter().map(|c| c.0).collect();
        let facts = &mut self.facts[p.index()];
        Ok(!facts.contains(&tuple) && Arc::make_mut(facts).insert(&tuple))
    }

    /// Adds one uniqueness axiom `¬(a = b)` in place, returning `true` iff
    /// the axiom was new. The incremental counterpart of
    /// [`CwDatabaseBuilder::unique`] (same normalization: unordered pairs,
    /// deduplicated, kept sorted). Copy-on-write like
    /// [`CwDatabase::insert_fact`].
    pub fn insert_ne(&mut self, a: ConstId, b: ConstId) -> Result<bool, CwError> {
        self.check_ne(a, b)?;
        let key = (a.0.min(b.0), a.0.max(b.0));
        match self.ne_pairs.binary_search(&key) {
            Ok(_) => Ok(false),
            Err(pos) => {
                Arc::make_mut(&mut self.ne_pairs).insert(pos, key);
                Ok(true)
            }
        }
    }
}

/// The fact check shared by [`CwDatabase::check_fact`] and
/// [`CwDatabaseBuilder::fact`]: the predicate and every constant exist and
/// the arity matches.
fn check_fact(voc: &Vocabulary, p: PredId, args: &[ConstId]) -> Result<(), CwError> {
    if p.index() >= voc.num_preds() {
        return Err(CwError::UnknownPredicate(p.0));
    }
    let expected = voc.pred_arity(p);
    if args.len() != expected {
        return Err(CwError::FactArity {
            predicate: voc.pred_name(p).to_owned(),
            expected,
            found: args.len(),
        });
    }
    for c in args {
        if c.index() >= voc.num_consts() {
            return Err(CwError::UnknownConstant(c.0));
        }
    }
    Ok(())
}

/// The axiom check shared by [`CwDatabase::check_ne`] and the builder's
/// [`unique`](CwDatabaseBuilder::unique) and
/// [`pairwise_unique`](CwDatabaseBuilder::pairwise_unique): both
/// constants exist and differ.
fn check_ne(voc: &Vocabulary, a: ConstId, b: ConstId) -> Result<(), CwError> {
    for c in [a, b] {
        if c.index() >= voc.num_consts() {
            return Err(CwError::UnknownConstant(c.0));
        }
    }
    if a == b {
        return Err(CwError::ReflexiveUniqueness(voc.const_name(a).to_owned()));
    }
    Ok(())
}

/// Validating builder for [`CwDatabase`].
#[derive(Debug, Clone)]
pub struct CwDatabaseBuilder {
    voc: Vocabulary,
    /// Per predicate: how many facts were stated, and their arguments
    /// row-major (the count matters at arity 0, where rows are empty).
    facts: Vec<(usize, Vec<u32>)>,
    ne_pairs: Vec<(u32, u32)>,
    error: Option<CwError>,
}

impl CwDatabaseBuilder {
    fn new(voc: Vocabulary) -> Self {
        let num_preds = voc.num_preds();
        CwDatabaseBuilder {
            voc,
            facts: vec![(0, Vec::new()); num_preds],
            ne_pairs: Vec::new(),
            error: None,
        }
    }

    /// Adds an atomic fact axiom `P(c₁,…,cₖ)`.
    pub fn fact(mut self, p: PredId, args: &[ConstId]) -> Self {
        if self.error.is_some() {
            return self;
        }
        if let Err(e) = check_fact(&self.voc, p, args) {
            self.error = Some(e);
            return self;
        }
        let (rows, flat) = &mut self.facts[p.index()];
        *rows += 1;
        flat.extend(args.iter().map(|c| c.0));
        self
    }

    /// Adds a uniqueness axiom `¬(a = b)`.
    pub fn unique(mut self, a: ConstId, b: ConstId) -> Self {
        if self.error.is_some() {
            return self;
        }
        if let Err(e) = check_ne(&self.voc, a, b) {
            self.error = Some(e);
            return self;
        }
        self.ne_pairs.push((a.0.min(b.0), a.0.max(b.0)));
        self
    }

    /// Adds uniqueness axioms for *every* pair of distinct constants,
    /// making the database fully specified.
    pub fn fully_specified(mut self) -> Self {
        let n = self.voc.num_consts() as u32;
        for i in 0..n {
            for j in (i + 1)..n {
                self.ne_pairs.push((i, j));
            }
        }
        self
    }

    /// Adds uniqueness axioms for every pair of distinct constants drawn
    /// from `known` (a convenience for databases where most values are
    /// known and a few are nulls — the situation §5's virtual `NE`
    /// representation targets).
    pub fn pairwise_unique(mut self, known: &[ConstId]) -> Self {
        for (i, &a) in known.iter().enumerate() {
            for &b in &known[i + 1..] {
                self = self.unique(a, b);
            }
        }
        self
    }

    /// Finalizes the database.
    pub fn build(mut self) -> Result<CwDatabase, CwError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if self.voc.num_consts() == 0 {
            return Err(CwError::NoConstants);
        }
        self.ne_pairs.sort_unstable();
        self.ne_pairs.dedup();
        let facts = self
            .facts
            .into_iter()
            .enumerate()
            .map(|(i, (rows, flat))| {
                let arity = self.voc.pred_arity(PredId(i as u32));
                let rows = (0..rows).map(|r| &flat[r * arity..(r + 1) * arity]);
                Arc::new(Relation::from_rows(arity, rows))
            })
            .collect();
        Ok(CwDatabase {
            voc: Arc::new(self.voc),
            facts,
            ne_pairs: Arc::new(self.ne_pairs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn teaching_voc() -> Vocabulary {
        let mut voc = Vocabulary::new();
        voc.add_consts(["socrates", "plato", "aristotle"]).unwrap();
        voc.add_pred("TEACHES", 2).unwrap();
        voc
    }

    #[test]
    fn build_and_inspect() {
        let voc = teaching_voc();
        let s = voc.const_id("socrates").unwrap();
        let p = voc.const_id("plato").unwrap();
        let teaches = voc.pred_id("TEACHES").unwrap();
        let db = CwDatabase::builder(voc)
            .fact(teaches, &[s, p])
            .unique(s, p)
            .build()
            .unwrap();
        assert_eq!(db.num_facts(), 1);
        assert_eq!(db.num_ne(), 1);
        assert!(db.is_ne(s, p));
        assert!(db.is_ne(p, s));
        assert!(!db.is_ne(s, s));
        assert!(!db.is_fully_specified()); // aristotle unconstrained
    }

    #[test]
    fn fully_specified_flag() {
        let voc = teaching_voc();
        let db = CwDatabase::builder(voc).fully_specified().build().unwrap();
        assert!(db.is_fully_specified());
        assert_eq!(db.num_ne(), 3);
    }

    #[test]
    fn fact_arity_checked() {
        let voc = teaching_voc();
        let s = voc.const_id("socrates").unwrap();
        let teaches = voc.pred_id("TEACHES").unwrap();
        let err = CwDatabase::builder(voc)
            .fact(teaches, &[s])
            .build()
            .unwrap_err();
        assert!(matches!(err, CwError::FactArity { .. }));
    }

    #[test]
    fn builder_rejects_ids_outside_the_vocabulary() {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b"]).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        let build = |f: fn(CwDatabaseBuilder, PredId, &[ConstId]) -> CwDatabaseBuilder| {
            f(CwDatabase::builder(voc.clone()), p, &ids).build()
        };
        assert_eq!(
            build(|b, p, _| b.fact(p, &[ConstId(999)]).unique(ConstId(0), ConstId(77))),
            Err(CwError::UnknownConstant(999))
        );
        assert_eq!(
            build(|b, _, _| b.unique(ConstId(0), ConstId(77))),
            Err(CwError::UnknownConstant(77))
        );
        assert_eq!(
            build(|b, _, ids| b.pairwise_unique(&[ids[0], ids[1], ConstId(5)])),
            Err(CwError::UnknownConstant(5))
        );
        assert_eq!(
            build(|b, _, ids| b.fact(PredId(3), &ids[..1])),
            Err(CwError::UnknownPredicate(3))
        );
        assert!(build(|b, p, ids| b.fact(p, &ids[1..]).unique(ids[0], ids[1])).is_ok());
    }

    #[test]
    fn reflexive_uniqueness_rejected() {
        let voc = teaching_voc();
        let s = voc.const_id("socrates").unwrap();
        let err = CwDatabase::builder(voc).unique(s, s).build().unwrap_err();
        assert_eq!(err, CwError::ReflexiveUniqueness("socrates".into()));
    }

    #[test]
    fn no_constants_rejected() {
        let mut voc = Vocabulary::new();
        voc.add_pred("P", 1).unwrap();
        assert_eq!(
            CwDatabase::builder(voc).build().unwrap_err(),
            CwError::NoConstants
        );
    }

    #[test]
    fn duplicate_ne_pairs_deduped() {
        let voc = teaching_voc();
        let s = voc.const_id("socrates").unwrap();
        let p = voc.const_id("plato").unwrap();
        let db = CwDatabase::builder(voc)
            .unique(s, p)
            .unique(p, s)
            .build()
            .unwrap();
        assert_eq!(db.num_ne(), 1);
    }

    #[test]
    fn ne_degrees() {
        let voc = teaching_voc();
        let s = voc.const_id("socrates").unwrap();
        let p = voc.const_id("plato").unwrap();
        let a = voc.const_id("aristotle").unwrap();
        let db = CwDatabase::builder(voc)
            .unique(s, p)
            .unique(s, a)
            .build()
            .unwrap();
        assert_eq!(db.ne_degrees(), vec![2, 1, 1]);
    }

    #[test]
    fn incremental_inserts_match_rebuild() {
        let voc = teaching_voc();
        let s = voc.const_id("socrates").unwrap();
        let p = voc.const_id("plato").unwrap();
        let a = voc.const_id("aristotle").unwrap();
        let teaches = voc.pred_id("TEACHES").unwrap();
        let mut db = CwDatabase::builder(voc.clone())
            .fact(teaches, &[s, p])
            .unique(s, p)
            .build()
            .unwrap();
        assert_eq!(db.insert_fact(teaches, &[p, a]), Ok(true));
        assert_eq!(db.insert_fact(teaches, &[s, p]), Ok(false), "duplicate");
        assert_eq!(db.insert_ne(a, s), Ok(true));
        assert_eq!(db.insert_ne(s, a), Ok(false), "normalized duplicate");
        let rebuilt = CwDatabase::builder(voc)
            .fact(teaches, &[s, p])
            .fact(teaches, &[p, a])
            .unique(s, p)
            .unique(s, a)
            .build()
            .unwrap();
        assert_eq!(db, rebuilt);
        assert!(db.is_ne(a, s));
    }

    #[test]
    fn incremental_inserts_validate() {
        let voc = teaching_voc();
        let s = voc.const_id("socrates").unwrap();
        let teaches = voc.pred_id("TEACHES").unwrap();
        let mut db = CwDatabase::builder(voc).build().unwrap();
        assert!(matches!(
            db.insert_fact(teaches, &[s]),
            Err(CwError::FactArity { .. })
        ));
        assert_eq!(
            db.insert_fact(PredId(9), &[s, s]),
            Err(CwError::UnknownPredicate(9))
        );
        assert_eq!(
            db.insert_fact(teaches, &[s, ConstId(77)]),
            Err(CwError::UnknownConstant(77))
        );
        assert_eq!(
            db.insert_ne(s, s),
            Err(CwError::ReflexiveUniqueness("socrates".into()))
        );
        assert_eq!(
            db.insert_ne(s, ConstId(5)),
            Err(CwError::UnknownConstant(5))
        );
        assert_eq!(db.num_facts(), 0);
        assert_eq!(db.num_ne(), 0);
    }

    #[test]
    fn inserting_all_pairs_reaches_fully_specified() {
        let voc = teaching_voc();
        let ids: Vec<ConstId> = voc.consts().collect();
        let mut db = CwDatabase::builder(voc).build().unwrap();
        assert!(!db.is_fully_specified());
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                db.insert_ne(a, b).unwrap();
            }
        }
        assert!(db.is_fully_specified());
    }

    #[test]
    fn pairwise_unique_builder() {
        let voc = teaching_voc();
        let s = voc.const_id("socrates").unwrap();
        let p = voc.const_id("plato").unwrap();
        let db = CwDatabase::builder(voc)
            .pairwise_unique(&[s, p])
            .build()
            .unwrap();
        assert!(db.is_ne(s, p));
        assert_eq!(db.num_ne(), 1);
    }
}
