//! Tarskian evaluation of queries over physical databases (§2.1).
//!
//! The evaluator is the textbook recursive one: first-order quantifiers
//! iterate over the domain, so a fixed first-order query is evaluated in
//! polynomial time and logarithmic space in the database — the
//! LOGSPACE data complexity of Theorem 4(1). Second-order quantifiers are
//! evaluated by enumerating all relations over the domain; this is
//! intentionally brutal, because the whole point of Theorem 3 is that the
//! precise simulation hides a second-order quantification whose cost is
//! exactly this enumeration.
//!
//! Evaluation allocates per query, not per tuple: an atom's arguments go
//! into one scratch row, [`eval_query`] steps the candidate space through
//! one reused row ([`TupleSpace::next_into`]) and pushes the answers
//! straight into a [`RowWriter`]. A [`QueryEvaluator`] keeps all of that
//! across calls, so evaluating over one database image after another (the
//! Theorem 1 walk) allocates only while a buffer still grows.

use crate::db::PhysicalDb;
use crate::relation::{Elem, Relation, RowWriter};
use crate::tuples::{for_each_relation, TupleSpace};
use qld_logic::{Formula, PredVarId, Query, Term, Var};

/// The variable environments and the scratch row of an evaluation —
/// everything but the database, so one state serves many databases.
#[derive(Default)]
struct Env {
    vars: Vec<Option<Elem>>,
    pred_vars: Vec<Option<Relation>>,
    /// Argument tuple of the atom under test.
    args: Vec<Elem>,
}

impl Env {
    /// Unbinds everything and sizes the environments for `formula`.
    fn reset_for(&mut self, formula: &Formula) {
        self.vars.clear();
        self.vars
            .resize(formula.max_var().map_or(0, |v| v.index() + 1), None);
        self.pred_vars.clear();
        self.pred_vars
            .resize(formula.max_pred_var().map_or(0, |r| r.index() + 1), None);
    }

    fn bind(&mut self, v: Var, e: Elem) {
        if v.index() >= self.vars.len() {
            self.vars.resize(v.index() + 1, None);
        }
        self.vars[v.index()] = Some(e);
    }

    /// Fills the scratch row with the values of `ts`.
    fn fill_args(&mut self, db: &PhysicalDb, ts: &[Term]) {
        let Env { vars, args, .. } = self;
        args.clear();
        args.extend(ts.iter().map(|t| term(vars, db, t)));
    }

    fn eval(&mut self, db: &PhysicalDb, f: &Formula) -> bool {
        match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(p, ts) => {
                self.fill_args(db, ts);
                db.relation(*p).contains(&self.args)
            }
            Formula::SoAtom(r, ts) => {
                self.fill_args(db, ts);
                self.pred_vars[r.index()]
                    .as_ref()
                    .expect("unbound predicate variable: formula must be checked")
                    .contains(&self.args)
            }
            Formula::Eq(a, b) => term(&self.vars, db, a) == term(&self.vars, db, b),
            Formula::Not(g) => !self.eval(db, g),
            Formula::And(fs) => fs.iter().all(|g| self.eval(db, g)),
            Formula::Or(fs) => fs.iter().any(|g| self.eval(db, g)),
            Formula::Implies(p, q) => !self.eval(db, p) || self.eval(db, q),
            Formula::Iff(p, q) => self.eval(db, p) == self.eval(db, q),
            Formula::Exists(v, g) => self.quantify(db, *v, g, true),
            Formula::Forall(v, g) => self.quantify(db, *v, g, false),
            Formula::SoExists(r, k, g) => self.so_quantify(db, *r, *k, g, true),
            Formula::SoForall(r, k, g) => self.so_quantify(db, *r, *k, g, false),
        }
    }

    fn quantify(&mut self, db: &PhysicalDb, v: Var, body: &Formula, existential: bool) -> bool {
        let saved = self.vars[v.index()];
        let mut result = !existential;
        for &e in db.domain() {
            self.vars[v.index()] = Some(e);
            if self.eval(db, body) == existential {
                result = existential;
                break;
            }
        }
        self.vars[v.index()] = saved;
        result
    }

    fn so_quantify(
        &mut self,
        db: &PhysicalDb,
        r: PredVarId,
        arity: usize,
        body: &Formula,
        existential: bool,
    ) -> bool {
        let saved = self.pred_vars[r.index()].take();
        let mut result = !existential;
        for_each_relation(db.domain(), arity, |rel| {
            self.pred_vars[r.index()] = Some(rel.clone());
            if self.eval(db, body) == existential {
                result = existential;
                false // early exit
            } else {
                true
            }
        });
        self.pred_vars[r.index()] = saved;
        result
    }
}

fn term(vars: &[Option<Elem>], db: &PhysicalDb, t: &Term) -> Elem {
    match t {
        Term::Var(v) => {
            vars[v.index()].expect("unbound variable: queries must be validated via Query::new")
        }
        Term::Const(c) => db.const_val(*c),
    }
}

/// Evaluation state: a physical database plus variable environments.
pub struct Evaluator<'a> {
    db: &'a PhysicalDb,
    env: Env,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator sized for `formula`.
    pub fn new(db: &'a PhysicalDb, formula: &Formula) -> Self {
        let mut env = Env::default();
        env.reset_for(formula);
        Evaluator { db, env }
    }

    /// Binds a free variable before evaluation (used for query answers).
    /// Grows the environment if the variable exceeds the body's variables
    /// (a head variable need not occur in the body).
    pub fn bind(&mut self, v: Var, e: Elem) {
        self.env.bind(v, e);
    }

    /// Evaluates a formula under the current environment.
    pub fn eval(&mut self, f: &Formula) -> bool {
        self.env.eval(self.db, f)
    }
}

/// Does the database satisfy the sentence?
///
/// # Panics
/// Panics if the formula has free (individual or predicate) variables; use
/// [`eval_query`] for open formulas.
pub fn satisfies(db: &PhysicalDb, sentence: &Formula) -> bool {
    debug_assert!(
        sentence.free_vars().is_empty(),
        "satisfies() requires a sentence"
    );
    Evaluator::new(db, sentence).eval(sentence)
}

/// Does the database satisfy every sentence?
pub fn satisfies_all<'a, I: IntoIterator<Item = &'a Formula>>(
    db: &PhysicalDb,
    sentences: I,
) -> bool {
    sentences.into_iter().all(|s| satisfies(db, s))
}

/// [`eval_query`] with its buffers kept: the environments, the candidate
/// row and the answer relation of one call are reused by the next, whatever
/// the query and the database. The Theorem 1 walk holds one per worker and
/// evaluates every query of a batch over every image through it.
pub struct QueryEvaluator {
    env: Env,
    /// The candidate tuple under test, and the odometer that steps it.
    row: Vec<Elem>,
    counters: Vec<usize>,
    answers: Relation,
}

impl Default for QueryEvaluator {
    /// An evaluator with empty buffers.
    fn default() -> Self {
        QueryEvaluator {
            env: Env::default(),
            row: Vec::new(),
            counters: Vec::new(),
            answers: Relation::empty(0),
        }
    }
}

impl QueryEvaluator {
    /// Computes `Q(PB)` as [`eval_query`] does. The result lives in this
    /// evaluator until the next call overwrites it.
    pub fn eval(&mut self, db: &PhysicalDb, query: &Query) -> &Relation {
        let (arity, head, body) = (query.arity(), query.head(), query.body());
        self.env.reset_for(body);
        self.row.clear();
        self.row.resize(arity, 0);
        let recycled = std::mem::replace(&mut self.answers, Relation::empty(arity));
        let mut answers = RowWriter::reusing(recycled, arity);
        let mut space = TupleSpace::reusing(db.domain(), arity, std::mem::take(&mut self.counters));
        while space.next_into(&mut self.row) {
            for (v, e) in head.iter().zip(&self.row) {
                self.env.bind(*v, *e);
            }
            if self.env.eval(db, body) {
                answers.push(&self.row);
            }
        }
        self.counters = space.into_counters();
        self.answers = answers.finish();
        &self.answers
    }
}

/// Computes the answer `Q(PB) = { d ∈ D^k : I ⊨ φ(d) }` of §2.1.
pub fn eval_query(db: &PhysicalDb, query: &Query) -> Relation {
    let mut evaluator = QueryEvaluator::default();
    evaluator.eval(db, query);
    evaluator.answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::parser::parse_query;
    use qld_logic::Vocabulary;

    /// A little family database: parent edges over {alice, bob, carol}.
    fn family() -> (Vocabulary, PhysicalDb) {
        let mut voc = Vocabulary::new();
        let alice = voc.add_const("alice").unwrap();
        let bob = voc.add_const("bob").unwrap();
        let carol = voc.add_const("carol").unwrap();
        let parent = voc.add_pred("PARENT", 2).unwrap();
        let db = PhysicalDb::builder(&voc)
            .domain([0, 1, 2])
            .constant(alice, 0)
            .constant(bob, 1)
            .constant(carol, 2)
            // alice -> bob -> carol
            .relation_from_tuples(parent, vec![vec![0, 1], vec![1, 2]])
            .build()
            .unwrap();
        (voc, db)
    }

    #[test]
    fn atom_and_equality() {
        let (voc, db) = family();
        let q = parse_query(&voc, "PARENT(alice, bob)").unwrap();
        assert!(satisfies(&db, q.body()));
        let q = parse_query(&voc, "PARENT(bob, alice)").unwrap();
        assert!(!satisfies(&db, q.body()));
        let q = parse_query(&voc, "alice = alice & alice != bob").unwrap();
        assert!(satisfies(&db, q.body()));
    }

    #[test]
    fn open_query_answers() {
        let (voc, db) = family();
        let q = parse_query(&voc, "(x) . exists y. PARENT(x, y)").unwrap();
        let ans = eval_query(&db, &q);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[0]));
        assert!(ans.contains(&[1]));
    }

    #[test]
    fn grandparent_join() {
        let (voc, db) = family();
        let q = parse_query(&voc, "(x, z) . exists y. PARENT(x, y) & PARENT(y, z)").unwrap();
        let ans = eval_query(&db, &q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[0, 2]));
    }

    #[test]
    fn universal_quantifier() {
        let (voc, db) = family();
        // Everything with a parent-child edge out has alice as ancestor?
        // Simpler: ∀x ∃y (PARENT(x,y) ∨ PARENT(y,x)) — connected graph.
        let q = parse_query(&voc, "forall x. exists y. PARENT(x, y) | PARENT(y, x)").unwrap();
        assert!(satisfies(&db, q.body()));
        let q = parse_query(&voc, "forall x. exists y. PARENT(x, y)").unwrap();
        assert!(!satisfies(&db, q.body())); // carol has no child
    }

    #[test]
    fn negation_and_implication() {
        let (voc, db) = family();
        let q = parse_query(&voc, "(x) . !PARENT(x, bob)").unwrap();
        let ans = eval_query(&db, &q);
        assert_eq!(ans.len(), 2); // everyone but alice
        assert!(!ans.contains(&[0]));
        let q = parse_query(&voc, "forall x, y. PARENT(x, y) -> x != y").unwrap();
        assert!(satisfies(&db, q.body()));
    }

    #[test]
    fn boolean_query_zero_arity_answer() {
        let (voc, db) = family();
        let q = parse_query(&voc, "exists x. PARENT(alice, x)").unwrap();
        let ans = eval_query(&db, &q);
        assert_eq!(ans.arity(), 0);
        assert_eq!(ans.len(), 1); // "yes"
        let q = parse_query(&voc, "exists x. PARENT(x, alice)").unwrap();
        let ans = eval_query(&db, &q);
        assert!(ans.is_empty()); // "no"
    }

    #[test]
    fn second_order_exists_transitive_superset() {
        let (voc, db) = family();
        // There is a binary relation containing PARENT that is transitive
        // and relates alice to carol.
        let q = parse_query(
            &voc,
            "exists2 ?T:2. (forall x, y. PARENT(x, y) -> ?T(x, y)) \
             & (forall x, y, z. ?T(x, y) & ?T(y, z) -> ?T(x, z)) \
             & ?T(alice, carol)",
        )
        .unwrap();
        assert!(satisfies(&db, q.body()));
    }

    #[test]
    fn second_order_forall() {
        let (voc, db) = family();
        // Every unary set containing alice's children contains bob.
        let q = parse_query(
            &voc,
            "forall2 ?S:1. (forall x. PARENT(alice, x) -> ?S(x)) -> ?S(bob)",
        )
        .unwrap();
        assert!(satisfies(&db, q.body()));
        // ... but not carol.
        let q = parse_query(
            &voc,
            "forall2 ?S:1. (forall x. PARENT(alice, x) -> ?S(x)) -> ?S(carol)",
        )
        .unwrap();
        assert!(!satisfies(&db, q.body()));
    }

    #[test]
    fn shadowed_variable_scoping() {
        let (voc, db) = family();
        // exists x. PARENT(alice,x) & exists x. PARENT(x,carol):
        // the two x's are independent.
        let q = parse_query(
            &voc,
            "(exists x. PARENT(alice, x)) & (exists x. PARENT(x, carol))",
        )
        .unwrap();
        assert!(satisfies(&db, q.body()));
    }

    #[test]
    fn nnf_preserves_semantics_spot_check() {
        let (voc, db) = family();
        let inputs = [
            "forall x. !(exists y. PARENT(x, y) & !PARENT(y, x))",
            "!(forall x. PARENT(x, x) <-> exists y. PARENT(x, y))",
            "(forall y. PARENT(alice, y)) -> (exists z. PARENT(z, z))",
        ];
        for input in inputs {
            let q = parse_query(&voc, input).unwrap();
            let nnf = qld_logic::nnf::to_nnf(q.body());
            assert_eq!(
                satisfies(&db, q.body()),
                satisfies(&db, &nnf),
                "NNF changed semantics of {input}"
            );
        }
    }
}
