//! Differential test of the evaluator: a query lowered once and run
//! ([`eval_query`], [`QueryEvaluator`], [`Evaluator`]) must agree with the
//! textbook recursive interpreter of [`Formula`] — the evaluator the product
//! shipped before it lowered queries, kept here as the reference — on
//! random first- and second-order formulas over random databases of at
//! most four elements.
//!
//! The generator aims at what a lowering can get wrong: binders that
//! shadow one another (four variable names, two predicate-variable names),
//! head variables the body never mentions, constants (slots behind the
//! variables), nullary and arity-5 predicates (the inline/wide argument
//! boundary), `<->` and `->`, empty `&`/`|`, and one [`QueryEvaluator`]
//! carried across every database and query of a run.

use proptest::prelude::*;
use qld_logic::{ConstId, Formula, PredId, PredVarId, Query, Term, Var, Vocabulary};
use qld_physical::{
    eval_query, Elem, Evaluator, LoweredQuery, PhysicalDb, QueryEvaluator, Relation, TupleSpace,
};
use rand::Rng;

/// The reference: Tarskian satisfaction by recursion on the formula, with
/// optional bindings that panic when read unbound.
mod reference {
    use qld_logic::{Formula, PredVarId, Query, Term, Var};
    use qld_physical::tuples::for_each_relation;
    use qld_physical::{Elem, PhysicalDb, Relation, RowWriter, TupleSpace};

    pub struct Env {
        vars: Vec<Option<Elem>>,
        pred_vars: Vec<Option<Relation>>,
    }

    impl Env {
        pub fn for_formula(formula: &Formula) -> Env {
            Env {
                vars: vec![None; formula.max_var().map_or(0, |v| v.index() + 1)],
                pred_vars: vec![None; formula.max_pred_var().map_or(0, |r| r.index() + 1)],
            }
        }

        pub fn bind(&mut self, v: Var, e: Elem) {
            if v.index() >= self.vars.len() {
                self.vars.resize(v.index() + 1, None);
            }
            self.vars[v.index()] = Some(e);
        }

        fn term(&self, db: &PhysicalDb, t: &Term) -> Elem {
            match t {
                Term::Var(v) => self.vars[v.index()].expect("unbound variable"),
                Term::Const(c) => db.const_val(*c),
            }
        }

        fn args(&self, db: &PhysicalDb, ts: &[Term]) -> Vec<Elem> {
            ts.iter().map(|t| self.term(db, t)).collect()
        }

        pub fn eval(&mut self, db: &PhysicalDb, f: &Formula) -> bool {
            match f {
                Formula::True => true,
                Formula::False => false,
                Formula::Atom(p, ts) => db.relation(*p).contains(&self.args(db, ts)),
                Formula::SoAtom(r, ts) => self.pred_vars[r.index()]
                    .as_ref()
                    .expect("unbound predicate variable")
                    .contains(&self.args(db, ts)),
                Formula::Eq(a, b) => self.term(db, a) == self.term(db, b),
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
                    false
                } else {
                    true
                }
            });
            self.pred_vars[r.index()] = saved;
            result
        }
    }

    /// `Q(PB)` by binding the head to every tuple of `Dᵏ`.
    pub fn eval_query(db: &PhysicalDb, query: &Query) -> Relation {
        let mut env = Env::for_formula(query.body());
        let mut row = vec![0; query.arity()];
        let mut answers = RowWriter::new(query.arity());
        let mut space = TupleSpace::new(db.domain(), query.arity());
        while space.next_into(&mut row) {
            for (v, e) in query.head().iter().zip(&row) {
                env.bind(*v, *e);
            }
            if env.eval(db, query.body()) {
                answers.push(&row);
            }
        }
        answers.finish()
    }
}

/// Predicate arities of the test vocabulary: nullary through the first
/// arity whose arguments no longer fit the lowering's inline slots.
const PRED_ARITIES: [usize; 5] = [0, 1, 2, 3, 5];
const NUM_CONSTS: u32 = 3;
/// Few names, so that binders shadow one another and head variables.
const NUM_VARS: u32 = 4;
const NUM_PRED_VARS: u32 = 2;

fn vocabulary() -> Vocabulary {
    let mut voc = Vocabulary::new();
    for c in 0..NUM_CONSTS {
        voc.add_const(&format!("c{c}")).unwrap();
    }
    for (i, arity) in PRED_ARITIES.iter().enumerate() {
        voc.add_pred(&format!("P{i}"), *arity).unwrap();
    }
    voc
}

/// A database over 1–4 elements (not necessarily `0..n`): random constant
/// values and, per predicate, a random subset of `Dᵏ`.
fn random_db(voc: &Vocabulary, rng: &mut TestRunner) -> PhysicalDb {
    let size = rng.gen_range(1usize..=4);
    let mut domain: Vec<Elem> = Vec::new();
    while domain.len() < size {
        let e = rng.gen_range(0..9);
        if !domain.contains(&e) {
            domain.push(e);
        }
    }
    domain.sort_unstable();
    let mut builder = PhysicalDb::builder(voc).domain(domain.iter().copied());
    for c in voc.consts() {
        builder = builder.constant(c, domain[rng.gen_range(0..size)]);
    }
    for p in voc.preds() {
        let arity = voc.pred_arity(p);
        let density = [0.0, 0.2, 0.5, 0.9][rng.gen_range(0usize..4)];
        let rows = TupleSpace::new(&domain, arity).select(|_| rng.gen_bool(density));
        builder = builder.relation(p, rows);
    }
    builder.build().unwrap()
}

/// Generates checked formulas: a predicate-variable atom only below a
/// binder of its name, with that binder's arity.
struct FormulaGen<'a> {
    voc: &'a Vocabulary,
    /// Largest second-order arity the database's domain lets
    /// `for_each_relation` enumerate in reasonable time.
    max_so_arity: usize,
    /// The predicate variables in scope, innermost last.
    so_scope: Vec<(PredVarId, usize)>,
}

impl FormulaGen<'_> {
    fn term(&self, rng: &mut TestRunner) -> Term {
        if rng.gen_bool(0.25) {
            Term::Const(ConstId(rng.gen_range(0..NUM_CONSTS)))
        } else {
            Term::Var(Var(rng.gen_range(0..NUM_VARS)))
        }
    }

    fn terms(&self, arity: usize, rng: &mut TestRunner) -> Vec<Term> {
        (0..arity).map(|_| self.term(rng)).collect()
    }

    fn leaf(&self, rng: &mut TestRunner) -> Formula {
        match rng.gen_range(0..8) {
            0 => Formula::True,
            1 => Formula::False,
            2 => Formula::Eq(self.term(rng), self.term(rng)),
            3 if !self.so_scope.is_empty() => {
                // Any binder in scope; the innermost of its name decides
                // the arity.
                let (r, _) = self.so_scope[rng.gen_range(0..self.so_scope.len())];
                let (_, arity) = *self.so_scope.iter().rev().find(|(id, _)| *id == r).unwrap();
                Formula::SoAtom(r, self.terms(arity, rng).into())
            }
            _ => {
                let p = PredId(rng.gen_range(0..PRED_ARITIES.len() as u32));
                Formula::Atom(p, self.terms(self.voc.pred_arity(p), rng).into())
            }
        }
    }

    fn boxed(&mut self, depth: usize, rng: &mut TestRunner) -> Box<Formula> {
        Box::new(self.formula(depth - 1, rng))
    }

    fn formula(&mut self, depth: usize, rng: &mut TestRunner) -> Formula {
        if depth == 0 {
            return self.leaf(rng);
        }
        match rng.gen_range(0..12) {
            0 | 1 => self.leaf(rng),
            2 => Formula::Not(self.boxed(depth, rng)),
            3 | 4 => {
                let n = rng.gen_range(0usize..4);
                let parts = (0..n).map(|_| self.formula(depth - 1, rng)).collect();
                if rng.gen_bool(0.5) {
                    Formula::And(parts)
                } else {
                    Formula::Or(parts)
                }
            }
            5 => Formula::Implies(self.boxed(depth, rng), self.boxed(depth, rng)),
            6 => Formula::Iff(self.boxed(depth, rng), self.boxed(depth, rng)),
            7 | 8 => Formula::Exists(Var(rng.gen_range(0..NUM_VARS)), self.boxed(depth, rng)),
            9 | 10 => Formula::Forall(Var(rng.gen_range(0..NUM_VARS)), self.boxed(depth, rng)),
            _ => {
                let r = PredVarId(rng.gen_range(0..NUM_PRED_VARS));
                let arity = rng.gen_range(0..=self.max_so_arity);
                self.so_scope.push((r, arity));
                let body = self.boxed(depth, rng);
                self.so_scope.pop();
                if rng.gen_bool(0.5) {
                    Formula::SoExists(r, arity, body)
                } else {
                    Formula::SoForall(r, arity, body)
                }
            }
        }
    }
}

/// One generated case: a database and a query over the test vocabulary.
struct Case {
    db: PhysicalDb,
    query: Query,
}

/// A failure report a person can read: relations past 40 rows (the
/// arity-5 one holds up to 1,024) print as a row count.
impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let voc = vocabulary();
        write!(f, "{:?} over D = {:?}", self.query, self.db.domain())?;
        for c in voc.consts() {
            write!(f, ", c{} = {}", c.index(), self.db.const_val(c))?;
        }
        for p in voc.preds() {
            match self.db.relation(p) {
                rel if rel.len() <= 40 => write!(f, ", P{} = {rel:?}", p.index())?,
                rel => write!(f, ", P{} = {} rows", p.index(), rel.len())?,
            }
        }
        Ok(())
    }
}

impl Case {
    /// Can `other`'s query run over this case's database? Not when it
    /// quantifies over binary relations and the domain is past two.
    fn can_run(&self, other: &Case) -> bool {
        fn binary_so(f: &Formula) -> bool {
            match f {
                Formula::True | Formula::False => false,
                Formula::Atom(..) | Formula::SoAtom(..) | Formula::Eq(..) => false,
                Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => binary_so(g),
                Formula::And(fs) | Formula::Or(fs) => fs.iter().any(binary_so),
                Formula::Implies(p, q) | Formula::Iff(p, q) => binary_so(p) || binary_so(q),
                Formula::SoExists(_, k, g) | Formula::SoForall(_, k, g) => *k > 1 || binary_so(g),
            }
        }
        self.db.domain().len() <= 2 || !binary_so(other.query.body())
    }
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRunner) -> Case {
        let voc = vocabulary();
        let db = random_db(&voc, rng);
        let mut gen = FormulaGen {
            voc: &voc,
            // 2^(|D|^k) relations per quantifier: binary ones only over
            // two elements.
            max_so_arity: if db.domain().len() <= 2 { 2 } else { 1 },
            so_scope: Vec::new(),
        };
        let depth = rng.gen_range(0usize..=4);
        let body = gen.formula(depth, rng);
        body.check(&voc).unwrap();
        // The head: the body's free variables in a random rotation, and
        // sometimes a variable the body never mentions free.
        let mut head = body.free_vars();
        if !head.is_empty() {
            let by = rng.gen_range(0..head.len());
            head.rotate_left(by);
        }
        if rng.gen_bool(0.3) {
            let extra = Var(rng.gen_range(0..NUM_VARS + 2));
            if !head.contains(&extra) {
                head.push(extra);
            }
        }
        let query = Query::new(head, body).unwrap();
        Case { db, query }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// `eval_query` (lower, then run) ≡ the reference.
    #[test]
    fn lowered_eval_query_matches_the_reference(case in Cases) {
        let expected = reference::eval_query(&case.db, &case.query);
        prop_assert_eq!(&eval_query(&case.db, &case.query), &expected, "{:?}", case);
    }

    /// `Evaluator::bind` + `eval` ≡ the reference under the same bindings,
    /// for every assignment of the head variables.
    #[test]
    fn bound_evaluator_matches_the_reference(case in Cases) {
        let (db, body) = (&case.db, case.query.body());
        for row in TupleSpace::new(db.domain(), case.query.arity()) {
            let mut lowered = Evaluator::new(db, body);
            let mut env = reference::Env::for_formula(body);
            for (v, e) in case.query.head().iter().zip(&row) {
                lowered.bind(*v, *e);
                env.bind(*v, *e);
            }
            let expected = env.eval(db, body);
            prop_assert_eq!(lowered.eval(body), expected, "head = {:?} in {:?}", row, case);
            // The bindings survive an evaluation.
            prop_assert_eq!(lowered.eval(body), expected, "second eval, {:?}", case);
        }
    }
}

/// One [`QueryEvaluator`] across a whole run: every query over its own
/// database, then the previous case's lowered query over this database
/// and this query over the previous database — buffers sized by one
/// (query, database) pair must not leak into the next.
#[test]
fn one_query_evaluator_serves_every_database_and_query() {
    let mut rng: TestRunner = rand::SeedableRng::seed_from_u64(0x5eed);
    let mut evaluator = QueryEvaluator::default();
    let mut previous: Option<(Case, LoweredQuery)> = None;
    for _ in 0..1500 {
        let case = Cases.generate(&mut rng);
        let lowered = LoweredQuery::new(&case.query);
        assert_eq!(lowered.arity(), case.query.arity());
        let expected: Relation = reference::eval_query(&case.db, &case.query);
        assert_eq!(evaluator.eval(&case.db, &lowered), &expected, "{case:?}");
        if let Some((before, lowered_before)) = &previous {
            if !(case.can_run(before) && before.can_run(&case)) {
                previous = Some((case, lowered));
                continue;
            }
            assert_eq!(
                evaluator.eval(&case.db, lowered_before),
                &reference::eval_query(&case.db, &before.query),
                "{:?} over the database of {case:?}",
                before.query
            );
            assert_eq!(
                evaluator.eval(&before.db, &lowered),
                &reference::eval_query(&before.db, &case.query),
                "{:?} over the database of {before:?}",
                case.query
            );
        }
        previous = Some((case, lowered));
    }
}
