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
//!
//! One arm generates *guarded* shapes, `∃v. A(…v…) ∧ …`, which the lowering
//! miniscopes (conjuncts that do not mention `v` move out of the
//! quantifier) and turns into a scan of `A`'s rows that begin with the
//! bound prefix. It puts `v` first, in the middle and last, repeats it
//! (`P2(y, y)`), mixes constants into the guard, guards over empty
//! relations and over the arity-5 predicate, conjoins the nullary one
//! (always lifted), chains `∃y. ∃w.` as `qld_bench`'s `scaling` does,
//! reuses a name an outer binder or the head already holds, and conjoins
//! subformulas that do and do not mention `v`;
//! `the_guarded_arm_covers_every_shape` checks that it does. This
//! reference is the rule's only independent check: `qld_core::oracle`
//! evaluates through the same [`eval_query`].
//!
//! A second arm generates *head* shapes, which the lowering splits into
//! one group per head variable, each tested as soon as that variable is
//! bound: 0–4 head variables in a random order, and conjuncts over only
//! the first of them, only the last, none (true and false), all of them,
//! and conjuncts an `∃` block lifts out into a head group, in a random
//! body order; `the_head_arm_covers_every_shape` checks that it does.

#[macro_use]
#[path = "../../../tests/support/cases.rs"]
mod cases;

use qld_logic::{ConstId, Formula, PredId, PredVarId, Query, Term, Var, Vocabulary};
use qld_physical::{
    eval_query, Elem, Evaluator, LoweredQuery, PhysicalDb, QueryEvaluator, Relation, TupleSpace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
fn random_db(voc: &Vocabulary, rng: &mut StdRng) -> PhysicalDb {
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
    fn term(&self, rng: &mut StdRng) -> Term {
        if rng.gen_bool(0.25) {
            self.constant(rng)
        } else {
            Term::Var(Var(rng.gen_range(0..NUM_VARS)))
        }
    }

    fn terms(&self, arity: usize, rng: &mut StdRng) -> Vec<Term> {
        (0..arity).map(|_| self.term(rng)).collect()
    }

    fn leaf(&self, rng: &mut StdRng) -> Formula {
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

    /// `∃v. A(…v…) ∧ …`, or `∃v. ∃w. A(…v…) ∧ B(…w…) ∧ …` (the guard of
    /// `v` inside `∃w`, lifted out only by miniscoping): the guards, then
    /// maybe a second guard candidate, a nested guarded block, the nullary
    /// atom, an equality with `v` (kept in the quantifier, but no guard) or
    /// any subformula (which may or may not mention `v`), in a random
    /// order, sometimes nested in a second `∧`.
    fn guarded(&mut self, depth: usize, rng: &mut StdRng) -> Formula {
        let v = Var(rng.gen_range(0..NUM_VARS));
        let w = rng.gen_bool(0.4).then(|| Var(rng.gen_range(0..NUM_VARS)));
        let mut conjuncts = vec![self.guard(v, rng)];
        if let Some(w) = w {
            let mut inner = self.guard(w, rng);
            if let Formula::Atom(_, ts) = &mut inner {
                let at = rng.gen_range(0..ts.len());
                if ts[at] != Term::Var(w) && rng.gen_bool(0.5) {
                    ts[at] = Term::Var(v);
                }
            }
            conjuncts.push(inner);
        }
        for _ in 0..rng.gen_range(0..3) {
            conjuncts.push(match rng.gen_range(0..6) {
                0 => self.guard(v, rng),
                1 | 5 if depth > 1 => self.guarded(depth - 1, rng),
                2 => Formula::Atom(PredId(0), Box::new([])),
                3 => Formula::Eq(Term::Var(v), self.term(rng)),
                _ => self.formula(depth - 1, rng),
            });
        }
        let by = rng.gen_range(0..conjuncts.len());
        conjuncts.rotate_left(by);
        if conjuncts.len() > 2 && rng.gen_bool(0.3) {
            let inner = conjuncts.split_off(1);
            conjuncts.push(Formula::And(inner));
        }
        let body = Formula::And(conjuncts);
        let body = match w {
            Some(w) => Formula::Exists(w, Box::new(body)),
            None => body,
        };
        Formula::Exists(v, Box::new(body))
    }

    /// An atom of positive arity with `v` at its first, middle or last
    /// position, sometimes at a second one too; every other argument is a
    /// random term.
    fn guard(&self, v: Var, rng: &mut StdRng) -> Formula {
        let p = PredId(rng.gen_range(1..PRED_ARITIES.len() as u32));
        let arity = self.voc.pred_arity(p);
        let mut terms = self.terms(arity, rng);
        let at = [0, arity / 2, arity - 1][rng.gen_range(0usize..3)];
        terms[at] = Term::Var(v);
        if rng.gen_bool(0.3) {
            terms[rng.gen_range(0..arity)] = Term::Var(v);
        }
        Formula::Atom(p, terms.into())
    }

    /// A body for `head` made of the conjuncts the head loop groups: over
    /// the first head variable only, the last only, none (a sentence,
    /// true or false), all of them, one that `∃` miniscoping lifts out of
    /// a guarded block into a head group, and any subformula with its
    /// other free variables closed — some of these, in a random order,
    /// sometimes nested in a second `∧`.
    fn head_shaped(&mut self, head: &[Var], rng: &mut StdRng) -> Formula {
        let mut conjuncts = Vec::new();
        for _ in 0..rng.gen_range(1usize..5) {
            let over = match (rng.gen_range(0..6), head) {
                (0, [first, ..]) => vec![*first],
                (1, [.., last]) => vec![*last],
                (2, _) => Vec::new(),
                (3, _) => head.to_vec(),
                (4, _) => {
                    // `∃w. A(…w…) ∧ B`, `B` over head variables only: `B`
                    // leaves the block for a head group, and the block
                    // joins the group of the head variables its guard
                    // mentions, if any. `w` may shadow a head variable.
                    let w = Var(rng.gen_range(0..=NUM_VARS));
                    let outside: Vec<Var> = head.iter().copied().filter(|&v| v != w).collect();
                    let mut guard = self.guard(w, rng);
                    close(&mut guard, &[head, &[w]].concat(), rng);
                    let lifted = self.mentioning(&outside[..rng.gen_range(0..=outside.len())], rng);
                    conjuncts.push(Formula::Exists(
                        w,
                        Box::new(Formula::And(vec![guard, lifted])),
                    ));
                    continue;
                }
                _ => {
                    let mut f = self.formula(2, rng);
                    close(&mut f, head, rng);
                    conjuncts.push(f);
                    continue;
                }
            };
            conjuncts.push(self.mentioning(&over, rng));
        }
        for i in (1..conjuncts.len()).rev() {
            conjuncts.swap(i, rng.gen_range(0..=i));
        }
        if conjuncts.len() > 2 && rng.gen_bool(0.3) {
            let inner = conjuncts.split_off(1);
            conjuncts.push(Formula::And(inner));
        }
        Formula::And(conjuncts)
    }

    /// A formula that mentions exactly `vars` free: an atom with each of
    /// them somewhere and constants or `vars` elsewhere, maybe negated or
    /// in a disjunction with an equality; with no variables a sentence —
    /// `true`, `false`, the nullary atom, an equality of constants or a
    /// guarded `∃`.
    fn mentioning(&mut self, vars: &[Var], rng: &mut StdRng) -> Formula {
        if vars.is_empty() {
            return match rng.gen_range(0..5) {
                0 => Formula::True,
                1 => Formula::False,
                2 => Formula::Atom(PredId(0), Box::new([])),
                3 => Formula::Eq(self.constant(rng), self.constant(rng)),
                _ => {
                    let w = Var(rng.gen_range(0..NUM_VARS));
                    let mut guard = self.guard(w, rng);
                    close(&mut guard, &[], rng);
                    guard
                }
            };
        }
        let p = loop {
            let p = PredId(rng.gen_range(1..PRED_ARITIES.len() as u32));
            if self.voc.pred_arity(p) >= vars.len() {
                break p;
            }
        };
        let mut terms: Vec<Term> = (0..self.voc.pred_arity(p))
            .map(|_| match rng.gen_bool(0.3) {
                true => self.constant(rng),
                false => Term::Var(vars[rng.gen_range(0..vars.len())]),
            })
            .collect();
        let mut at: Vec<usize> = (0..terms.len()).collect();
        for (i, &v) in vars.iter().enumerate() {
            let j = rng.gen_range(i..at.len());
            at.swap(i, j);
            terms[at[i]] = Term::Var(v);
        }
        let atom = Formula::Atom(p, terms.into());
        match rng.gen_range(0..3) {
            0 => Formula::not(atom),
            1 => Formula::Or(vec![
                Formula::Eq(Term::Var(vars[0]), self.constant(rng)),
                atom,
            ]),
            _ => atom,
        }
    }

    fn constant(&self, rng: &mut StdRng) -> Term {
        Term::Const(ConstId(rng.gen_range(0..NUM_CONSTS)))
    }

    fn boxed(&mut self, depth: usize, rng: &mut StdRng) -> Box<Formula> {
        Box::new(self.formula(depth - 1, rng))
    }

    fn formula(&mut self, depth: usize, rng: &mut StdRng) -> Formula {
        if depth == 0 {
            return self.leaf(rng);
        }
        match rng.gen_range(0..14) {
            0 | 1 => self.leaf(rng),
            12 | 13 => self.guarded(depth, rng),
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

/// Binds every free variable of `f` outside `head` by an `∃` or a `∀`
/// around it.
fn close(f: &mut Formula, head: &[Var], rng: &mut StdRng) {
    for v in f.free_vars() {
        if !head.contains(&v) {
            let body = Box::new(std::mem::replace(f, Formula::True));
            *f = match rng.gen_bool(0.7) {
                true => Formula::Exists(v, body),
                false => Formula::Forall(v, body),
            };
        }
    }
}

/// One generated case: a database and a query over the test vocabulary.
#[derive(Clone)]
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

/// Failures report the case as it was generated: nothing to shrink.
impl cases::Case for Case {}

impl Case {
    fn generate(rng: &mut StdRng) -> Case {
        let voc = vocabulary();
        let db = random_db(&voc, rng);
        let mut gen = FormulaGen {
            voc: &voc,
            // 2^(|D|^k) relations per quantifier: binary ones only over
            // two elements.
            max_so_arity: if db.domain().len() <= 2 { 2 } else { 1 },
            so_scope: Vec::new(),
        };
        let (head, body) = if rng.gen_bool(0.25) {
            // The head arm: 0–4 head variables in a random order, then a
            // body shaped for them.
            let mut head: Vec<Var> = (0..NUM_VARS).map(Var).collect();
            for i in (1..head.len()).rev() {
                head.swap(i, rng.gen_range(0..=i));
            }
            head.truncate(rng.gen_range(0..=NUM_VARS as usize));
            let body = gen.head_shaped(&head, rng);
            (head, body)
        } else {
            let depth = rng.gen_range(0usize..=4);
            let body = gen.formula(depth, rng);
            // The head: the body's free variables in a random rotation,
            // and sometimes a variable the body never mentions free.
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
            (head, body)
        };
        body.check(&voc).unwrap();
        let query = Query::new(head, body).unwrap();
        Case { db, query }
    }
}

property! {
    /// `eval_query` (lower, then run) ≡ the reference.
    fn lowered_eval_query_matches_the_reference(case in Case::generate; 1500) {
        let expected = reference::eval_query(&case.db, &case.query);
        ensure_eq!(&eval_query(&case.db, &case.query), &expected, "eval_query");
        Ok(())
    }

    /// `Evaluator::bind` + `eval` ≡ the reference under the same bindings,
    /// for every assignment of the head variables.
    fn bound_evaluator_matches_the_reference(case in Case::generate; 1500) {
        let (db, body) = (&case.db, case.query.body());
        for row in TupleSpace::new(db.domain(), case.query.arity()) {
            let mut lowered = Evaluator::new(db, body);
            let mut env = reference::Env::for_formula(body);
            for (v, e) in case.query.head().iter().zip(&row) {
                lowered.bind(*v, *e);
                env.bind(*v, *e);
            }
            let expected = env.eval(db, body);
            ensure_eq!(lowered.eval(body), expected, "head = {row:?}");
            // The bindings survive an evaluation.
            ensure_eq!(lowered.eval(body), expected, "second eval, head = {row:?}");
        }
        Ok(())
    }
}

/// One [`QueryEvaluator`] across a whole run: every query over its own
/// database, then the previous case's lowered query over this database
/// and this query over the previous database — buffers sized by one
/// (query, database) pair must not leak into the next.
#[test]
fn one_query_evaluator_serves_every_database_and_query() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut evaluator = QueryEvaluator::default();
    let mut previous: Option<(Case, LoweredQuery)> = None;
    for _ in 0..1500 {
        let case = Case::generate(&mut rng);
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

/// How often the generator produced each guarded shape the module docs
/// list, counted over the `∃` blocks whose body — split at `∧`, and seen
/// through an inner `∃` of another name that is all of it — holds an atom
/// that mentions the bound variable.
#[derive(Debug, Default, Clone, Copy)]
struct GuardCoverage {
    first: usize,
    middle: usize,
    last: usize,
    repeated: usize,
    constant: usize,
    empty_relation: usize,
    arity_5: usize,
    nullary_lifted: usize,
    /// `∃v. ∃w.` with a guard of `v` in the inner body.
    chain: usize,
    /// An inner `∃` among the conjuncts that mentions `v`.
    nested: usize,
    shadowing: usize,
    lifted: usize,
    kept: usize,
}

impl GuardCoverage {
    /// One conjunct of a guarded `∃v` (of `∃v. ∃w.` when `inner` is `w`).
    fn conjunct(&mut self, db: &PhysicalDb, c: &Formula, v: Var, inner: Option<Var>) {
        let var = Term::Var(v);
        let free = c.free_vars();
        match c {
            Formula::Atom(p, ts) if ts.contains(&var) => {
                let arity = ts.len();
                let at = ts.iter().position(|t| *t == var).unwrap();
                if arity >= 2 {
                    self.first += usize::from(at == 0);
                    self.middle += usize::from(at > 0 && at + 1 < arity);
                    self.last += usize::from(at + 1 == arity);
                }
                let repeats = ts.iter().filter(|t| **t == var).count();
                self.repeated += usize::from(repeats > 1);
                let constants = ts.iter().any(|t| matches!(t, Term::Const(_)));
                self.constant += usize::from(constants);
                self.empty_relation += usize::from(db.relation(*p).is_empty());
                self.arity_5 += usize::from(arity == 5);
            }
            c if free.contains(&v) => {
                self.kept += 1;
                self.nested += usize::from(matches!(c, Formula::Exists(..)));
            }
            c if inner.is_none_or(|w| !free.contains(&w)) => {
                self.lifted += 1;
                let nullary = matches!(c, Formula::Atom(_, ts) if ts.is_empty());
                self.nullary_lifted += usize::from(nullary);
            }
            _ => {}
        }
    }

    fn visit(&mut self, db: &PhysicalDb, f: &Formula, bound: &mut Vec<Var>) {
        fn flatten<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
            match f {
                Formula::And(fs) => fs.iter().for_each(|g| flatten(g, out)),
                _ => out.push(f),
            }
        }
        match f {
            Formula::True | Formula::False => {}
            Formula::Atom(..) | Formula::SoAtom(..) | Formula::Eq(..) => {}
            Formula::Not(g) | Formula::SoExists(_, _, g) | Formula::SoForall(_, _, g) => {
                self.visit(db, g, bound)
            }
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| self.visit(db, g, bound)),
            Formula::Implies(p, q) | Formula::Iff(p, q) => {
                self.visit(db, p, bound);
                self.visit(db, q, bound);
            }
            Formula::Forall(v, g) => {
                bound.push(*v);
                self.visit(db, g, bound);
                bound.pop();
            }
            Formula::Exists(v, g) => {
                // `∃v. ∃w. …` is seen through to the inner body: the chain.
                let (body, inner) = match &**g {
                    Formula::Exists(w, inner) if w != v => (&**inner, Some(*w)),
                    _ => (&**g, None),
                };
                let mut conjuncts = Vec::new();
                flatten(body, &mut conjuncts);
                let var = Term::Var(*v);
                let guards = |c: &&Formula| matches!(c, Formula::Atom(_, ts) if ts.contains(&var));
                if conjuncts.iter().any(guards) {
                    self.shadowing += usize::from(bound.contains(v));
                    self.chain += usize::from(inner.is_some());
                    for c in &conjuncts {
                        self.conjunct(db, c, *v, inner);
                    }
                }
                bound.push(*v);
                self.visit(db, g, bound);
                bound.pop();
            }
        }
    }
}

/// The guarded arm produces every shape the module docs promise, many
/// times over, within the cases one property runs.
#[test]
fn the_guarded_arm_covers_every_shape() {
    let mut rng = StdRng::seed_from_u64(0x6a2d);
    let mut coverage = GuardCoverage::default();
    for _ in 0..1500 {
        let case = Case::generate(&mut rng);
        let mut bound = case.query.head().to_vec();
        coverage.visit(&case.db, case.query.body(), &mut bound);
    }
    let GuardCoverage {
        first,
        middle,
        last,
        repeated,
        constant,
        empty_relation,
        arity_5,
        nullary_lifted,
        chain,
        nested,
        shadowing,
        lifted,
        kept,
    } = coverage;
    let counts = [
        first,
        middle,
        last,
        repeated,
        constant,
        empty_relation,
        arity_5,
        nullary_lifted,
        chain,
        nested,
        shadowing,
        lifted,
        kept,
    ];
    assert!(counts.iter().all(|&n| n >= 20), "{coverage:?}");
}

/// How often the generator produced each head shape the module docs of
/// `eval.rs` group by, counted over the top-level conjuncts of every body
/// — split at `∧`, with the conjuncts an `∃` does not bind lifted out as
/// the lowering lifts them.
#[derive(Debug, Default, Clone, Copy)]
struct HeadCoverage {
    /// Cases by arity, 0–4.
    arity: [usize; 5],
    /// Bodies with a conjunct over an earlier head variable after one
    /// over a later head variable: the head loop tests them out of body
    /// order.
    reordered: usize,
    first_only: usize,
    last_only: usize,
    none_true: usize,
    none_false: usize,
    all: usize,
    /// Conjuncts lifted out of an `∃` block that mention a head variable.
    lifted: usize,
}

impl HeadCoverage {
    fn case(&mut self, case: &Case) {
        let head = case.query.head();
        self.arity[head.len().min(4)] += 1;
        let mut conjuncts = Vec::new();
        top_level(case.query.body(), false, &mut conjuncts);
        let mut levels = Vec::new();
        for (c, lifted) in conjuncts {
            let free = c.free_vars();
            let mentioned: Vec<&Var> = head.iter().filter(|v| free.contains(v)).collect();
            levels.extend(head.iter().rposition(|v| free.contains(v)));
            match mentioned[..] {
                [] if reference::Env::for_formula(c).eval(&case.db, c) => self.none_true += 1,
                [] => self.none_false += 1,
                _ if head.len() < 2 => {}
                [v] if v == &head[0] => self.first_only += 1,
                [v] if v == &head[head.len() - 1] => self.last_only += 1,
                _ if mentioned.len() == head.len() => self.all += 1,
                _ => {}
            }
            self.lifted += usize::from(lifted && !mentioned.is_empty());
        }
        self.reordered += usize::from(!levels.is_sorted());
    }
}

/// The top-level conjuncts of `f`, through `∧` and out of every `∃v` that
/// does not mention them, each with whether an `∃` lifted it.
fn top_level<'f>(f: &'f Formula, lifted: bool, out: &mut Vec<(&'f Formula, bool)>) {
    match f {
        Formula::And(fs) => fs.iter().for_each(|g| top_level(g, lifted, out)),
        Formula::Exists(v, g) => {
            let mut inner = Vec::new();
            top_level(g, true, &mut inner);
            let (bound, free): (Vec<_>, Vec<_>) = inner
                .into_iter()
                .partition(|(c, _)| c.free_vars().contains(v));
            out.extend(free);
            if !bound.is_empty() {
                out.push((f, lifted));
            }
        }
        _ => out.push((f, lifted)),
    }
}

/// The head arm produces every shape the head loop distinguishes, many
/// times over, within the cases one property runs.
#[test]
fn the_head_arm_covers_every_shape() {
    let mut rng = StdRng::seed_from_u64(0x4ead);
    let mut coverage = HeadCoverage::default();
    for _ in 0..1500 {
        coverage.case(&Case::generate(&mut rng));
    }
    let HeadCoverage {
        arity,
        reordered,
        first_only,
        last_only,
        none_true,
        none_false,
        all,
        lifted,
    } = coverage;
    let counts = [
        reordered, first_only, last_only, none_true, none_false, all, lifted,
    ];
    assert!(
        arity.iter().chain(&counts).all(|&n| n >= 20),
        "{coverage:?}"
    );
}
