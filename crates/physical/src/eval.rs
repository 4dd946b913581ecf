//! Tarskian evaluation of queries over physical databases (§2.1).
//!
//! The semantics are the textbook recursive ones: first-order quantifiers
//! iterate over the domain, so a fixed first-order query is evaluated in
//! polynomial time and logarithmic space in the database — the
//! LOGSPACE data complexity of Theorem 4(1). Second-order quantifiers are
//! evaluated by enumerating all relations over the domain; this is
//! intentionally brutal, because the whole point of Theorem 3 is that the
//! precise simulation hides a second-order quantification whose cost is
//! exactly this enumeration.
//!
//! # Lower once, run per database
//!
//! Nothing here interprets a [`Formula`] while it evaluates. A query is
//! *lowered* once ([`LoweredQuery::new`]) into a tree whose leaves name
//! *slots* of one flat value array: slot `i` below the variable count is
//! the variable `Var(i)`, the slots behind them hold the query's constant
//! symbols. Running the tree over a database first loads the constants'
//! values into their slots — once per database, not once per term — and
//! then an atom is one [`Relation::contains_mapped`] (its argument slots
//! gathered through the array into a row on the stack, up to arity 4, and
//! searched for), an equality is two loads, a quantifier writes the
//! domain's elements into its slot, in domain order, and restores what was
//! there. Connectives short-circuit left to right. The environment's sizes
//! are fixed by the lowering, so a run never grows it, and the two leaves
//! that carry a walk (atoms, equalities) are decided without a call.
//!
//! [`eval_query`], [`Evaluator`] and [`satisfies`] lower and run in one
//! call. A [`QueryEvaluator`] runs an already lowered query and keeps its
//! buffers across calls — the slots, the candidate row
//! ([`TupleSpace::next_into`]) and the answer relation ([`RowWriter`]) — so
//! evaluating one lowered query over one database image after another (the
//! Theorem 1 walk, which lowers each query of a batch once and shares it
//! among its workers) allocates only while a buffer still grows.
//!
//! The recursive interpreter this replaced lives on as the reference of
//! `tests/eval_differential.rs`.

use crate::db::PhysicalDb;
use crate::relation::{Elem, Relation, RowWriter};
use crate::tuples::{for_each_relation, TupleSpace};
use qld_logic::{ConstId, Formula, PredId, Query, Term, Var};

/// Index of a value slot of a [`Frame`]. As wide as an [`Elem`], so that
/// an atom's slots are the tuple [`Relation::contains_mapped`] maps.
type Slot = Elem;

/// Atoms up to this arity keep their argument slots inline.
const INLINE_ARGS: usize = 4;

/// The slots an atom's argument tuple is read from.
enum Args {
    /// The first `len` of these slots.
    Inline { len: u8, slots: [Slot; INLINE_ARGS] },
    /// An atom wider than [`INLINE_ARGS`].
    Wide(Box<[Slot]>),
}

impl Args {
    /// Is the argument tuple, read off `values`, a row of `rel`?
    #[inline]
    fn in_relation(&self, rel: &Relation, values: &[Elem]) -> bool {
        let slots = match self {
            Args::Inline { len, slots } => &slots[..usize::from(*len)],
            Args::Wide(slots) => slots,
        };
        rel.contains_mapped(slots, |slot| values[slot as usize])
    }
}

/// A lowered formula: [`Formula`] with every symbol resolved to an index.
enum Node {
    True,
    False,
    Atom(PredId, Args),
    /// An atom over the predicate variable in this [`Frame::pred_vars`]
    /// slot.
    SoAtom(usize, Args),
    Eq(Slot, Slot),
    Not(Box<Node>),
    And(Box<[Node]>),
    Or(Box<[Node]>),
    Implies(Box<[Node; 2]>),
    Iff(Box<[Node; 2]>),
    Quantify {
        slot: Slot,
        existential: bool,
        body: Box<Node>,
    },
    SoQuantify {
        pred_var: usize,
        arity: usize,
        existential: bool,
        body: Box<Node>,
    },
}

/// A lowered formula with the shape of the environment it runs in.
struct Program {
    root: Node,
    /// Slots `..num_vars` are the variables, by index.
    num_vars: usize,
    /// Slot `num_vars + i` holds the value of `consts[i]`.
    consts: Vec<ConstId>,
    num_pred_vars: usize,
}

impl Program {
    /// Lowers `formula` for an environment of at least `min_vars`
    /// variables (head variables need not occur in the body).
    fn lower(formula: &Formula, min_vars: usize) -> Program {
        let mut program = Program {
            root: Node::True,
            num_vars: min_vars.max(formula.max_var().map_or(0, |v| v.index() + 1)),
            consts: Vec::new(),
            num_pred_vars: formula.max_pred_var().map_or(0, |r| r.index() + 1),
        };
        program.root = program.node(formula);
        program
    }

    fn node(&mut self, f: &Formula) -> Node {
        match f {
            Formula::True => Node::True,
            Formula::False => Node::False,
            Formula::Atom(p, ts) => Node::Atom(*p, self.args(ts)),
            Formula::SoAtom(r, ts) => Node::SoAtom(r.index(), self.args(ts)),
            Formula::Eq(a, b) => Node::Eq(self.slot(a), self.slot(b)),
            Formula::Not(g) => Node::Not(Box::new(self.node(g))),
            Formula::And(fs) => Node::And(fs.iter().map(|g| self.node(g)).collect()),
            Formula::Or(fs) => Node::Or(fs.iter().map(|g| self.node(g)).collect()),
            Formula::Implies(p, q) => Node::Implies(self.pair(p, q)),
            Formula::Iff(p, q) => Node::Iff(self.pair(p, q)),
            Formula::Exists(v, g) | Formula::Forall(v, g) => Node::Quantify {
                slot: var_slot(*v),
                existential: matches!(f, Formula::Exists(..)),
                body: Box::new(self.node(g)),
            },
            Formula::SoExists(r, k, g) | Formula::SoForall(r, k, g) => Node::SoQuantify {
                pred_var: r.index(),
                arity: *k,
                existential: matches!(f, Formula::SoExists(..)),
                body: Box::new(self.node(g)),
            },
        }
    }

    fn pair(&mut self, p: &Formula, q: &Formula) -> Box<[Node; 2]> {
        Box::new([self.node(p), self.node(q)])
    }

    fn args(&mut self, ts: &[Term]) -> Args {
        if ts.len() <= INLINE_ARGS {
            let mut slots = [0; INLINE_ARGS];
            for (slot, t) in slots.iter_mut().zip(ts) {
                *slot = self.slot(t);
            }
            Args::Inline {
                len: ts.len() as u8,
                slots,
            }
        } else {
            Args::Wide(ts.iter().map(|t| self.slot(t)).collect())
        }
    }

    fn slot(&mut self, t: &Term) -> Slot {
        match t {
            Term::Var(v) => var_slot(*v),
            Term::Const(c) => {
                let known = self.consts.iter().position(|k| k == c);
                let i = known.unwrap_or_else(|| {
                    self.consts.push(*c);
                    self.consts.len() - 1
                });
                (self.num_vars + i) as Slot
            }
        }
    }
}

fn var_slot(v: Var) -> Slot {
    v.index() as Slot
}

/// The environment a [`Program`] runs in — everything but the database,
/// so one frame serves many databases and many programs.
#[derive(Default)]
struct Frame {
    /// Variable values, then constant values (see [`Program`]). A variable
    /// nobody bound reads as element 0: checked queries never do.
    values: Vec<Elem>,
    pred_vars: Vec<Relation>,
}

impl Frame {
    /// Sizes the frame for `program` and loads `db`'s constant values.
    fn load(&mut self, program: &Program, db: &PhysicalDb) {
        self.values.clear();
        self.values.resize(program.num_vars, 0);
        self.values
            .extend(program.consts.iter().map(|&c| db.const_val(c)));
        if self.pred_vars.len() < program.num_pred_vars {
            self.pred_vars
                .resize_with(program.num_pred_vars, || Relation::empty(0));
        }
    }

    /// Does `node` hold in `db` under this frame's values? The leaves that
    /// carry a walk — vocabulary atoms and equalities — are decided at the
    /// call site; only a connective or a quantifier costs a call.
    #[inline(always)]
    fn holds(&mut self, db: &PhysicalDb, node: &Node) -> bool {
        match node {
            Node::Atom(p, args) => args.in_relation(db.relation(*p), &self.values),
            Node::Eq(a, b) => self.values[*a as usize] == self.values[*b as usize],
            _ => self.compound_holds(db, node),
        }
    }

    /// [`Frame::holds`] for everything but the two inlined leaves.
    fn compound_holds(&mut self, db: &PhysicalDb, node: &Node) -> bool {
        match node {
            Node::Atom(..) | Node::Eq(..) => unreachable!("decided in `holds`"),
            Node::True => true,
            Node::False => false,
            Node::SoAtom(r, args) => args.in_relation(&self.pred_vars[*r], &self.values),
            Node::Not(g) => !self.holds(db, g),
            Node::And(gs) => gs.iter().all(|g| self.holds(db, g)),
            Node::Or(gs) => gs.iter().any(|g| self.holds(db, g)),
            Node::Implies(pq) => !self.holds(db, &pq[0]) || self.holds(db, &pq[1]),
            Node::Iff(pq) => self.holds(db, &pq[0]) == self.holds(db, &pq[1]),
            Node::Quantify {
                slot,
                existential,
                body,
            } => {
                let slot = *slot as usize;
                let saved = self.values[slot];
                let mut result = !existential;
                for &e in db.domain() {
                    self.values[slot] = e;
                    if self.holds(db, body) == *existential {
                        result = *existential;
                        break;
                    }
                }
                self.values[slot] = saved;
                result
            }
            Node::SoQuantify {
                pred_var,
                arity,
                existential,
                body,
            } => {
                let saved = std::mem::replace(&mut self.pred_vars[*pred_var], Relation::empty(0));
                let mut result = !existential;
                for_each_relation(db.domain(), *arity, |rel| {
                    self.pred_vars[*pred_var] = rel.clone();
                    if self.holds(db, body) == *existential {
                        result = *existential;
                        false // early exit
                    } else {
                        true
                    }
                });
                self.pred_vars[*pred_var] = saved;
                result
            }
        }
    }
}

/// Evaluation state: a physical database plus variable bindings.
pub struct Evaluator<'a> {
    db: &'a PhysicalDb,
    /// The bound variables' values, by variable index.
    bound: Vec<Elem>,
    frame: Frame,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator sized for `formula`.
    pub fn new(db: &'a PhysicalDb, formula: &Formula) -> Self {
        Evaluator {
            db,
            bound: vec![0; formula.max_var().map_or(0, |v| v.index() + 1)],
            frame: Frame::default(),
        }
    }

    /// Binds a free variable before evaluation (used for query answers).
    /// Grows the environment if the variable exceeds the body's variables
    /// (a head variable need not occur in the body).
    pub fn bind(&mut self, v: Var, e: Elem) {
        if v.index() >= self.bound.len() {
            self.bound.resize(v.index() + 1, 0);
        }
        self.bound[v.index()] = e;
    }

    /// Evaluates a formula under the current bindings: lowers it, then
    /// runs it. Every free variable of `f` must have been bound.
    pub fn eval(&mut self, f: &Formula) -> bool {
        let program = Program::lower(f, self.bound.len());
        self.frame.load(&program, self.db);
        self.frame.values[..self.bound.len()].copy_from_slice(&self.bound);
        self.frame.holds(self.db, &program.root)
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

/// A query lowered for evaluation (see the module docs): what a
/// [`QueryEvaluator`] runs. Lowering depends on the query alone, so one
/// lowered query serves every database of its vocabulary, from any thread.
pub struct LoweredQuery {
    /// The head variables' slots, in head order.
    head: Box<[Slot]>,
    body: Program,
}

impl LoweredQuery {
    /// Lowers `query`.
    pub fn new(query: &Query) -> LoweredQuery {
        let head = query.head();
        let min_vars = head.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        LoweredQuery {
            head: head.iter().map(|&v| var_slot(v)).collect(),
            body: Program::lower(query.body(), min_vars),
        }
    }

    /// Number of head variables.
    pub fn arity(&self) -> usize {
        self.head.len()
    }
}

/// [`eval_query`] on a lowered query, with its buffers kept: the frame, the
/// candidate row and the answer relation of one call are reused by the
/// next, whatever the query and the database. The Theorem 1 walk holds one
/// per worker and evaluates every query of a batch over every image through
/// it.
pub struct QueryEvaluator {
    frame: Frame,
    /// The candidate tuple under test, and the odometer that steps it.
    row: Vec<Elem>,
    counters: Vec<usize>,
    answers: Relation,
}

impl Default for QueryEvaluator {
    /// An evaluator with empty buffers.
    fn default() -> Self {
        QueryEvaluator {
            frame: Frame::default(),
            row: Vec::new(),
            counters: Vec::new(),
            answers: Relation::empty(0),
        }
    }
}

impl QueryEvaluator {
    /// Computes `Q(PB)` as [`eval_query`] does. The result lives in this
    /// evaluator until the next call overwrites it.
    pub fn eval(&mut self, db: &PhysicalDb, query: &LoweredQuery) -> &Relation {
        let arity = query.arity();
        self.frame.load(&query.body, db);
        self.row.clear();
        self.row.resize(arity, 0);
        let recycled = std::mem::replace(&mut self.answers, Relation::empty(arity));
        let mut answers = RowWriter::reusing(recycled, arity);
        let mut space = TupleSpace::reusing(db.domain(), arity, std::mem::take(&mut self.counters));
        while space.next_into(&mut self.row) {
            for (&slot, &e) in query.head.iter().zip(&self.row) {
                self.frame.values[slot as usize] = e;
            }
            if self.frame.holds(db, &query.body.root) {
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
    evaluator.eval(db, &LoweredQuery::new(query));
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
