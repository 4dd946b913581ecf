//! Tarskian evaluation of queries over physical databases (§2.1).
//!
//! The semantics are the textbook recursive ones: a first-order quantifier
//! ranges over the domain — or, guarded by an atom, over that atom's
//! matching rows — so a fixed first-order query is evaluated in polynomial
//! time and logarithmic space in the database (the LOGSPACE data
//! complexity of Theorem 4(1)). Second-order quantifiers are
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
//! searched for), an equality is two loads, a `∀` (or an unguarded `∃`)
//! writes the domain's elements into its slot, in domain order, and
//! restores what was there. Connectives short-circuit left to right. The
//! environment's sizes are fixed by the lowering, so a run never grows it,
//! and the two leaves that carry a walk (atoms, equalities) are decided
//! without a call.
//!
//! # Range-restricted `∃`
//!
//! One rule, the safe-range translation's: the lowering first *miniscopes*
//! every first-order `∃v` — the conjuncts of its body (through nested `∧`
//! and inner `∃` blocks) that do not mention `v` move out of the
//! quantifier — and then lowers `∃v. A(…v…) ∧ φ`, `A` a vocabulary atom
//! (every other argument of which is bound by then), to a scan of the
//! rows of `A` that begin with the values of its arguments before `v`'s
//! first position ([`Relation::rows_with_prefix_mapped`], two bisections).
//! Each row is checked at the later positions — bound slots and repeats of
//! `v` — binds `v`, and runs `φ`. Of several such atoms the one with the
//! longest bound prefix guards, the first of those. So the semi-join
//! `∃y. P0(x, y) ∧ P1(y)` costs the rows of `P0` that begin with `x`, not
//! `|D|` probes. `Q̂` of §5 has no negation, so the rule fires wherever it
//! quantifies; `∀`, second-order atoms and unguarded `∃` keep the domain
//! loop. Rows lie in the domain, and the domain is never empty, so a scan
//! finds a witness exactly when the loop would, and an `∃v` left with no
//! conjunct is true.
//!
//! # The head loop
//!
//! The same rule, one level up: a query's head is bound by nested domain
//! loops, one per head variable in head order, and each top-level conjunct
//! of the body — taken from the miniscoped enumeration the `∃` blocks use,
//! so a conjunct an `∃` lifts out is one too — is tested at the loop of
//! the last head variable it mentions, as soon as everything it reads is
//! bound. The conjuncts that mention no head variable are tested once,
//! before the loop, and within a level they keep their order. So
//! `(x, y) . P0(x, y) ∧ α_P1(x)` tests `α_P1(x)` `|D|` times and `P0(x, y)`
//! only under the `x` that pass, not both for all `|D|²` pairs. The loops
//! run in domain order, so the answers come out in the odometer order of
//! [`TupleSpace`](crate::TupleSpace), which the [`RowWriter`] they are
//! pushed into checks in one pass instead of sorting.
//!
//! [`eval_query`], [`Evaluator`] and [`satisfies`] lower and run in one
//! call. [`eval_lowered`] runs an already lowered query once, so a query
//! served at many database states (a prepared `Q̂`) is lowered once for
//! all of them. A [`QueryEvaluator`] runs an already lowered query and
//! keeps its buffers across calls — the slots and the answer relation — so
//! evaluating one lowered query over one database image after another (the
//! Theorem 1 walk, which lowers each query of a batch once and shares it
//! among its workers) allocates only while a buffer still grows.
//! Lowering borrows the formula and copies no part of it.
//!
//! The recursive interpreter this replaced lives on as the reference of
//! `tests/eval_differential.rs`.

use crate::db::PhysicalDb;
use crate::relation::{Elem, Relation, RowWriter};
use crate::tuples::for_each_relation;
use qld_logic::{ConstId, Formula, PredId, Query, Term, Var, Vocabulary};
use std::fmt;

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
    #[inline]
    fn slots(&self) -> &[Slot] {
        match self {
            Args::Inline { len, slots } => &slots[..usize::from(*len)],
            Args::Wide(slots) => slots,
        }
    }

    /// Is the argument tuple, read off `values`, a row of `rel`?
    #[inline]
    fn in_relation(&self, rel: &Relation, values: &[Elem]) -> bool {
        rel.contains_mapped(self.slots(), |slot| values[slot as usize])
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
    /// `∃v. P(args) ∧ body`, `v` first occurring in `args[first]` and every
    /// slot before it bound: a scan of the rows of `P` that begin with the
    /// bound prefix. No body is `True`.
    Scan {
        pred: PredId,
        first: u8,
        args: Args,
        body: Option<Box<Node>>,
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
    /// An environment for `formula` of at least `min_vars` variables (head
    /// variables need not occur in the body), with nothing lowered yet: the
    /// root is `True`.
    fn shape(formula: &Formula, min_vars: usize) -> Program {
        Program {
            root: Node::True,
            num_vars: min_vars.max(formula.max_var().map_or(0, |v| v.index() + 1)),
            consts: Vec::new(),
            num_pred_vars: formula.max_pred_var().map_or(0, |r| r.index() + 1),
        }
    }

    /// Lowers `formula` for an environment of at least `min_vars`
    /// variables.
    fn lower(formula: &Formula, min_vars: usize) -> Program {
        let mut program = Program::shape(formula, min_vars);
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
            Formula::Exists(..) => self.conjunction(f, |_, _| true).unwrap_or(Node::True),
            Formula::Forall(v, g) => Node::Quantify {
                slot: var_slot(*v),
                existential: false,
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

    /// The conjunction of the [`Conjunct`]s of `f` that `keep` selects
    /// (given each one's free variables), or `None` if it selects none. One
    /// conjunct lowers to itself, several to one `And` allocated at its
    /// final size.
    fn conjunction(
        &mut self,
        f: &Formula,
        keep: impl Fn(Conjunct, VarMask) -> bool,
    ) -> Option<Node> {
        let mut count = 0;
        let mut only = None;
        for_each_conjunct(f, &mut |c, free| {
            if keep(c, free) {
                count += 1;
                only = Some(c);
            }
        });
        match count {
            0 => None,
            1 => only.map(|c| self.conjunct(c)),
            _ => {
                let mut nodes = Vec::with_capacity(count);
                for_each_conjunct(f, &mut |c, free| {
                    if keep(c, free) {
                        nodes.push(self.conjunct(c));
                    }
                });
                Some(Node::And(nodes.into_boxed_slice()))
            }
        }
    }

    fn conjunct(&mut self, c: Conjunct) -> Node {
        match c {
            Conjunct::Leaf(f) => self.node(f),
            Conjunct::Block(v, g) => self.block(v, g),
        }
    }

    /// `∃v` over the conjuncts of `g` that mention `v` (the others were
    /// lifted out). Guarded by a vocabulary atom that mentions `v` — the
    /// one whose bound prefix is longest, the first of those — it is a
    /// [`Node::Scan`] of that atom's rows with the rest as its body;
    /// unguarded, a loop over the domain.
    fn block(&mut self, v: Var, g: &Formula) -> Node {
        let mut guard: Option<(&Formula, usize)> = None;
        for_each_conjunct(g, &mut |c, _| {
            if let Conjunct::Leaf(atom @ Formula::Atom(_, ts)) = c {
                let first = ts.iter().position(|t| *t == Term::Var(v));
                let longer = |&i: &usize| {
                    i <= usize::from(u8::MAX) && guard.is_none_or(|(_, best)| i > best)
                };
                if let Some(first) = first.filter(longer) {
                    guard = Some((atom, first));
                }
            }
        });
        let kept = |free: VarMask| free & var_bit(v) != 0;
        let Some((atom @ Formula::Atom(pred, ts), first)) = guard else {
            let body = self.conjunction(g, |_, free| kept(free));
            return Node::Quantify {
                slot: var_slot(v),
                existential: true,
                body: Box::new(body.expect("a block keeps a conjunct")),
            };
        };
        let is_guard = |c: Conjunct| matches!(c, Conjunct::Leaf(f) if std::ptr::eq(f, atom));
        Node::Scan {
            pred: *pred,
            first: first as u8,
            args: self.args(ts),
            body: self
                .conjunction(g, |c, free| kept(free) && !is_guard(c))
                .map(Box::new),
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

/// A conjunct of a formula with its first-order `∃` blocks miniscoped
/// (see [`for_each_conjunct`]). It borrows the formula: lowering copies
/// no part of it.
#[derive(Clone, Copy)]
enum Conjunct<'f> {
    /// A subformula that is neither a conjunction nor an `∃`.
    Leaf(&'f Formula),
    /// `∃v` over the conjuncts of the formula that mention `v`.
    Block(Var, &'f Formula),
}

/// A set of variables as a mask: bit `i` stands for `Var(i)`, and the top
/// bit for every variable from index 63 on. A variable in the set may
/// occur free; one outside it does not. (The shared top bit only keeps a
/// conjunct inside a quantifier it could have left.)
type VarMask = u64;

fn var_bit(v: Var) -> VarMask {
    1 << v.index().min(63)
}

/// `free` without `v`, as a binder of `v` leaves it.
fn unbind(free: VarMask, v: Var) -> VarMask {
    if v.index() < 63 {
        free & !var_bit(v)
    } else {
        free
    }
}

/// Calls `visit` on each conjunct of `f` with the variables it mentions,
/// miniscoped: a conjunction is its conjuncts', and `∃v. g` is the
/// conjuncts of `g` that do not mention `v` — lifted out of the quantifier
/// — followed by the [`Conjunct::Block`] of those that do, if any. (The
/// domain is never empty, so `∃v` over nothing is true.) A block's
/// variables come out of the enumeration of its own conjuncts, so one call
/// costs the size of `f`, however deep its `∃` chains.
fn for_each_conjunct<'f>(f: &'f Formula, visit: &mut dyn FnMut(Conjunct<'f>, VarMask)) {
    match f {
        Formula::And(fs) => fs.iter().for_each(|g| for_each_conjunct(g, visit)),
        Formula::Exists(v, g) => {
            let (mut kept, mut block) = (false, 0);
            for_each_conjunct(g, &mut |c, free| {
                if free & var_bit(*v) != 0 {
                    (kept, block) = (true, block | free);
                } else {
                    visit(c, free);
                }
            });
            if kept {
                visit(Conjunct::Block(*v, g), unbind(block, *v));
            }
        }
        _ => visit(Conjunct::Leaf(f), free_vars(f)),
    }
}

/// The variables that may occur free in `f`.
fn free_vars(f: &Formula) -> VarMask {
    let terms = |ts: &[Term]| {
        ts.iter().fold(0, |free, t| match t {
            Term::Var(v) => free | var_bit(*v),
            Term::Const(_) => free,
        })
    };
    match f {
        Formula::True | Formula::False => 0,
        Formula::Atom(_, ts) | Formula::SoAtom(_, ts) => terms(ts),
        Formula::Eq(a, b) => terms(&[*a, *b]),
        Formula::Not(g) | Formula::SoExists(_, _, g) | Formula::SoForall(_, _, g) => free_vars(g),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().fold(0, |free, g| free | free_vars(g)),
        Formula::Implies(p, q) | Formula::Iff(p, q) => free_vars(p) | free_vars(q),
        Formula::Exists(v, g) | Formula::Forall(v, g) => unbind(free_vars(g), *v),
    }
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
            Node::Scan {
                pred,
                first,
                args,
                body,
            } => self.scan(
                db,
                db.relation(*pred),
                usize::from(*first),
                args,
                body.as_deref(),
            ),
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

    /// [`Node::Scan`]: binds `v` — the slot `args[first]` — to each row of
    /// `rel` that begins with the bound prefix `args[..first]` and reads as
    /// every later slot does, until `body` holds. Kept out of
    /// [`Frame::compound_holds`], whose frame every connective pays for.
    #[inline(never)]
    fn scan(
        &mut self,
        db: &PhysicalDb,
        rel: &Relation,
        first: usize,
        args: &Args,
        body: Option<&Node>,
    ) -> bool {
        let (prefix, rest) = args.slots().split_at(first);
        let slot = rest[0] as usize;
        let saved = self.values[slot];
        let values = &self.values;
        let mut result = false;
        for row in rel.rows_with_prefix_mapped(prefix, |s| values[s as usize]) {
            self.values[slot] = row[first];
            // Every later position — `v` again, or a bound slot — must
            // read as the row does.
            let later = rest[1..].iter().zip(&row[first + 1..]);
            if later
                .into_iter()
                .all(|(&s, &e)| self.values[s as usize] == e)
                && body.is_none_or(|b| self.holds(db, b))
            {
                result = true;
                break;
            }
        }
        self.values[slot] = saved;
        result
    }

    /// The head loop from level `depth` on: binds `head[depth]` to each
    /// element of the domain in turn, and where its test holds, runs the
    /// next level — or, past the last, pushes the bound head as an answer.
    /// Rows come out in odometer order.
    fn bind_head(
        &mut self,
        db: &PhysicalDb,
        head: &[HeadVar],
        depth: usize,
        answers: &mut RowWriter,
    ) {
        let Some(var) = head.get(depth) else {
            let values = &self.values;
            answers.push_with(head.iter().map(|h| values[h.slot as usize]));
            return;
        };
        let slot = var.slot as usize;
        for &e in db.domain() {
            self.values[slot] = e;
            if var.test.as_ref().is_none_or(|test| self.holds(db, test)) {
                self.bind_head(db, head, depth + 1, answers);
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
    /// The head loop's levels, in head order.
    head: Box<[HeadVar]>,
    /// The environment; its root is the conjunction of the body's
    /// conjuncts that mention no head variable, tested once, before the
    /// head loop.
    body: Program,
}

/// One level of the head loop: a head variable and the conjuncts of the
/// body tested as soon as it is bound.
struct HeadVar {
    slot: Slot,
    /// The conjunction of the conjuncts whose last head variable, in head
    /// order, this one is; `None` if there are none.
    test: Option<Node>,
}

impl std::fmt::Debug for LoweredQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoweredQuery")
            .field("arity", &self.arity())
            .finish_non_exhaustive()
    }
}

impl LoweredQuery {
    /// Lowers `query`.
    pub fn new(query: &Query) -> LoweredQuery {
        let (vars, body) = (query.head(), query.body());
        let min_vars = vars.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        // The last head variable a conjunct mentions, in head order: every
        // variable it reads is bound at that level.
        let level = |free: VarMask| vars.iter().rposition(|&v| free & var_bit(v) != 0);
        let mut program = Program::shape(body, min_vars);
        let head = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| HeadVar {
                slot: var_slot(v),
                test: program.conjunction(body, |_, free| level(free) == Some(i)),
            })
            .collect();
        program.root = program
            .conjunction(body, |_, free| level(free).is_none())
            .unwrap_or(Node::True);
        LoweredQuery {
            head,
            body: program,
        }
    }

    /// Number of head variables.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// The plan [`QueryEvaluator::eval`] runs, one node a line, indented
    /// under the node that runs it: the conjunction tested before the
    /// head loop, then each head level in order with the conjuncts tested
    /// as soon as its variable is bound. A `probe` is an atom looked up, a
    /// `scan` walks the rows of a guard that begin with its bound prefix,
    /// and a quantifier `in domain` (or, second-order, `over all
    /// relations`) is a loop. Nothing on the evaluation path calls it.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> LoweredDisplay<'a> {
        LoweredDisplay { voc, query: self }
    }
}

/// A [`LoweredQuery`] rendered with a vocabulary's names (see
/// [`LoweredQuery::display`]).
pub struct LoweredDisplay<'a> {
    voc: &'a Vocabulary,
    query: &'a LoweredQuery,
}

impl fmt::Display for LoweredDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pre-loop")?;
        self.node(f, &self.query.body.root, 1)?;
        for level in self.query.head.iter() {
            writeln!(f, "head {} in domain", self.slot(level.slot))?;
            if let Some(test) = &level.test {
                self.node(f, test, 1)?;
            }
        }
        Ok(())
    }
}

impl LoweredDisplay<'_> {
    /// The variable or the constant in `slot`.
    fn slot(&self, slot: Slot) -> String {
        let program = &self.query.body;
        match (slot as usize).checked_sub(program.num_vars) {
            None => Var(slot).to_string(),
            Some(i) => self.voc.const_name(program.consts[i]).to_string(),
        }
    }

    fn slots(&self, slots: &[Slot]) -> String {
        let names: Vec<String> = slots.iter().map(|&s| self.slot(s)).collect();
        names.join(", ")
    }

    fn node(&self, f: &mut fmt::Formatter<'_>, node: &Node, depth: usize) -> fmt::Result {
        let quantifier = |existential: bool| if existential { "exists" } else { "forall" };
        let one = std::slice::from_ref;
        let (line, children): (String, &[Node]) = match node {
            Node::True => ("true".into(), &[]),
            Node::False => ("false".into(), &[]),
            Node::Atom(p, args) => {
                let pred = self.voc.pred_name(*p);
                (format!("probe {pred}({})", self.slots(args.slots())), &[])
            }
            Node::SoAtom(r, args) => (format!("probe ?R{r}({})", self.slots(args.slots())), &[]),
            Node::Eq(a, b) => (format!("{} = {}", self.slot(*a), self.slot(*b)), &[]),
            Node::Not(g) => ("not".into(), one(g)),
            Node::And(gs) => ("and".into(), gs),
            Node::Or(gs) => ("or".into(), gs),
            Node::Implies(pq) => ("implies".into(), &pq[..]),
            Node::Iff(pq) => ("iff".into(), &pq[..]),
            Node::Quantify {
                slot,
                existential,
                body,
            } => {
                let v = self.slot(*slot);
                (
                    format!("{} {v} in domain", quantifier(*existential)),
                    one(body),
                )
            }
            Node::Scan {
                pred,
                first,
                args,
                body,
            } => {
                let (pred, slots) = (self.voc.pred_name(*pred), args.slots());
                let prefix = self.slots(&slots[..usize::from(*first)]);
                let line = format!("scan {pred}({}) by prefix ({prefix})", self.slots(slots));
                (line, body.as_deref().map_or(&[], one))
            }
            Node::SoQuantify {
                pred_var,
                arity,
                existential,
                body,
            } => {
                let q = quantifier(*existential);
                let line = format!("{q}2 ?R{pred_var}/{arity} over all relations");
                (line, one(body))
            }
        };
        writeln!(f, "{:1$}{line}", "", 2 * depth)?;
        children
            .iter()
            .try_for_each(|child| self.node(f, child, depth + 1))
    }
}

/// [`eval_query`] on a lowered query, with its buffers kept: the frame and
/// the answer relation of one call are reused by the next, whatever the
/// query and the database. The Theorem 1 walk holds one per worker and
/// evaluates every query of a batch over every image through it.
pub struct QueryEvaluator {
    frame: Frame,
    answers: Relation,
}

impl Default for QueryEvaluator {
    /// An evaluator with empty buffers.
    fn default() -> Self {
        QueryEvaluator {
            frame: Frame::default(),
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
        let recycled = std::mem::replace(&mut self.answers, Relation::empty(arity));
        let mut answers = RowWriter::reusing(recycled, arity);
        if self.frame.holds(db, &query.body.root) {
            self.frame.bind_head(db, &query.head, 0, &mut answers);
        }
        self.answers = answers.finish();
        &self.answers
    }
}

/// Computes the answer `Q(PB) = { d ∈ D^k : I ⊨ φ(d) }` of §2.1.
pub fn eval_query(db: &PhysicalDb, query: &Query) -> Relation {
    eval_lowered(db, &LoweredQuery::new(query))
}

/// [`eval_query`] on an already lowered query, the answer owned: a caller
/// that runs one query over many databases lowers it once.
pub fn eval_lowered(db: &PhysicalDb, query: &LoweredQuery) -> Relation {
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

    /// `∃x₁ … ∃xₙ. PARENT(alice, x₁) ∧ PARENT(x₁, x₂) ∧ … ∧ PARENT(xₙ₋₁, xₙ)`:
    /// a path of `n` edges from alice.
    fn path_from_alice(voc: &Vocabulary, n: u32, first_var: u32) -> Formula {
        let parent = voc.pred_id("PARENT").unwrap();
        let alice = Term::Const(voc.const_id("alice").unwrap());
        let vars: Vec<Var> = (first_var..first_var + n).map(Var).collect();
        let mut hops = Vec::new();
        let mut from = alice;
        for &v in &vars {
            hops.push(Formula::atom(parent, [from, Term::Var(v)]));
            from = Term::Var(v);
        }
        Formula::exists(vars, Formula::And(hops))
    }

    #[test]
    fn long_exists_chains_miniscope_in_polynomial_time() {
        // Every hop but the last is lifted out of the innermost `∃` and
        // guards its own; a lowering that re-derived each block's variables
        // from scratch would take 2^40 steps here.
        let (voc, db) = family();
        assert!(satisfies(&db, &path_from_alice(&voc, 2, 0)));
        assert!(!satisfies(&db, &path_from_alice(&voc, 3, 0)));
        assert!(!satisfies(&db, &path_from_alice(&voc, 40, 0)));
    }

    #[test]
    fn variables_past_the_mask_width_stay_scoped() {
        // Indices from 63 on share one bit of the free-variable mask: they
        // keep conjuncts inside their quantifiers, never lift one out.
        let (voc, db) = family();
        for first_var in [60, 63, 64, 100] {
            assert!(satisfies(&db, &path_from_alice(&voc, 2, first_var)));
            assert!(!satisfies(&db, &path_from_alice(&voc, 3, first_var)));
        }
        let q = parse_query(
            &voc,
            "(x) . exists y. PARENT(x, y) & exists z. PARENT(y, z)",
        )
        .unwrap();
        let high = |v: Var| Var(v.index() as u32 + 70);
        let renamed = Query::new(
            q.head().iter().map(|&v| high(v)).collect(),
            rename(q.body(), &high),
        )
        .unwrap();
        assert_eq!(eval_query(&db, &renamed), eval_query(&db, &q));
        assert_eq!(eval_query(&db, &q), Relation::from_rows(1, [[0]]));
    }

    fn rename(f: &Formula, to: &impl Fn(Var) -> Var) -> Formula {
        let term = |t: &Term| match t {
            Term::Var(v) => Term::Var(to(*v)),
            c => *c,
        };
        match f {
            Formula::Atom(p, ts) => Formula::atom(*p, ts.iter().map(term)),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| rename(g, to)).collect()),
            Formula::Exists(v, g) => Formula::Exists(to(*v), Box::new(rename(g, to))),
            other => unimplemented!("{other:?}"),
        }
    }

    /// Every node kind the renderer names, each on its own line under
    /// the node that runs it.
    #[test]
    fn a_lowered_plan_renders_every_node_kind() {
        let (voc, _) = family();
        let q = parse_query(
            &voc,
            "(x) . PARENT(alice, bob) & (exists y. PARENT(x, y) & !PARENT(y, carol)) \
             & forall z. (z = x -> (PARENT(z, z) | false)) <-> exists2 ?S:1. ?S(z)",
        )
        .unwrap();
        let plan = LoweredQuery::new(&q).display(&voc).to_string();
        let expected = "pre-loop
  probe PARENT(alice, bob)
head x0 in domain
  and
    scan PARENT(x0, x1) by prefix (x0)
      not
        probe PARENT(x1, carol)
    forall x2 in domain
      iff
        implies
          x2 = x0
          or
            probe PARENT(x2, x2)
            false
        exists2 ?R0/1 over all relations
          probe ?R0(x2)
";
        assert_eq!(plan, expected, "{plan}");
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
