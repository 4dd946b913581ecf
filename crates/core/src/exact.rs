//! Exact certain-answer evaluation via Theorem 1.
//!
//! `c ∈ Q(LB)` iff `h(c) ∈ Q(h(Ph₁(LB)))` for every respecting
//! `h : C → C`. The evaluator maintains the set of surviving candidate
//! tuples and intersects it across mappings, exiting early the moment it
//! empties (for Boolean queries: the moment one mapping refutes the
//! sentence). Data complexity is co-NP-complete (Theorem 5), so the
//! enumeration is inherently exponential — the approximation in
//! `qld-approx` is the paper's answer to that.
//!
//! # The hot path
//!
//! A full walk costs images × per-image work, and Theorem 5 says the images
//! cannot be engineered away, so what happens per image is a kernel with
//! everything hoisted out of it that does not depend on the image:
//!
//! * `Ph₁(LB)` is built once per database (the engine hands in its
//!   memoised copy) and each query of the batch is lowered once
//!   ([`LoweredQuery`]) before the enumeration starts; the workers share
//!   both;
//! * the database image `h(Ph₁(LB))` is written into a reusable buffer
//!   instead of building a fresh [`PhysicalDb`] per mapping — the relations
//!   once per kernel partition
//!   ([`PhysicalDb::assign_mapped_relations`]), the domain and the
//!   constants once per null-only block count `e`
//!   ([`PhysicalDb::assign_mapped_frame`]): a free constant occurs in no
//!   fact, so `e` cannot change a relation;
//! * each lowered query is run over it through the worker's one
//!   [`QueryEvaluator`], whose value slots and answer relation are
//!   those of the previous image;
//! * candidate tuples are the rows of one flat [`Relation`] per query and
//!   pruning is [`Relation::retain`]. A candidate without a free constant —
//!   every candidate, when the plan has none — is decided in one step, a
//!   gather through `h` and one search
//!   ([`Relation::contains_mapped`]); only a candidate that mentions free
//!   constants pays for the placement search and its scratch buffers, and
//!   only a plan with free constants for the sorted block representatives
//!   that search ranges over;
//! * atoms and candidates bottom out in the same arity-specialised row
//!   search of [`Relation`];
//! * under [`ParallelConfig`] with more than one thread, the mapping
//!   search tree is split across a worker pool (see
//!   [`crate::mappings`]): each worker prunes a private candidate set
//!   against its share of the mappings, a shared stop flag propagates
//!   early exit, and the final answer is the intersection of the worker
//!   sets (union for possible answers) — bit-identical to the sequential
//!   result regardless of thread count.
//!
//! The walk allocates at set-up and while a buffer still grows, never per
//! image (`tests/eval_alloc.rs` pins the counts).

use crate::mappings::{
    analyze_decomposition, count_kernel_mappings_up_to, for_each_kernel_mapping_over_parallel,
    DbDecomposition, ParallelConfig,
};
use crate::ph::ph1;
use crate::theory::CwDatabase;
use qld_logic::{LogicError, Query};
use qld_physical::{
    eval_query, Elem, LoweredQuery, PhysicalDb, QueryEvaluator, Relation, RowWriter, TupleSpace,
};

/// Which dual of Theorem 1 an evaluation computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerMode {
    /// Tuples true in **every** model: the intersection over mappings
    /// (a single failing image kills a candidate).
    Certain,
    /// Tuples true in **some** model: the union over mappings (a single
    /// succeeding image proves a candidate).
    Possible,
}

/// Evaluation options.
#[derive(Debug, Clone, Copy)]
pub struct ExactOptions {
    /// Use the Corollary 2 fast path (`Q(LB) = Q(Ph₁(LB))`) when the
    /// database is fully specified. On by default.
    pub corollary2_fast_path: bool,
    /// Worker threads for the mapping enumeration (defaults to the
    /// `QLD_THREADS` environment variable, else sequential; `0` = one
    /// worker per CPU). The answer is bit-identical at any thread count.
    pub parallel: ParallelConfig,
    /// Stop enumerating the moment the outcome is decided (certain
    /// answers: candidate set empty; possible answers: every candidate
    /// proven possible). On by default; differential tests disable it so
    /// `mappings_evaluated` totals are comparable across configurations.
    pub early_exit: bool,
}

impl ExactOptions {
    /// Recommended settings: Corollary 2 fast path, early exit, thread
    /// count from the environment.
    pub fn new() -> Self {
        ExactOptions {
            corollary2_fast_path: true,
            parallel: ParallelConfig::default(),
            early_exit: true,
        }
    }

    /// [`ExactOptions::new`] pinned to single-threaded enumeration.
    pub fn sequential() -> Self {
        ExactOptions {
            parallel: ParallelConfig::sequential(),
            ..ExactOptions::new()
        }
    }

    /// [`ExactOptions::new`] with an explicit worker-thread count
    /// (`0` = one worker per CPU).
    pub fn with_threads(threads: usize) -> Self {
        ExactOptions {
            parallel: ParallelConfig::new(threads),
            ..ExactOptions::new()
        }
    }
}

impl Default for ExactOptions {
    /// Same as [`ExactOptions::new`] — the recommended settings.
    fn default() -> Self {
        ExactOptions::new()
    }
}

/// Counters reported alongside an exact evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of database images actually built and evaluated, summed
    /// across workers (early exit shortens this). These are canonical
    /// images — one per (core partition, fresh-null count) — which is one
    /// per kernel mapping when no constant is free.
    pub mappings_evaluated: u64,
    /// Whether the Corollary 2 fast path answered the query.
    pub fast_path: bool,
    /// Worker threads that participated in the enumeration (`1` for the
    /// sequential path, `0` when the fast path answered without
    /// enumerating any mapping).
    pub workers_used: u32,
    /// NE-constraint-graph components of the database (isolated constants
    /// included). `0` when the fast path answered.
    pub components: u32,
    /// Kernel mappings the walk never had to visit: the closed-form
    /// kernel count minus `mappings_evaluated` (includes mappings skipped
    /// by early exit), saturating at [`PRUNED_COUNT_CAP`]. Below the cap,
    /// `mappings_evaluated + mappings_pruned` equals
    /// [`count_kernel_mappings`](crate::mappings::count_kernel_mappings).
    pub mappings_pruned: u64,
}

/// The most kernel mappings [`EvalStats::mappings_pruned`] reports. The
/// statistic is counted up to `mappings_evaluated + PRUNED_COUNT_CAP`
/// ([`count_kernel_mappings_up_to`]), so that counting what a walk skipped
/// costs at most a bounded number of kernels more than the walk itself:
/// an early exit after one image over a Bell-sized kernel tree must not
/// pay for the whole tree to report how much it skipped.
pub const PRUNED_COUNT_CAP: u64 = 1 << 16;

// ---------------------------------------------------------------------------
// The free-null collapse: the decomposed Theorem 1 search.
//
// Call a constant *free* when it has no NE edge, occurs in no fact, and is
// not mentioned by the query ([`DbDecomposition`] caches the
// query-independent part). A kernel partition of `C` is then a partition of
// the *core* (the other constants) plus a placement of each free constant
// into a core block or one of `e` null-only blocks. The image `h(Ph₁(LB))`
// only sees (a) the core partition and (b) `e`: null-only block
// representatives are isolated domain elements — they occur in no mapped
// fact and interpret no query constant — and free constants merged into
// core blocks change nothing at all. Two kernels with the same core
// partition and the same `e` have isomorphic images (match core blocks
// identically, null-only blocks arbitrarily), the isomorphism fixes every
// query constant's interpretation, and query answers are invariant under
// isomorphism — so one canonical image per (core partition, `e`) decides
// every candidate. Three moves:
//
// * **Canonical image**: core constants map to their block's least core
//   member, the first `e` free constants map to themselves (the fresh
//   isolated elements), the remaining free constants pile into the first
//   fresh element (or the first core value when `e = 0`; `e ≥ 1` is forced
//   when the core is empty). `mappings_evaluated` counts these images; the
//   closed-form kernel count minus that is `mappings_pruned`.
// * **Per-candidate placement search**: a candidate tuple containing `k`
//   distinct free constants is decided by searching the canonical
//   placements `g` of those constants into core blocks or fresh elements.
//   Fresh elements are used in first-use order — the answer relation is
//   closed under permuting the fresh elements, which are interchangeable
//   isolated points of the image. A placement is *realizable* iff the
//   `m − k` unmentioned free constants can still populate the other
//   null-only blocks: `s ≥ e − (m − k)` for `s` the fresh elements used
//   (and `s ≤ e` by construction). A certain-mode candidate dies on any
//   realizable placement whose image tuple is outside the answers; a
//   possible-mode candidate is proven by any realizable placement inside
//   them. A candidate without free constants has exactly one placement,
//   the empty one, so the same search is the plain membership test of its
//   image under the canonical mapping — and when *no* constant is free
//   (every null is NE-constrained, stored in a fact, or mentioned by a
//   query) the whole walk is one image per kernel partition with that
//   membership test for every candidate. Neither case has a code path of
//   its own.
// * **Ehrenfeucht–Fraïssé cap on `e`**: a first-order query of quantifier
//   rank `qr` cannot distinguish images differing only in how many unused
//   isolated elements they carry once both carry more than `qr`, and a
//   candidate marks at most `arity` of them, so every verdict at
//   `e > qr + arity + 1` already occurred at the cap (realizability only
//   loosens as `e` shrinks). Second-order queries can count — `∃S…`
//   distinguishes domain sizes — so the cap applies **only** when
//   [`Query::is_first_order`]; otherwise `e` runs all the way to `m`.
// ---------------------------------------------------------------------------

/// The per-run decomposition plan: the query-dependent split of the
/// constants for the free-null collapse.
struct DecompPlan {
    /// Non-free constants, ascending — the kernel enumeration runs here.
    core: Vec<u32>,
    /// Free constants (free in the database *and* unmentioned by every
    /// query of the run), ascending.
    free: Vec<u32>,
    /// `is_free[c]` for every constant.
    is_free: Vec<bool>,
    /// Smallest valid null-only block count: `1` when every constant is
    /// free (they must map somewhere), else `0`.
    e_min: usize,
    /// Per-query cap on the null-only block count (the EF cap for
    /// first-order queries, `m` otherwise).
    caps: Vec<usize>,
    /// NE components of the database, reported in the stats.
    components: u32,
}

/// Builds the decomposition plan. With no free constant left the plan is
/// the degenerate one: the core is every constant and `e` only takes the
/// value `0`.
fn plan_decomposition(
    db: &CwDatabase,
    queries: &[Query],
    decomp: Option<&DbDecomposition>,
) -> DecompPlan {
    let n = db.num_consts();
    let owned;
    let decomp = match decomp {
        Some(d) => d,
        None => {
            owned = analyze_decomposition(db);
            &owned
        }
    };
    let mut is_free = vec![false; n];
    for &f in &decomp.free {
        is_free[f as usize] = true;
    }
    for q in queries {
        for c in q.body().constants() {
            is_free[c.index()] = false;
        }
    }
    let (free, core): (Vec<u32>, Vec<u32>) = (0..n as u32).partition(|&c| is_free[c as usize]);
    let m = free.len();
    let caps = queries
        .iter()
        .map(|q| {
            if q.is_first_order() {
                m.min(q.body().quantifier_rank() + q.arity() + 1)
            } else {
                m
            }
        })
        .collect();
    DecompPlan {
        e_min: usize::from(core.is_empty()),
        core,
        free,
        is_free,
        caps,
        components: decomp.components,
    }
}

/// Reusable buffers for the per-candidate placement search.
#[derive(Default)]
struct PlacementScratch {
    /// Distinct free constants of the candidate, in first-occurrence order.
    distinct: Vec<Elem>,
    /// Image value assigned to each distinct free constant.
    assigned: Vec<Elem>,
    /// The candidate's image tuple.
    tau: Vec<Elem>,
}

/// The placement search over one image's answers to one query: what a
/// candidate's verdict depends on besides the candidate.
struct PlacementSearch<'a> {
    /// The canonical mapping of the current image (core + free parts).
    h: &'a [Elem],
    is_free: &'a [bool],
    free: &'a [u32],
    /// Distinct block representatives of the current core partition.
    core_values: &'a [Elem],
    /// Null-only block count of the current image.
    e: usize,
    answers: &'a Relation,
    /// `true`: search for an image tuple **in** the answers (possible-mode
    /// proof); `false`: for one **outside** them (certain-mode kill).
    want_in: bool,
}

impl PlacementSearch<'_> {
    /// Is there a realizable canonical placement of `cand`'s free constants
    /// whose image tuple's membership in the answers equals `want_in`? See
    /// the free-null collapse notes above. A candidate without free
    /// constants has the one placement that places nothing, so it is
    /// decided in one step: a gather through `h` and one membership test.
    fn decides(&self, cand: &[Elem], scratch: &mut PlacementScratch) -> bool {
        if !cand.iter().any(|&c| self.is_free[c as usize]) {
            return self.answers.contains_mapped(cand, |c| self.h[c as usize]) == self.want_in;
        }
        scratch.distinct.clear();
        for &c in cand {
            if self.is_free[c as usize] && !scratch.distinct.contains(&c) {
                scratch.distinct.push(c);
            }
        }
        scratch.assigned.clear();
        scratch.assigned.resize(scratch.distinct.len(), 0);
        self.rec(cand, 0, 0, scratch)
    }

    /// Depth-first search over canonical placements of the candidate's
    /// distinct free constants (`distinct[j..]` still unassigned,
    /// `fresh_used` fresh elements opened so far).
    fn rec(
        &self,
        cand: &[Elem],
        j: usize,
        fresh_used: usize,
        scratch: &mut PlacementScratch,
    ) -> bool {
        let k = scratch.distinct.len();
        // Realizability floor: fresh elements the placement must use so the
        // unmentioned free constants can fill the remaining null-only blocks.
        let e_need = self.e.saturating_sub(self.free.len() - k);
        if j == k {
            if fresh_used < e_need {
                return false;
            }
            let PlacementScratch {
                distinct,
                assigned,
                tau,
            } = scratch;
            tau.clear();
            tau.extend(
                cand.iter()
                    .map(|&c| match distinct.iter().position(|&u| u == c) {
                        Some(idx) => assigned[idx],
                        None => self.h[c as usize],
                    }),
            );
            return self.answers.contains(tau) == self.want_in;
        }
        // Even opening a fresh element at every remaining position cannot
        // reach the realizability floor: dead branch.
        if fresh_used + (k - j) < e_need {
            return false;
        }
        // Join a core block…
        for &v in self.core_values {
            scratch.assigned[j] = v;
            if self.rec(cand, j + 1, fresh_used, scratch) {
                return true;
            }
        }
        // …share an already-opened fresh element…
        for slot in 0..fresh_used {
            scratch.assigned[j] = self.free[slot];
            if self.rec(cand, j + 1, fresh_used, scratch) {
                return true;
            }
        }
        // …or open the next one (canonical first-use order).
        if fresh_used < self.e {
            scratch.assigned[j] = self.free[fresh_used];
            if self.rec(cand, j + 1, fresh_used + 1, scratch) {
                return true;
            }
        }
        false
    }
}

/// Per-worker state of the walk. Single queries run as a batch of one —
/// the merge and early-exit semantics coincide.
///
/// The two duals differ only in what happens to a candidate an image
/// decides: certain answers *drop* the refuted ones (a single failing
/// image kills a candidate), possible answers *move* the proven ones to
/// the per-query `collected` writer. Either way a query is deactivated the
/// moment its undecided set empties (certain: the answer can only stay
/// empty; possible: every candidate is already proven), and the
/// enumeration exits early once *every* query has stabilized. A query
/// whose set is still shrinking sees every remaining image, exactly as an
/// independent run would, so batched answers are bit-identical to N
/// independent calls.
struct DecompWorker {
    /// The reusable image `h(Ph₁(LB))`: the buffers of mapping N+1 are
    /// those of mapping N.
    image: PhysicalDb,
    /// Images built so far.
    evaluated: u64,
    /// Evaluates every live query of the batch over the current image.
    eval: QueryEvaluator,
    /// Per-query undecided candidates, in lexicographic order.
    cands: Vec<Relation>,
    /// Per-query proven-possible candidates (possible mode only).
    collected: Vec<RowWriter>,
    /// Queries whose undecided set is still non-empty.
    live: usize,
    /// Full canonical mapping buffer (every constant).
    h: Vec<Elem>,
    /// Distinct block representatives of the current core partition, kept
    /// only while the plan has free constants to place among them.
    core_values: Vec<Elem>,
    scratch: PlacementScratch,
}

/// The one realisation of Theorem 1's quantification over mappings: walks
/// the kernel partitions of the plan's core, builds one canonical image per
/// (partition, `e`), evaluates every live query of the batch over it, and
/// merges the workers — certain mode intersects the per-query survivor
/// sets, possible mode unions the per-query proven sets. Answers are
/// bit-identical at any thread count.
fn run_decomposed(
    db: &CwDatabase,
    base: &PhysicalDb,
    queries: &[Query],
    mode: AnswerMode,
    opts: ExactOptions,
    plan: &DecompPlan,
) -> (Vec<Relation>, EvalStats) {
    let n = db.num_consts();
    let lowered: Vec<LoweredQuery> = queries.iter().map(LoweredQuery::new).collect();
    let consts: Vec<Elem> = (0..n as Elem).collect();
    let e_max = plan.caps.iter().copied().max().unwrap_or(0);
    let possible = mode == AnswerMode::Possible;
    let (states, _completed) = for_each_kernel_mapping_over_parallel(
        db,
        &plan.core,
        opts.parallel,
        |_| DecompWorker {
            image: base.clone(),
            evaluated: 0,
            eval: QueryEvaluator::default(),
            cands: queries
                .iter()
                .map(|q| TupleSpace::new(&consts, q.arity()).select(|_| true))
                .collect(),
            collected: queries.iter().map(|q| RowWriter::new(q.arity())).collect(),
            live: queries.len(),
            h: vec![0; n],
            core_values: Vec::new(),
            scratch: PlacementScratch::default(),
        },
        |w, h_core| {
            let DecompWorker {
                image,
                evaluated,
                eval,
                cands,
                collected,
                live,
                h,
                core_values,
                scratch,
            } = w;
            for (p, &c) in plan.core.iter().enumerate() {
                h[c as usize] = h_core[p];
            }
            if !plan.free.is_empty() {
                core_values.clear();
                core_values.extend_from_slice(h_core);
                core_values.sort_unstable();
                core_values.dedup();
            }
            // A free constant occurs in no fact: the relations are those of
            // the core partition, whatever `e`.
            image.assign_mapped_relations(base, h);
            for e in plan.e_min..=e_max {
                // With early exit on, stop once no live query's cap reaches
                // this `e`. Without it, evaluate every (partition, e) image
                // so `mappings_evaluated` is thread-count-independent.
                if opts.early_exit
                    && !(0..queries.len()).any(|i| e <= plan.caps[i] && !cands[i].is_empty())
                {
                    break;
                }
                for (idx, &f) in plan.free.iter().enumerate() {
                    h[f as usize] = if idx < e {
                        f
                    } else if e > 0 {
                        plan.free[0]
                    } else {
                        h[plan.core[0] as usize]
                    };
                }
                image.assign_mapped_frame(base, h);
                *evaluated += 1;
                for (i, query) in lowered.iter().enumerate() {
                    if e > plan.caps[i] || cands[i].is_empty() {
                        continue;
                    }
                    let search = PlacementSearch {
                        h,
                        is_free: &plan.is_free,
                        free: &plan.free,
                        core_values,
                        e,
                        answers: eval.eval(image, query),
                        want_in: possible,
                    };
                    cands[i].retain(|cand| {
                        let decided = search.decides(cand, scratch);
                        if decided && possible {
                            collected[i].push(cand);
                        }
                        !decided
                    });
                    if cands[i].is_empty() {
                        *live -= 1;
                    }
                }
            }
            // Shared early exit: one worker with nothing live decides the
            // merged outcome for every query (certain: an empty set empties
            // the intersection; possible: the union is already the full
            // space), so `false` raises the pool's stop flag.
            !opts.early_exit || *live > 0
        },
    );

    let evaluated: u64 = states.iter().map(|w| w.evaluated).sum();
    let stats = EvalStats {
        mappings_evaluated: evaluated,
        fast_path: false,
        workers_used: states.len() as u32,
        components: plan.components,
        mappings_pruned: count_kernel_mappings_up_to(
            db,
            evaluated.saturating_add(PRUNED_COUNT_CAP),
        )
        .saturating_sub(evaluated),
    };
    let mut states = states.into_iter();
    let first = states.next().expect("at least one worker");
    let answers = match mode {
        AnswerMode::Certain => {
            let mut survivors = first.cands;
            for w in states {
                for (mine, theirs) in survivors.iter_mut().zip(&w.cands) {
                    mine.retain(|t| theirs.contains(t));
                }
            }
            survivors
        }
        AnswerMode::Possible => {
            let mut proven = first.collected;
            for w in states {
                for (mine, theirs) in proven.iter_mut().zip(w.collected) {
                    for row in &theirs.finish() {
                        mine.push(row);
                    }
                }
            }
            proven.into_iter().map(RowWriter::finish).collect()
        }
    };
    (answers, stats)
}

/// Every public name below — and the engine, which passes its cached
/// [`DbDecomposition`] and its memoised `Ph₁(LB)` instead of `None`
/// (analyze, respectively build, on the spot) — funnels into this one
/// entry: validate, take the Corollary 2 fast path when it
/// applies (certain mode only; possible answers have no analogue), else
/// plan and walk. The answers (and the per-query relation order) of a
/// batch are bit-identical to N independent calls; [`EvalStats`] counts
/// each image once for the whole batch. An empty batch returns no
/// relations and default stats without touching the database.
#[doc(hidden)]
pub fn evaluate(
    db: &CwDatabase,
    queries: &[Query],
    mode: AnswerMode,
    opts: ExactOptions,
    decomp: Option<&DbDecomposition>,
    base: Option<&PhysicalDb>,
) -> Result<(Vec<Relation>, EvalStats), LogicError> {
    for query in queries {
        query.check(db.voc())?;
    }
    if queries.is_empty() {
        return Ok((Vec::new(), EvalStats::default()));
    }
    let owned;
    let base = match base {
        Some(base) => base,
        None => {
            owned = ph1(db);
            &owned
        }
    };
    if mode == AnswerMode::Certain && opts.corollary2_fast_path && db.is_fully_specified() {
        let stats = EvalStats {
            fast_path: true,
            ..EvalStats::default()
        };
        let answers = queries.iter().map(|q| eval_query(base, q)).collect();
        return Ok((answers, stats));
    }
    let plan = plan_decomposition(db, queries, decomp);
    Ok(run_decomposed(db, base, queries, mode, opts, &plan))
}

/// [`evaluate`] for a single query.
fn evaluate_one(
    db: &CwDatabase,
    query: &Query,
    mode: AnswerMode,
    opts: ExactOptions,
) -> Result<(Relation, EvalStats), LogicError> {
    let (mut answers, stats) = evaluate(db, std::slice::from_ref(query), mode, opts, None, None)?;
    Ok((answers.pop().expect("one query in, one answer out"), stats))
}

/// Computes the certain answers `Q(LB)` with default options.
pub fn certain_answers(db: &CwDatabase, query: &Query) -> Result<Relation, LogicError> {
    certain_answers_with(db, query, ExactOptions::new()).map(|(rel, _)| rel)
}

/// Computes the certain answers with explicit options, reporting stats.
pub fn certain_answers_with(
    db: &CwDatabase,
    query: &Query,
    opts: ExactOptions,
) -> Result<(Relation, EvalStats), LogicError> {
    evaluate_one(db, query, AnswerMode::Certain, opts)
}

/// Batched [`certain_answers_with`]: evaluates every query in `queries`
/// against **one** mapping enumeration. The answers (and the per-query
/// relation order) are bit-identical to N independent calls; the returned
/// [`EvalStats`] counts each visited mapping once for the whole batch, so
/// `mappings_evaluated` is the shared enumeration total, not an N× sum.
///
/// An empty batch returns no relations and default stats without touching
/// the database.
pub fn certain_answers_batch_with(
    db: &CwDatabase,
    queries: &[Query],
    opts: ExactOptions,
) -> Result<(Vec<Relation>, EvalStats), LogicError> {
    evaluate(db, queries, AnswerMode::Certain, opts, None, None)
}

/// Batched [`possible_answers_with`]: the union dual of
/// [`certain_answers_batch_with`], with the same one-enumeration contract.
/// Early exit fires once every query has proven its whole candidate space
/// possible.
pub fn possible_answers_batch_with(
    db: &CwDatabase,
    queries: &[Query],
    opts: ExactOptions,
) -> Result<(Vec<Relation>, EvalStats), LogicError> {
    evaluate(db, queries, AnswerMode::Possible, opts, None, None)
}

/// Does the theory finitely imply the sentence? (`T ⊨_f σ`.)
///
/// # Panics
/// Panics if `query` is not Boolean.
pub fn certainly_holds(db: &CwDatabase, query: &Query) -> Result<bool, LogicError> {
    assert!(
        query.is_boolean(),
        "certainly_holds requires a Boolean query"
    );
    Ok(!certain_answers(db, query)?.is_empty())
}

/// The *possible* answers: tuples true in **some** model of the theory
/// (the union over mappings, where Theorem 1's characterization gives the
/// intersection). Not a notion the paper evaluates queries with, but the
/// natural dual; used by the examples to show what certainty excludes.
pub fn possible_answers(db: &CwDatabase, query: &Query) -> Result<Relation, LogicError> {
    possible_answers_with(db, query, ExactOptions::new()).map(|(rel, _)| rel)
}

/// Like [`possible_answers`], with explicit options, reporting the same
/// [`EvalStats`] that [`certain_answers_with`] does (the fast-path flag
/// stays `false` — there is no Corollary 2 analogue for possible answers).
/// Honors `opts.parallel`; the per-worker candidate sets merge by union.
pub fn possible_answers_with(
    db: &CwDatabase,
    query: &Query,
    opts: ExactOptions,
) -> Result<(Relation, EvalStats), LogicError> {
    evaluate_one(db, query, AnswerMode::Possible, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::parser::parse_query;
    use qld_logic::Vocabulary;

    /// The teaching database of §2.2 flavor: TEACHES(socrates, plato);
    /// `mystery` is a constant of unknown identity (no uniqueness axioms
    /// about it), while socrates/plato/aristotle are pairwise distinct.
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
    fn stored_fact_is_certain() {
        let db = teaching();
        let q = parse_query(db.voc(), "TEACHES(socrates, plato)").unwrap();
        assert!(certainly_holds(&db, &q).unwrap());
    }

    #[test]
    fn cwa_negative_fact_on_distinct_constants() {
        let db = teaching();
        // Aristotle provably isn't taught by Socrates: any model maps
        // aristotle to something ≠ plato... no wait — aristotle ≠ plato and
        // aristotle ≠ socrates are axioms, and completion says the only
        // TEACHES pair is (socrates, plato). So ¬TEACHES(socrates, aristotle)
        // is certain.
        let q = parse_query(db.voc(), "!TEACHES(socrates, aristotle)").unwrap();
        assert!(certainly_holds(&db, &q).unwrap());
    }

    #[test]
    fn unknown_value_blocks_negative_certainty() {
        let db = teaching();
        // `mystery` might BE plato, so ¬TEACHES(socrates, mystery) is NOT
        // certain…
        let q = parse_query(db.voc(), "!TEACHES(socrates, mystery)").unwrap();
        assert!(!certainly_holds(&db, &q).unwrap());
        // …and TEACHES(socrates, mystery) is not certain either: mystery
        // might be aristotle.
        let q = parse_query(db.voc(), "TEACHES(socrates, mystery)").unwrap();
        assert!(!certainly_holds(&db, &q).unwrap());
    }

    #[test]
    fn open_query_certain_answers() {
        let db = teaching();
        let q = parse_query(db.voc(), "(x) . TEACHES(socrates, x)").unwrap();
        let ans = certain_answers(&db, &q).unwrap();
        // Only plato is certainly taught (mystery isn't: it might be
        // aristotle).
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[1]));
    }

    #[test]
    fn possible_answers_superset() {
        let db = teaching();
        let q = parse_query(db.voc(), "(x) . TEACHES(socrates, x)").unwrap();
        let certain = certain_answers(&db, &q).unwrap();
        let possible = possible_answers(&db, &q).unwrap();
        assert!(certain.is_subset_of(&possible));
        // plato certainly; mystery possibly (it may be plato).
        assert_eq!(possible.len(), 2);
        assert!(possible.contains(&[1]));
        assert!(possible.contains(&[3]));
    }

    #[test]
    fn negated_open_query() {
        let db = teaching();
        let q = parse_query(db.voc(), "(x) . !TEACHES(socrates, x)").unwrap();
        let ans = certain_answers(&db, &q).unwrap();
        // socrates and aristotle are provably not taught by socrates;
        // plato is taught; mystery is unknown.
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[0]));
        assert!(ans.contains(&[2]));
    }

    #[test]
    fn corollary2_fast_path_agrees() {
        // Fully specified database: fast path == generic path.
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "c"]).unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let db = CwDatabase::builder(voc)
            .fact(r, &[ids[0], ids[1]])
            .fact(r, &[ids[1], ids[2]])
            .fully_specified()
            .build()
            .unwrap();
        for input in [
            "(x) . exists y. R(x, y)",
            "(x) . !R(x, x)",
            "(x, y) . R(x, y) & x != y",
            "forall x, y. R(x, y) -> x != y",
        ] {
            let q = parse_query(db.voc(), input).unwrap();
            let (fast, s1) = certain_answers_with(&db, &q, ExactOptions::new()).unwrap();
            assert!(s1.fast_path);
            assert_eq!(s1.workers_used, 0);
            let (slow, s2) = certain_answers_with(
                &db,
                &q,
                ExactOptions {
                    corollary2_fast_path: false,
                    ..ExactOptions::new()
                },
            )
            .unwrap();
            assert!(!s2.fast_path);
            assert!(s2.workers_used >= 1);
            assert_eq!(fast, slow, "fast path mismatch on {input}");
        }
    }

    #[test]
    fn equality_queries_track_uniqueness() {
        let db = teaching();
        // socrates != plato is an axiom → certain.
        let q = parse_query(db.voc(), "socrates != plato").unwrap();
        assert!(certainly_holds(&db, &q).unwrap());
        // mystery != plato is not an axiom → not certain.
        let q = parse_query(db.voc(), "mystery != plato").unwrap();
        assert!(!certainly_holds(&db, &q).unwrap());
        // mystery = plato is not certain either (mystery may be fresh).
        let q = parse_query(db.voc(), "mystery = plato").unwrap();
        assert!(!certainly_holds(&db, &q).unwrap());
    }

    #[test]
    fn domain_closure_is_certain() {
        let db = teaching();
        // Every object is one of the named constants (domain closure).
        let q = parse_query(
            db.voc(),
            "forall x. x = socrates | x = plato | x = aristotle | x = mystery",
        )
        .unwrap();
        assert!(certainly_holds(&db, &q).unwrap());
    }

    #[test]
    fn stats_report_early_exit() {
        let db = teaching();
        // A sentence falsified by the very first kernel mapping (the
        // maximal merge h=[0,1,2,0] — kernel enumeration reuses block 0
        // before opening new blocks) exits immediately.
        let q = parse_query(db.voc(), "TEACHES(plato, socrates)").unwrap();
        let (ans, stats) = certain_answers_with(
            &db,
            &q,
            ExactOptions {
                corollary2_fast_path: false,
                ..ExactOptions::sequential()
            },
        )
        .unwrap();
        assert!(ans.is_empty());
        assert_eq!(stats.mappings_evaluated, 1);
        assert_eq!(stats.workers_used, 1);
    }

    #[test]
    fn early_exit_disabled_accounts_for_every_mapping() {
        use crate::mappings::count_kernel_mappings;
        let db = teaching();
        let q = parse_query(db.voc(), "TEACHES(plato, socrates)").unwrap();
        let opts = ExactOptions {
            corollary2_fast_path: false,
            early_exit: false,
            ..ExactOptions::sequential()
        };
        let (ans, stats) = certain_answers_with(&db, &q, opts).unwrap();
        assert!(ans.is_empty());
        assert_eq!(
            stats.mappings_evaluated + stats.mappings_pruned,
            count_kernel_mappings(&db)
        );
        let (_, pstats) = possible_answers_with(&db, &q, opts).unwrap();
        assert_eq!(pstats, stats);
    }

    /// An early exit after one image over a path of 16 NE-linked
    /// constants: the kernel tree has Bell(15) ≈ 1.4·10⁹ leaves, and the
    /// statistic of what the walk skipped counts only up to its cap. (The
    /// uncapped count walked the whole component: 0.19 s at 14 constants
    /// in a release build, about 6× per constant added.)
    #[test]
    fn an_early_exit_counts_what_it_skipped_only_up_to_the_cap() {
        let mut voc = Vocabulary::new();
        let names: Vec<String> = (0..16).map(|i| format!("c{i}")).collect();
        let ids = voc.add_consts(names.iter().map(String::as_str)).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        let mut builder = CwDatabase::builder(voc).fact(p, &[ids[0]]);
        for pair in ids.windows(2) {
            builder = builder.unique(pair[0], pair[1]);
        }
        let db = builder.build().unwrap();
        let q = parse_query(db.voc(), "(x) . P(x) & !P(x)").unwrap();
        let (ans, stats) = certain_answers_with(&db, &q, ExactOptions::sequential()).unwrap();
        assert!(ans.is_empty());
        assert_eq!(stats.mappings_evaluated, 1);
        assert_eq!(stats.mappings_pruned, PRUNED_COUNT_CAP);
    }

    #[test]
    fn decomposition_prunes_free_constant_images() {
        use crate::mappings::count_kernel_mappings;
        let db = teaching();
        // `mystery` is free (no NE edge, no fact) and unmentioned: the
        // pairwise-distinct core {socrates, plato, aristotle} has exactly
        // one kernel partition, and the free constant contributes e ∈
        // {0, 1} null-only blocks — 2 canonical images stand in for all 4
        // kernel mappings.
        let q = parse_query(db.voc(), "TEACHES(plato, socrates)").unwrap();
        let opts = ExactOptions {
            corollary2_fast_path: false,
            early_exit: false,
            ..ExactOptions::sequential()
        };
        let (ans, stats) = certain_answers_with(&db, &q, opts).unwrap();
        assert!(ans.is_empty());
        assert_eq!(stats.mappings_evaluated, 2);
        assert_eq!(count_kernel_mappings(&db), 4);
        assert_eq!(stats.mappings_pruned, 2);
        // NE components: the pairwise-distinct triangle plus the isolated
        // `mystery` singleton.
        assert_eq!(stats.components, 2);

        // A query that *mentions* the free constant pins it into the core:
        // nothing left to collapse, one image per kernel mapping.
        let qm = parse_query(db.voc(), "exists x. TEACHES(x, mystery)").unwrap();
        let (_, mstats) = certain_answers_with(&db, &qm, opts).unwrap();
        assert_eq!(mstats.mappings_evaluated, count_kernel_mappings(&db));
        assert_eq!(mstats.mappings_pruned, 0);
    }

    #[test]
    fn parallel_certain_and_possible_match_sequential() {
        let db = teaching();
        for input in [
            "(x) . TEACHES(socrates, x)",
            "(x) . !TEACHES(socrates, x)",
            "(x, y) . TEACHES(x, y)",
            "TEACHES(plato, socrates)",
            "exists x. TEACHES(x, mystery)",
        ] {
            let q = parse_query(db.voc(), input).unwrap();
            let seq = ExactOptions {
                corollary2_fast_path: false,
                ..ExactOptions::sequential()
            };
            let (cs, _) = certain_answers_with(&db, &q, seq).unwrap();
            let (ps, _) = possible_answers_with(&db, &q, seq).unwrap();
            for threads in [2usize, 4, 8] {
                let par = ExactOptions {
                    corollary2_fast_path: false,
                    ..ExactOptions::with_threads(threads)
                };
                let (cp, cstats) = certain_answers_with(&db, &q, par).unwrap();
                let (pp, _) = possible_answers_with(&db, &q, par).unwrap();
                assert_eq!(cs, cp, "certain mismatch on {input} at {threads} threads");
                assert_eq!(ps, pp, "possible mismatch on {input} at {threads} threads");
                assert!(cstats.workers_used >= 1);
            }
        }
    }

    #[test]
    fn default_options_are_the_recommended_settings() {
        // The old `#[derive(Default)]` footgun (`corollary2_fast_path:
        // false`) is gone: `default()` *is* `new()`.
        let d = ExactOptions::default();
        assert!(d.corollary2_fast_path);
        assert!(d.early_exit);
    }

    #[test]
    fn batch_matches_independent_calls() {
        let db = teaching();
        let queries: Vec<Query> = [
            "(x) . TEACHES(socrates, x)",
            "(x) . !TEACHES(socrates, x)",
            "(x, y) . TEACHES(x, y)",
            "TEACHES(socrates, plato)",
            "exists x. TEACHES(x, mystery)",
        ]
        .iter()
        .map(|s| parse_query(db.voc(), s).unwrap())
        .collect();
        for threads in [1usize, 4] {
            let opts = ExactOptions {
                corollary2_fast_path: false,
                ..ExactOptions::with_threads(threads)
            };
            let (certain, cstats) = certain_answers_batch_with(&db, &queries, opts).unwrap();
            let (possible, pstats) = possible_answers_batch_with(&db, &queries, opts).unwrap();
            assert_eq!(certain.len(), queries.len());
            assert!(cstats.workers_used >= 1);
            assert!(pstats.workers_used >= 1);
            for (i, q) in queries.iter().enumerate() {
                let (solo_c, _) = certain_answers_with(&db, q, opts).unwrap();
                let (solo_p, _) = possible_answers_with(&db, q, opts).unwrap();
                assert_eq!(certain[i], solo_c, "certain batch diverged on query {i}");
                assert_eq!(possible[i], solo_p, "possible batch diverged on query {i}");
            }
        }
    }

    #[test]
    fn batch_shares_one_enumeration() {
        use crate::mappings::count_kernel_mappings;
        let db = teaching();
        // Queries whose candidate sets never fully stabilize: the batch
        // must walk the entire kernel set exactly once.
        let queries: Vec<Query> = [
            "(x) . TEACHES(socrates, x) | x = x",
            "(x, y) . TEACHES(x, y) | y = y",
            "(x) . !TEACHES(x, x) | x = x",
        ]
        .iter()
        .map(|s| parse_query(db.voc(), s).unwrap())
        .collect();
        let opts = ExactOptions {
            corollary2_fast_path: false,
            ..ExactOptions::sequential()
        };
        // One shared enumeration: the batch total is the widest solo total
        // (the members' EF caps differ), not a 3× sum, and it accounts for
        // every kernel mapping.
        let (batch, stats) = certain_answers_batch_with(&db, &queries, opts).unwrap();
        assert_eq!(
            stats.mappings_evaluated + stats.mappings_pruned,
            count_kernel_mappings(&db)
        );
        let mut widest = 0;
        for (i, q) in queries.iter().enumerate() {
            let (solo, sstats) = certain_answers_with(&db, q, opts).unwrap();
            assert_eq!(batch[i], solo, "batch diverged on query {i}");
            widest = widest.max(sstats.mappings_evaluated);
        }
        assert_eq!(stats.mappings_evaluated, widest);
    }

    #[test]
    fn batch_empty_and_fast_path() {
        let db = teaching();
        let (answers, stats) =
            certain_answers_batch_with(&db, &[], ExactOptions::sequential()).unwrap();
        assert!(answers.is_empty());
        assert_eq!(stats.mappings_evaluated, 0);

        // Fully specified database: the batch takes the Corollary 2 fast
        // path, one physical evaluation per query, no enumeration.
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b"]).unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let fdb = CwDatabase::builder(voc)
            .fact(r, &[ids[0], ids[1]])
            .fully_specified()
            .build()
            .unwrap();
        let queries: Vec<Query> = ["(x) . exists y. R(x, y)", "(x) . !R(x, x)"]
            .iter()
            .map(|s| parse_query(fdb.voc(), s).unwrap())
            .collect();
        let (answers, stats) =
            certain_answers_batch_with(&fdb, &queries, ExactOptions::sequential()).unwrap();
        assert!(stats.fast_path);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(answers[i], certain_answers(&fdb, q).unwrap());
        }
    }

    #[test]
    fn invalid_query_rejected() {
        let db = teaching();
        // Build a query against a different vocabulary.
        let mut other = Vocabulary::new();
        other.add_const("zeus").unwrap();
        other.add_pred("TEACHES", 3).unwrap();
        let q = parse_query(&other, "exists x, y, w. TEACHES(x, y, w)").unwrap();
        assert!(certain_answers(&db, &q).is_err());
    }

    #[test]
    fn second_order_certain_answers() {
        // Theorem 9 situations: SO queries are legal inputs too. On a tiny
        // database, ∃S (S contains exactly the taught people) is trivially
        // certain.
        let db = teaching();
        let q = parse_query(
            db.voc(),
            "exists2 ?S:1. forall x. (?S(x) -> exists t. TEACHES(t, x)) \
             & ((exists t. TEACHES(t, x)) -> ?S(x))",
        )
        .unwrap();
        assert!(certainly_holds(&db, &q).unwrap());
    }
}
