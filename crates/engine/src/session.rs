//! The [`Engine`] session type and its builder.

use crate::cache::AnswerCache;
use crate::delta::{Delta, DeltaReport, DeltaStats, QueryFootprint};
use crate::error::EngineError;
use crate::evidence::{Answers, Certificate, Evidence, Regime, Semantics};
use crate::prepared::PreparedQuery;
use qld_algebra::{compile_query_ordered, execute, optimize};
use qld_approx::{exactness_theorem, AlphaMode, ApproxEngine, Backend, CompletenessTheorem};
use qld_core::exact::{evaluate, AnswerMode, EvalStats, ExactOptions};
use qld_core::mappings::{
    analyze_decomposition, count_kernel_mappings_up_to, DbDecomposition, ParallelConfig,
};
use qld_core::ph::ph1;
use qld_core::CwDatabase;
use qld_logic::parser::parse_query;
use qld_logic::{Formula, PredId, Query};
use qld_physical::{eval_query, Elem, PhysicalDb, Relation, TupleSpace};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// Cap on cached answers per engine. The cache stays useful for any
/// realistic prepared-query working set while a many-distinct-query
/// adversary cannot grow it without bound.
const DEFAULT_ANSWER_CACHE_CAPACITY: usize = 4096;

/// Cumulative delta bookkeeping (see [`DeltaStats`]). The re-certification
/// counter is atomic because certificates are revalidated on the `&self`
/// execution path; everything else is only written by `&mut self`
/// [`Engine::apply`].
#[derive(Debug, Default)]
struct DeltaCounters {
    deltas_applied: u64,
    facts_inserted: u64,
    ne_inserted: u64,
    cache_evicted: u64,
    recertified: AtomicU64,
}

impl Clone for DeltaCounters {
    fn clone(&self) -> DeltaCounters {
        DeltaCounters {
            deltas_applied: self.deltas_applied,
            facts_inserted: self.facts_inserted,
            ne_inserted: self.ne_inserted,
            cache_evicted: self.cache_evicted,
            recertified: AtomicU64::new(self.recertified.load(Ordering::Relaxed)),
        }
    }
}

/// What one evaluation run produced, before packaging into [`Answers`].
#[derive(Clone)]
struct RunOutcome {
    tuples: Relation,
    regime: Regime,
    certificate: Certificate,
    stats: EvalStats,
    /// Components whose decomposition analysis came from the engine's
    /// cross-delta cache (see [`Evidence::components_reused`]).
    components_reused: u32,
    /// Certified upper bound, set only by the over-budget bounded pair.
    upper: Option<Relation>,
}

impl RunOutcome {
    /// An outcome from a polynomial regime: no mappings enumerated, no
    /// workers, no upper bound.
    fn polynomial(tuples: Relation, regime: Regime, certificate: Certificate) -> RunOutcome {
        RunOutcome {
            tuples,
            regime,
            certificate,
            stats: EvalStats::default(),
            components_reused: 0,
            upper: None,
        }
    }
}

/// Packages a run's outcome as [`Answers`] with full [`Evidence`],
/// stamped with the database epoch the run computed against.
fn package(
    outcome: RunOutcome,
    semantics: Semantics,
    shared_batch: Option<usize>,
    start: Instant,
    epoch: u64,
) -> Answers {
    Answers::new(
        outcome.tuples,
        outcome.upper,
        Evidence {
            requested: semantics,
            regime: outcome.regime,
            certificate: outcome.certificate,
            elapsed: start.elapsed(),
            mappings_evaluated: outcome.stats.mappings_evaluated,
            workers_used: outcome.stats.workers_used,
            components: outcome.stats.components,
            mappings_pruned: outcome.stats.mappings_pruned,
            components_reused: outcome.components_reused,
            cache_hit: false,
            shared_batch,
            epoch,
        },
    )
}

/// How the engine stores the `NE` inequality relation for the §5 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeStoreMode {
    /// Materialize `NE` as an explicit `O(|C|²)` relation (the default).
    #[default]
    Explicit,
    /// The virtual representation §5 closes with: keep only `NE′` and the
    /// unknown-marker `U`, and expand `NE(x,y)` atoms into
    /// `NE′(x,y) ∨ (¬U(x) ∧ ¬U(y) ∧ ¬(x = y))` at rewrite time.
    Virtual,
}

/// Immutable evaluation configuration, set by [`EngineBuilder`].
#[derive(Debug, Clone, Copy, Default)]
struct EngineConfig {
    backend: Backend,
    alpha: AlphaMode,
    ne_store: NeStoreMode,
    corollary2_fast_path: bool,
    parallel: ParallelConfig,
    /// `Some(b)`: under [`Semantics::Auto`], refuse Theorem 1 escalations
    /// whose kernel-mapping count exceeds `b` and return certified bounds
    /// instead. `None` (the default) escalates unconditionally.
    mapping_budget: Option<u64>,
    /// Whether the answer cache starts enabled.
    answer_cache: bool,
}

/// Configures and constructs an [`Engine`]. Obtained from
/// [`Engine::builder`]; every knob has a sensible default
/// ([`Semantics::Auto`], naive backend, materialized `α_P`, explicit `NE`,
/// Corollary 2 fast path on).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    db: CwDatabase,
    semantics: Semantics,
    config: EngineConfig,
}

impl EngineBuilder {
    fn new(db: CwDatabase) -> EngineBuilder {
        EngineBuilder {
            db,
            semantics: Semantics::default(),
            config: EngineConfig {
                corollary2_fast_path: true,
                answer_cache: true,
                ..EngineConfig::default()
            },
        }
    }

    /// The session's default answer semantics (overridable per call with
    /// [`Engine::execute_as`]).
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Which machinery evaluates the §5 rewrite `Q̂`: the naive Tarskian
    /// evaluator or the relational-algebra engine.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// How `¬P(x̄)` is realized in `Q̂`: a scan of the materialized `α_P`
    /// relation, or the literal Lemma 10 formula.
    pub fn alpha_mode(mut self, alpha: AlphaMode) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Explicit or virtual `NE` storage for the §5 path.
    pub fn ne_store(mut self, mode: NeStoreMode) -> Self {
        self.config.ne_store = mode;
        self
    }

    /// Worker threads for the Theorem 1 / possible-answer mapping
    /// enumeration: `1` is sequential, `0` means one worker per available
    /// CPU. Defaults to the `QLD_THREADS` environment variable (else
    /// sequential). Answers are bit-identical at any thread count;
    /// [`Evidence`](crate::Evidence) reports `workers_used` and the
    /// mapping total summed across workers.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.config.parallel = ParallelConfig::new(threads);
        self
    }

    /// Enables/disables the Corollary 2 fast path under
    /// [`Semantics::Exact`] (on by default; [`Semantics::Auto`] always
    /// uses it on fully specified databases — that is its certificate).
    pub fn corollary2_fast_path(mut self, enabled: bool) -> Self {
        self.config.corollary2_fast_path = enabled;
        self
    }

    /// Caps how many kernel mappings an [`Semantics::Auto`] escalation may
    /// enumerate. When the database's kernel count exceeds the budget, the
    /// engine refuses the hopeless Theorem 1 run and returns the certified
    /// bracket instead: the §5 lower bound as the tuples, plus a certified
    /// upper bound (see [`Certificate::BoundedPair`] and
    /// [`Answers::upper_bound`]) — both polynomial. The budget probe
    /// itself is cheap: the kernel tree is counted with early abort at
    /// `budget + 1`, once per engine. Unset by default (always escalate).
    pub fn mapping_budget(mut self, budget: u64) -> Self {
        self.config.mapping_budget = Some(budget);
        self
    }

    /// Enables/disables the answer cache (on by default): finished answers
    /// are stored per `(prepared query, semantics)` and repeated executions
    /// are served back without re-running any regime, marked with
    /// [`Evidence::cache_hit`]. Can also be toggled on a live engine with
    /// [`Engine::set_cache_enabled`].
    pub fn answer_cache(mut self, enabled: bool) -> Self {
        self.config.answer_cache = enabled;
        self
    }

    /// Finalizes the engine.
    pub fn build(self) -> Engine {
        Engine {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            db: self.db,
            semantics: self.semantics,
            cache: Arc::new(AnswerCache::new(
                self.config.answer_cache,
                DEFAULT_ANSWER_CACHE_CAPACITY,
            )),
            config: self.config,
            approx: OnceLock::new(),
            ph1: OnceLock::new(),
            kernel_count: OnceLock::new(),
            decomp: OnceLock::new(),
            epoch: 0,
            counters: DeltaCounters::default(),
        }
    }
}

/// A query-evaluation session over one closed-world logical database.
///
/// `Engine` is the single front door to every evaluation regime the paper
/// describes. Queries are [`prepare`](Engine::prepare)d once (parse,
/// validate, classify, rewrite to `Q̂`, compile to algebra) and executed
/// many times under any [`Semantics`]; every answer carries an
/// [`Evidence`] report with an exactness [`Certificate`].
///
/// # Which theorem justifies which certificate
///
/// | Certificate | Paper result | When issued |
/// |---|---|---|
/// | [`Certificate::ExactTheorem1`] | Theorem 1 | the full mapping enumeration ran (`Exact` semantics off the fast path, or `Auto` escalation) |
/// | [`Certificate::ExactCorollary2`] | Corollary 2 | the database is fully specified and one evaluation over `Ph₁(LB)` answered the query |
/// | [`Certificate::ExactCompleteness`]`(`[`CompletenessTheorem::FullySpecified`]`)` | Theorems 11 + 12 | the §5 approximation ran on a fully specified database |
/// | [`Certificate::ExactCompleteness`]`(`[`CompletenessTheorem::PositiveQuery`]`)` | Theorems 11 + 13 | the §5 approximation ran on a positive first-order query |
/// | [`Certificate::SoundLowerBound`] | Theorem 11 | the §5 approximation ran and no completeness theorem applies |
/// | [`Certificate::PossibleUpperBound`] | dual of Theorem 1 | possible-answer semantics ran |
///
/// Under [`Semantics::Auto`] the engine never returns an uncertified
/// answer: it picks Corollary 2 on fully specified databases, the §5
/// approximation (exact by Theorem 13) on positive first-order queries,
/// and escalates to the Theorem 1 enumeration only when neither
/// completeness theorem applies.
///
/// # Example
///
/// ```
/// use qld_engine::{Engine, Semantics};
/// use qld_core::CwDatabase;
/// use qld_logic::Vocabulary;
///
/// let mut voc = Vocabulary::new();
/// let ids = voc.add_consts(["socrates", "plato", "mystery"]).unwrap();
/// let teaches = voc.add_pred("TEACHES", 2).unwrap();
/// let db = CwDatabase::builder(voc)
///     .fact(teaches, &[ids[0], ids[1]])
///     .unique(ids[0], ids[1])
///     .build()
///     .unwrap();
///
/// let engine = Engine::builder(db).semantics(Semantics::Auto).build();
/// let prepared = engine.prepare_text("(x) . TEACHES(socrates, x)").unwrap();
/// let answers = engine.execute(&prepared).unwrap();
/// assert!(answers.is_exact()); // positive query → Theorem 13 certificate
/// assert_eq!(engine.answer_names(&answers), vec![vec!["plato"]]);
/// ```
#[derive(Debug)]
pub struct Engine {
    id: u64,
    db: CwDatabase,
    semantics: Semantics,
    config: EngineConfig,
    /// §5 machinery (`Ph₂(LB)`, `α_P`, `NE`), built on first use.
    approx: OnceLock<ApproxEngine>,
    /// `Ph₁(LB)`, cached for the Corollary 2 fast path.
    ph1: OnceLock<PhysicalDb>,
    /// Kernel-mapping count probed against `config.mapping_budget`,
    /// computed once per axiom epoch with early abort at `budget + 1`
    /// (reset by [`Engine::apply`] when a delta adds uniqueness axioms —
    /// the count depends only on the axiom set, never on the facts).
    kernel_count: OnceLock<u64>,
    /// Cross-delta cache of the NE-component / free-constant analysis the
    /// Theorem 1 enumeration starts from. Invalidated by [`Engine::apply`]
    /// when a delta adds NE axioms (components can merge), or when an
    /// inserted fact mentions a currently-free constant (that constant
    /// stops being free); insert-only fact deltas over core constants
    /// keep it warm, and [`Evidence::components_reused`] reports the
    /// reuse per answer.
    decomp: OnceLock<DbDecomposition>,
    /// The answer cache: this engine's own, except that the snapshots a
    /// [`SharedEngine`](crate::SharedEngine) publishes share their
    /// writer's (see [`Engine::snapshot`]).
    cache: Arc<AnswerCache>,
    /// Database epoch: bumped by every [`Engine::apply`] that changed
    /// anything. Prepared queries record the epoch they were certified
    /// at; a mismatch means the completeness certificate must be
    /// recomputed before it is trusted (see [`Engine::recertify`]).
    epoch: u64,
    /// Cumulative delta bookkeeping (see [`Engine::delta_stats`]).
    counters: DeltaCounters,
}

impl Clone for Engine {
    /// Clones the session configuration and database. The clone keeps the
    /// engine id — prepared queries remain executable on it — but starts
    /// with an **empty** answer cache of its own: the two engines evolve
    /// independently from here, and may reach different databases at
    /// equal epoch numbers, which one cache could not tell apart.
    ///
    /// The database is *shared*, not copied: the clone holds the same
    /// `Arc`ed vocabulary, fact relations and axiom list (one
    /// reference-count bump each), and a later [`Engine::apply`] on either
    /// side copies on write only the relation — or the axiom list — its
    /// delta really changes, so the cost of a clone does not depend on the
    /// number of facts. Derived structures already built (`Ph₁`, the §5
    /// machinery, the decomposition memo) are copied by value.
    fn clone(&self) -> Engine {
        let cache = AnswerCache::new(self.cache.is_enabled(), self.cache.capacity());
        self.with_cache(Arc::new(cache))
    }
}

impl Engine {
    /// Starts configuring an engine over `db`.
    pub fn builder(db: CwDatabase) -> EngineBuilder {
        EngineBuilder::new(db)
    }

    fn with_cache(&self, cache: Arc<AnswerCache>) -> Engine {
        Engine {
            id: self.id,
            db: self.db.clone(),
            semantics: self.semantics,
            config: self.config,
            approx: self.approx.clone(),
            ph1: self.ph1.clone(),
            kernel_count: self.kernel_count.clone(),
            decomp: self.decomp.clone(),
            cache,
            epoch: self.epoch,
            counters: self.counters.clone(),
        }
    }

    /// A [`Clone`] that *shares* this engine's answer cache: the frozen
    /// copy a [`SharedEngine`](crate::SharedEngine) publishes of its
    /// writer. Sound only because that copy is never mutated and the
    /// writer is the one line of history behind it — an epoch number then
    /// names one database for everyone who reads the cache.
    pub(crate) fn snapshot(&self) -> Engine {
        self.with_cache(self.cache.clone())
    }

    /// An engine with all defaults ([`Semantics::Auto`], naive backend).
    pub fn new(db: CwDatabase) -> Engine {
        EngineBuilder::new(db).build()
    }

    /// The underlying closed-world database.
    pub fn db(&self) -> &CwDatabase {
        &self.db
    }

    /// The session's current default semantics.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Changes the session's default semantics (prepared queries stay
    /// valid — their artifacts are semantics-independent).
    pub fn set_semantics(&mut self, semantics: Semantics) {
        self.semantics = semantics;
    }

    /// The configured enumeration worker-thread count (`0` = one per CPU;
    /// see [`EngineBuilder::parallelism`]).
    pub fn parallelism(&self) -> usize {
        self.config.parallel.threads
    }

    /// Changes the enumeration worker-thread count (prepared queries stay
    /// valid — the thread count never changes an answer, only how fast the
    /// Theorem 1 and possible-answer enumerations run).
    pub fn set_parallelism(&mut self, threads: usize) {
        self.config.parallel = ParallelConfig::new(threads);
    }

    /// The §5 approximation machinery, built lazily on first use (it
    /// materializes `Ph₂(LB)`, the `α_P` relations, and the configured
    /// `NE` store — all polynomial).
    pub fn approx_engine(&self) -> &ApproxEngine {
        self.approx.get_or_init(|| match self.config.ne_store {
            NeStoreMode::Explicit => ApproxEngine::new(&self.db),
            NeStoreMode::Virtual => ApproxEngine::with_virtual_ne(&self.db),
        })
    }

    fn ph1_db(&self) -> &PhysicalDb {
        self.ph1.get_or_init(|| ph1(&self.db))
    }

    /// Parses and [`prepare`](Engine::prepare)s a query in the surface
    /// syntax.
    pub fn prepare_text(&self, text: &str) -> Result<PreparedQuery, EngineError> {
        self.prepare(parse_query(self.db.voc(), text)?)
    }

    /// Prepares a query: validates it against the vocabulary, classifies
    /// it, determines the completeness certificate, rewrites it to the §5
    /// `Q̂`, and — when the configured backend is [`Backend::Algebra`] —
    /// compiles `Q̂` to an optimized algebra plan (first-order `Q̂` only;
    /// the naive backend evaluates `Q̂` directly, so compiling for it
    /// would be wasted work). The result can be executed any number of
    /// times under any semantics.
    ///
    /// Preparation forces the one-time lazy build of the §5 machinery
    /// ([`Engine::approx_engine`]); the per-query artifacts themselves
    /// (NNF + rewrite, and the plan where applicable) are polynomial in
    /// the query and schema.
    pub fn prepare(&self, query: Query) -> Result<PreparedQuery, EngineError> {
        query.check(self.db.voc())?;
        let class = query.class();
        let completeness = exactness_theorem(&self.db, &query);
        let approx = self.approx_engine();
        let rewritten = approx.rewrite(&query, self.config.alpha)?;
        let plan = match self.config.backend {
            Backend::Naive => None,
            Backend::Algebra(_) => self.compile_plan(&rewritten)?,
        };
        let fingerprint = {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            query.hash(&mut hasher);
            hasher.finish()
        };
        let footprint = QueryFootprint::of(&query);
        Ok(PreparedQuery {
            engine_id: self.id,
            epoch: self.epoch,
            query,
            class,
            completeness,
            rewritten,
            plan,
            fingerprint,
            footprint,
        })
    }

    /// Whether the answer cache is currently enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_enabled()
    }

    /// Turns the answer cache on or off. Disabling stops both lookups and
    /// inserts but keeps existing entries ([`Engine::apply`] keeps them
    /// true, so re-enabling reuses them); use
    /// [`Engine::invalidate_cache`] to drop them.
    pub fn set_cache_enabled(&self, enabled: bool) {
        self.cache.set_enabled(enabled);
    }

    /// Number of answers currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Maximum number of answers the cache holds; past it the least
    /// recently used answer of the incoming answer's shard goes.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// `(shards holding an answer, answers in the fullest shard)`.
    pub(crate) fn cache_occupancy(&self) -> (usize, usize) {
        self.cache.occupancy()
    }

    /// Drops every cached answer unconditionally. Never needed for
    /// correctness — [`Engine::apply`] evicts what its delta touches — it
    /// is for callers who want a cold cache (e.g. benchmarking).
    pub fn invalidate_cache(&self) {
        self.cache.clear();
    }

    /// The current database epoch: `0` at construction, bumped by every
    /// [`Engine::apply`] call that changed the database. Prepared queries
    /// carry the epoch they were certified at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restores the epoch counter after a WAL recovery: an engine rebuilt
    /// from a checkpoint serialized at epoch `n` must resume the epoch
    /// stream at `n`, not restart it at 0 (replayed records assert that
    /// each lands on exactly the epoch it was logged at).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Cumulative delta counters for this engine (deltas applied, facts
    /// and axioms inserted, cache entries evicted by footprint
    /// invalidation, certificates re-classified).
    pub fn delta_stats(&self) -> DeltaStats {
        DeltaStats {
            deltas_applied: self.counters.deltas_applied,
            facts_inserted: self.counters.facts_inserted,
            ne_inserted: self.counters.ne_inserted,
            cache_evicted: self.counters.cache_evicted,
            queries_recertified: self.counters.recertified.load(Ordering::Relaxed),
        }
    }

    /// Applies a [`Delta`] — fact insertions and uniqueness-axiom
    /// additions — by **incremental maintenance**, not re-derivation:
    ///
    /// * the [`CwDatabase`] is refreshed in place (sorted inserts);
    /// * `Ph₁(LB)`, if already built, grows by the same sorted inserts
    ///   ([`PhysicalDb::insert_tuple`]);
    /// * the §5 machinery (`Ph₂(LB)`, the `α_P` relations, the `NE`
    ///   store), if already built, is refreshed by
    ///   [`ApproxEngine::apply_delta`] — fact insertions shrink the
    ///   affected `α_P` by a retain pass, axiom insertions extend the
    ///   `NE` store in place and grow the `α_P` relations by rechecking
    ///   only their complements;
    /// * the kernel-count probe for the mapping budget is reset only when
    ///   axioms were added (it never depends on facts);
    /// * the answer cache is invalidated **selectively**: a delta
    ///   touching predicate `P` evicts only the entries whose
    ///   [`QueryFootprint`] mentions `P`, and an axiom delta additionally
    ///   evicts the axiom-sensitive entries (anything that is not a
    ///   positive first-order query under a non-possible semantics);
    ///   the entries that were current and survive are served at the new
    ///   epoch too.
    ///
    /// Validation is all-or-nothing: every fact and axiom is checked
    /// against the vocabulary first, and an invalid delta changes
    /// nothing. Duplicates of already-present axioms are counted as
    /// no-ops in the returned [`DeltaReport`]; a delta of pure duplicates
    /// leaves the epoch (and cache) untouched.
    ///
    /// Prepared queries stay executable across deltas — their rewrite and
    /// plan reference predicate *ids*, which are stable — but their
    /// completeness certificate may be stale (new axioms can make the
    /// database fully specified, changing how `Auto` routes). The engine
    /// re-certifies stale prepared queries automatically at execution
    /// time; call [`Engine::recertify`] to refresh one eagerly.
    ///
    /// The result is answer-for-answer identical to rebuilding an engine
    /// from the mutated database (property-tested in
    /// `tests/delta_differential.rs`); the cost is proportional to what
    /// changed, not to the database.
    pub fn apply(&mut self, delta: &Delta) -> Result<DeltaReport, EngineError> {
        // All-or-nothing: validate the whole delta before mutating.
        for (p, args) in &delta.facts {
            self.db.check_fact(*p, args)?;
        }
        for &(a, b) in &delta.ne_pairs {
            self.db.check_ne(a, b)?;
        }
        let mut report = DeltaReport::default();
        let mut new_facts: Vec<(PredId, Box<[Elem]>)> = Vec::new();
        for (p, args) in &delta.facts {
            if self.db.insert_fact(*p, args).expect("fact was validated") {
                new_facts.push((*p, args.iter().map(|c| c.0).collect()));
                report.facts_inserted += 1;
            } else {
                report.facts_duplicate += 1;
            }
        }
        let was_fully_specified = self.db.is_fully_specified();
        let mut new_ne: Vec<(Elem, Elem)> = Vec::new();
        for &(a, b) in &delta.ne_pairs {
            if self.db.insert_ne(a, b).expect("axiom was validated") {
                new_ne.push((a.0.min(b.0), a.0.max(b.0)));
                report.ne_inserted += 1;
            } else {
                report.ne_duplicate += 1;
            }
        }
        self.counters.deltas_applied += 1;
        if new_facts.is_empty() && new_ne.is_empty() {
            // Pure duplicates: the database (and every derived structure,
            // cached answer, and certificate) is unchanged.
            report.epoch = self.epoch;
            report.cache_retained = self.cache.len();
            return Ok(report);
        }
        if let Some(ph1_db) = self.ph1.get_mut() {
            for (p, tuple) in &new_facts {
                ph1_db
                    .insert_tuple(*p, tuple)
                    .expect("fact constants are Ph₁ domain elements");
            }
        }
        if let Some(approx) = self.approx.get_mut() {
            approx.apply_delta(&self.db, &new_facts, &new_ne);
        }
        if !new_ne.is_empty() {
            // The respecting-mapping count depends only on the axiom set.
            self.kernel_count = OnceLock::new();
            // New NE edges merge components and un-free their endpoints.
            self.decomp = OnceLock::new();
        } else if let Some(d) = self.decomp.get() {
            // A fact delta never frees a constant, but capturing one ends
            // its freedom: re-analyze only when an inserted fact mentions
            // a currently-free constant. Insert-only deltas over core
            // constants keep the analysis warm across the epoch bump.
            if new_facts
                .iter()
                .any(|(_, tuple)| tuple.iter().any(|&c| d.is_free(c)))
            {
                self.decomp = OnceLock::new();
            }
        }
        let mut touched: Vec<PredId> = new_facts.iter().map(|(p, _)| *p).collect();
        touched.sort_unstable();
        touched.dedup();
        let ne_added = !new_ne.is_empty();
        // When this delta makes the database fully specified, every
        // cached *certificate* goes stale — even the axiom-insensitive
        // positive entries, whose tuples would survive but which a fresh
        // engine now vouches for with Corollary 2 / Theorem 12 instead of
        // Theorem 13 (or Theorem 1 under `Exact`). Cached answers must be
        // bit-identical to a fresh run, evidence included, so the flip
        // (which can happen at most once per engine) evicts everything.
        let flipped = !was_fully_specified && self.db.is_fully_specified();
        // Before the new epoch exists for anyone: no reader can look an
        // entry up at an epoch the cache has not been advanced to.
        let affected = |footprint: &QueryFootprint, semantics| {
            flipped
                || footprint.mentions_any(&touched)
                || (ne_added && footprint.ne_sensitive(semantics))
        };
        let (evicted, retained) = self.cache.advance(self.epoch, self.epoch + 1, affected);
        report.cache_evicted = evicted;
        report.cache_retained = retained;
        self.epoch += 1;
        report.epoch = self.epoch;
        self.counters.facts_inserted += report.facts_inserted as u64;
        self.counters.ne_inserted += report.ne_inserted as u64;
        self.counters.cache_evicted += evicted as u64;
        Ok(report)
    }

    /// Re-runs the completeness classification for a prepared query
    /// against the *current* database and stamps it with the current
    /// epoch. Returns whether the certificate changed (e.g. a delta made
    /// the database fully specified, upgrading `None` to Theorem 12 —
    /// `Auto` then stops escalating to Theorem 1 for it).
    ///
    /// Calling this is optional: execution re-certifies stale prepared
    /// queries automatically. An explicit call makes the refresh visible
    /// (and counted once) instead of recomputed per execution.
    pub fn recertify(&self, prepared: &mut PreparedQuery) -> Result<bool, EngineError> {
        if prepared.engine_id != self.id {
            return Err(EngineError::PreparedElsewhere);
        }
        let fresh = exactness_theorem(&self.db, &prepared.query);
        let changed = fresh != prepared.completeness;
        if changed {
            self.counters.recertified.fetch_add(1, Ordering::Relaxed);
        }
        prepared.completeness = fresh;
        prepared.epoch = self.epoch;
        Ok(changed)
    }

    /// The completeness theorem currently in force for a prepared query:
    /// the one certified at prepare time when the epochs match, or a
    /// fresh classification when the database has moved on since. Pure —
    /// no counter side effects (the batch partitioner calls it per
    /// member).
    fn effective_completeness(&self, prepared: &PreparedQuery) -> Option<CompletenessTheorem> {
        if prepared.epoch == self.epoch {
            prepared.completeness
        } else {
            exactness_theorem(&self.db, &prepared.query)
        }
    }

    /// [`Engine::effective_completeness`] plus the automatic arm of the
    /// re-certification counter: a stale prepared query whose verdict
    /// actually moved is counted. Called once per cache-missing
    /// execution — cache hits never re-classify (selective invalidation
    /// guarantees retained entries are certificate-fresh), and once the
    /// fresh answer is cached, later executions hit and stop counting.
    fn refreshed_completeness(&self, prepared: &PreparedQuery) -> Option<CompletenessTheorem> {
        if prepared.epoch == self.epoch {
            return prepared.completeness;
        }
        let fresh = exactness_theorem(&self.db, &prepared.query);
        if fresh != prepared.completeness {
            self.counters.recertified.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Compiles `Q̂` to an optimized algebra plan over the extended
    /// database, or `None` if `Q̂` is second-order.
    fn compile_plan(&self, rewritten: &Query) -> Result<Option<qld_algebra::Plan>, EngineError> {
        if !rewritten.is_first_order() {
            return Ok(None);
        }
        let approx = self.approx_engine();
        let plan = compile_query_ordered(approx.extended_voc(), approx.extended_db(), rewritten)?;
        Ok(Some(optimize(approx.extended_voc(), plan)))
    }

    /// The optimized algebra plan for a prepared query's `Q̂`: the one
    /// cached at prepare time under [`Backend::Algebra`], or compiled on
    /// demand otherwise (e.g. for the CLI's `:explain` on a naive-backend
    /// session). `None` when `Q̂` is second-order.
    pub fn plan_for(
        &self,
        prepared: &PreparedQuery,
    ) -> Result<Option<qld_algebra::Plan>, EngineError> {
        if prepared.engine_id != self.id {
            return Err(EngineError::PreparedElsewhere);
        }
        match prepared.plan() {
            Some(plan) => Ok(Some(plan.clone())),
            None => self.compile_plan(prepared.rewritten()),
        }
    }

    /// Executes a prepared query under the session's default semantics.
    pub fn execute(&self, prepared: &PreparedQuery) -> Result<Answers, EngineError> {
        self.execute_as(prepared, self.semantics)
    }

    /// Executes a prepared query under an explicit semantics, regardless
    /// of the session default. When the answer cache holds this
    /// `(query, semantics)` pair the stored answer is returned immediately
    /// with [`Evidence::cache_hit`] set and zero new mappings; otherwise
    /// the regime runs and the result is cached for next time.
    pub fn execute_as(
        &self,
        prepared: &PreparedQuery,
        semantics: Semantics,
    ) -> Result<Answers, EngineError> {
        if prepared.engine_id != self.id {
            return Err(EngineError::PreparedElsewhere);
        }
        if let Some(hit) = self.cache.lookup(prepared, semantics, self.epoch) {
            return Ok(hit);
        }
        // Classified once per execution (and only on cache misses): the
        // run paths below all dispatch on this value, so a stale prepared
        // query is re-certified exactly once here.
        let completeness = self.refreshed_completeness(prepared);
        let start = Instant::now();
        let outcome = match semantics {
            Semantics::Exact => self.run_exact(prepared, completeness)?,
            Semantics::Approx => self.run_approx(prepared, completeness)?,
            Semantics::Possible => self.run_solo(prepared, AnswerMode::Possible)?,
            Semantics::Auto => self.run_auto(prepared, completeness)?,
        };
        let answers = package(outcome, semantics, None, start, self.epoch);
        self.cache.insert(prepared, semantics, &answers);
        Ok(answers)
    }

    /// Executes a whole batch of prepared queries under the session's
    /// default semantics, amortizing the mapping enumeration: every query
    /// the configured semantics would send through the Theorem 1
    /// enumeration (or its possible-answer dual) shares **one** pass over
    /// the respecting mappings, instead of re-walking the search tree per
    /// query. See [`Engine::execute_batch_as`].
    pub fn execute_batch(&self, prepared: &[PreparedQuery]) -> Result<Vec<Answers>, EngineError> {
        self.execute_batch_as(prepared, self.semantics)
    }

    /// [`Engine::execute_batch`] under an explicit semantics.
    ///
    /// The batch is partitioned by evaluation route:
    ///
    /// * answers already in the cache are served from it (`cache_hit`);
    /// * queries bound for a certified polynomial path (Corollary 2, the
    ///   §5 approximation, the over-budget bounded pair) run individually
    ///   — they are cheap and share nothing;
    /// * every remaining query joins a shared enumeration group: one call
    ///   into the batched Theorem 1 evaluator (or its possible-answer
    ///   dual), with structurally identical queries deduplicated. Each
    ///   group member's [`Evidence`] reports the group's shared
    ///   `mappings_evaluated` total and [`Evidence::shared_batch`].
    ///
    /// Answers are bit-identical to executing each query separately; the
    /// `i`-th answer corresponds to `prepared[i]`. Timing attribution:
    /// individually-routed members and cache hits time themselves, while
    /// every member of a shared enumeration group reports the *group's*
    /// wall-clock as its `elapsed` — the enumeration ran once for all of
    /// them, so per-member elapsed values must not be summed.
    pub fn execute_batch_as(
        &self,
        prepared: &[PreparedQuery],
        semantics: Semantics,
    ) -> Result<Vec<Answers>, EngineError> {
        for p in prepared {
            if p.engine_id != self.id {
                return Err(EngineError::PreparedElsewhere);
            }
        }
        let mut results: Vec<Option<Answers>> = vec![None; prepared.len()];
        let mut certain_group: Vec<usize> = Vec::new();
        let mut possible_group: Vec<usize> = Vec::new();
        for (i, p) in prepared.iter().enumerate() {
            if let Some(hit) = self.cache.lookup(p, semantics, self.epoch) {
                results[i] = Some(hit);
            } else {
                match self.enumeration_route(self.effective_completeness(p), semantics) {
                    Some(AnswerMode::Certain) => certain_group.push(i),
                    Some(AnswerMode::Possible) => possible_group.push(i),
                    None => results[i] = Some(self.execute_as(p, semantics)?),
                }
            }
        }
        self.run_shared_group(
            prepared,
            &certain_group,
            AnswerMode::Certain,
            semantics,
            &mut results,
        )?;
        self.run_shared_group(
            prepared,
            &possible_group,
            AnswerMode::Possible,
            semantics,
            &mut results,
        )?;
        Ok(results
            .into_iter()
            .map(|a| a.expect("every batch slot answered"))
            .collect())
    }

    /// Would a query with this (effective) completeness verdict run a
    /// full mapping enumeration under `semantics` (and which one)? These
    /// are exactly the executions worth batching.
    ///
    /// This is the **single** classification both the individual `run_*`
    /// paths and the batch partitioner dispatch on — `run_exact` and
    /// `run_auto` consult it rather than re-testing the fast-path /
    /// completeness / budget conditions, so the batched and per-query
    /// routes cannot drift apart. Callers pass the *effective* verdict
    /// ([`Engine::effective_completeness`] /
    /// [`Engine::refreshed_completeness`]), never a possibly-stale stored
    /// one.
    fn enumeration_route(
        &self,
        completeness: Option<CompletenessTheorem>,
        semantics: Semantics,
    ) -> Option<AnswerMode> {
        match semantics {
            Semantics::Exact
                if !(self.config.corollary2_fast_path && self.db.is_fully_specified()) =>
            {
                Some(AnswerMode::Certain)
            }
            Semantics::Auto if completeness.is_none() && !self.over_mapping_budget() => {
                Some(AnswerMode::Certain)
            }
            Semantics::Possible => Some(AnswerMode::Possible),
            _ => None,
        }
    }

    /// Runs one shared enumeration group of a batch: deduplicates
    /// structurally identical queries (by full structural equality, so a
    /// fingerprint collision cannot merge distinct queries), makes a
    /// single call into the batched evaluator, and distributes answers
    /// (and the shared stats and wall-clock) to every member slot.
    fn run_shared_group(
        &self,
        prepared: &[PreparedQuery],
        group: &[usize],
        mode: AnswerMode,
        semantics: Semantics,
        results: &mut [Option<Answers>],
    ) -> Result<(), EngineError> {
        if group.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        let mut slot_of: HashMap<&Query, usize> = HashMap::new();
        let mut queries: Vec<Query> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(group.len());
        for &i in group {
            let slot = *slot_of.entry(&prepared[i].query).or_insert_with(|| {
                queries.push(prepared[i].query.clone());
                queries.len() - 1
            });
            slots.push(slot);
        }
        let outcomes = self.run_enumeration(&queries, mode)?;
        let shared = (queries.len() > 1).then_some(queries.len());
        for (&i, &slot) in group.iter().zip(slots.iter()) {
            let outcome = outcomes[slot].clone();
            let answers = package(outcome, semantics, shared, start, self.epoch);
            self.cache.insert(&prepared[i], semantics, &answers);
            results[i] = Some(answers);
        }
        Ok(())
    }

    /// One-shot convenience: parse, prepare, and execute under the
    /// session's default semantics.
    pub fn query(&self, text: &str) -> Result<Answers, EngineError> {
        let prepared = self.prepare_text(text)?;
        self.execute(&prepared)
    }

    /// One-shot convenience for an already-built [`Query`].
    pub fn eval(&self, query: &Query) -> Result<Answers, EngineError> {
        let prepared = self.prepare(query.clone())?;
        self.execute(&prepared)
    }

    /// Renders answer tuples with the vocabulary's constant names.
    pub fn answer_names(&self, answers: &Answers) -> Vec<Vec<String>> {
        qld_core::answer_names(self.db.voc(), answers.tuples())
    }

    /// The one door into `qld_core`'s Theorem 1 walk — solo runs (a batch
    /// of one), shared batch groups, `Exact` semantics and `Auto`
    /// escalation all enumerate through here, so they can never diverge.
    /// Passes the engine's cached decomposition analysis for this epoch
    /// (populating it on first use); returns one outcome per query, all
    /// carrying the shared stats.
    fn run_enumeration(
        &self,
        queries: &[Query],
        mode: AnswerMode,
    ) -> Result<Vec<RunOutcome>, EngineError> {
        let opts = ExactOptions {
            corollary2_fast_path: false,
            parallel: self.config.parallel,
            ..ExactOptions::new()
        };
        let warm = self.decomp.get().is_some();
        let decomp = self.decomp.get_or_init(|| analyze_decomposition(&self.db));
        let (rels, stats) = evaluate(
            &self.db,
            queries,
            mode,
            opts,
            Some(decomp),
            Some(self.ph1_db()),
        )?;
        let (regime, certificate) = match mode {
            AnswerMode::Certain => (Regime::Theorem1, Certificate::ExactTheorem1),
            AnswerMode::Possible => (Regime::PossibleWorlds, Certificate::PossibleUpperBound),
        };
        let outcomes = rels.into_iter().map(|tuples| RunOutcome {
            tuples,
            regime,
            certificate,
            components_reused: if warm { stats.components } else { 0 },
            stats,
            upper: None,
        });
        Ok(outcomes.collect())
    }

    /// [`Engine::run_enumeration`] for one prepared query.
    fn run_solo(
        &self,
        prepared: &PreparedQuery,
        mode: AnswerMode,
    ) -> Result<RunOutcome, EngineError> {
        let mut outcomes = self.run_enumeration(std::slice::from_ref(prepared.query()), mode)?;
        Ok(outcomes.pop().expect("one query in, one answer out"))
    }

    fn run_exact(
        &self,
        prepared: &PreparedQuery,
        completeness: Option<CompletenessTheorem>,
    ) -> Result<RunOutcome, EngineError> {
        if self
            .enumeration_route(completeness, Semantics::Exact)
            .is_some()
        {
            return self.run_solo(prepared, AnswerMode::Certain);
        }
        Ok(RunOutcome::polynomial(
            eval_query(self.ph1_db(), prepared.query()),
            Regime::Corollary2,
            Certificate::ExactCorollary2,
        ))
    }

    /// `completeness` is the *effective* verdict computed by the caller —
    /// a delta may have upgraded (or a stale stored verdict would
    /// misstate) which completeness theorem applies.
    fn run_approx(
        &self,
        prepared: &PreparedQuery,
        completeness: Option<CompletenessTheorem>,
    ) -> Result<RunOutcome, EngineError> {
        let rel = self.eval_rewritten(prepared)?;
        let certificate = match completeness {
            Some(theorem) => Certificate::ExactCompleteness(theorem),
            None => Certificate::SoundLowerBound,
        };
        Ok(RunOutcome::polynomial(
            rel,
            Regime::Approximation,
            certificate,
        ))
    }

    /// `completeness` is the *effective* verdict computed by the caller
    /// (stale prepared queries are re-classified against the current
    /// database rather than trusted).
    fn run_auto(
        &self,
        prepared: &PreparedQuery,
        completeness: Option<CompletenessTheorem>,
    ) -> Result<RunOutcome, EngineError> {
        // No completeness theorem and within budget: escalate to Theorem 1
        // (the route predicate is shared with the batch partitioner).
        if self
            .enumeration_route(completeness, Semantics::Auto)
            .is_some()
        {
            return self.run_solo(prepared, AnswerMode::Certain);
        }
        match completeness {
            // Fully specified: one physical evaluation is exact, and is
            // the cheapest certified path (works for second-order queries
            // too, unlike the algebra backend).
            Some(CompletenessTheorem::FullySpecified) => Ok(RunOutcome::polynomial(
                eval_query(self.ph1_db(), prepared.query()),
                Regime::Corollary2,
                Certificate::ExactCorollary2,
            )),
            // Positive first-order: the §5 approximation is exact by
            // Theorems 11 + 13.
            Some(theorem @ CompletenessTheorem::PositiveQuery) => {
                let rel = self.eval_rewritten(prepared)?;
                Ok(RunOutcome::polynomial(
                    rel,
                    Regime::Approximation,
                    Certificate::ExactCompleteness(theorem),
                ))
            }
            // No completeness theorem applies and the cost model says the
            // enumeration is hopeless: certified bracket instead.
            None => self.run_bounded_pair(prepared),
        }
    }

    /// Is the configured mapping budget exceeded? Probes the kernel count
    /// once per engine, aborting the count at `budget + 1` so the probe
    /// itself stays within budget.
    fn over_mapping_budget(&self) -> bool {
        match self.config.mapping_budget {
            None => false,
            Some(budget) => {
                let count = self.kernel_count.get_or_init(|| {
                    count_kernel_mappings_up_to(&self.db, budget.saturating_add(1))
                });
                *count > budget
            }
        }
    }

    /// The over-budget refusal: instead of a hopeless Theorem 1 run,
    /// bracket `Q(LB)` with two polynomial evaluations — the §5
    /// approximation of `Q` below (sound by Theorem 11) and the complement
    /// of the §5 approximation of `¬Q` above (`t` certainly *not* an
    /// answer means `t` is an answer in no model, so approx(¬Q) ⊆
    /// certain(¬Q) excludes only non-answers). Both run on the naive
    /// evaluator regardless of backend: this path must also serve the
    /// second-order rewrites the algebra backend refuses.
    fn run_bounded_pair(&self, prepared: &PreparedQuery) -> Result<RunOutcome, EngineError> {
        let approx = self.approx_engine();
        let lower = eval_query(approx.extended_db(), prepared.rewritten());
        let (head, body) = prepared.query.clone().into_parts();
        let negated = Query::new(head, Formula::not(body))?;
        let neg_rewritten = approx.rewrite(&negated, self.config.alpha)?;
        let certainly_not = eval_query(approx.extended_db(), &neg_rewritten);
        let arity = prepared.query.arity();
        let consts: Vec<Elem> = (0..self.db.num_consts() as Elem).collect();
        let upper = TupleSpace::new(&consts, arity).select(|t| !certainly_not.contains(t));
        Ok(RunOutcome {
            tuples: lower,
            regime: Regime::Approximation,
            certificate: Certificate::BoundedPair,
            stats: EvalStats::default(),
            components_reused: 0,
            upper: Some(upper),
        })
    }

    /// Evaluates the prepared `Q̂` over `Ph₂(LB)` on the configured
    /// backend.
    fn eval_rewritten(&self, prepared: &PreparedQuery) -> Result<Relation, EngineError> {
        let approx = self.approx_engine();
        match self.config.backend {
            Backend::Naive => Ok(eval_query(approx.extended_db(), prepared.rewritten())),
            Backend::Algebra(opts) => match prepared.plan() {
                Some(plan) => Ok(execute(approx.extended_db(), plan, opts)),
                None => Err(EngineError::Compile(qld_algebra::CompileError::SecondOrder)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::Vocabulary;

    /// Two predicates and a null: the playground for footprint tests.
    fn two_pred_engine() -> Engine {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b", "u"]).unwrap();
        voc.add_pred("P", 1).unwrap();
        voc.add_pred("R", 2).unwrap();
        let db = CwDatabase::builder(voc).build().unwrap();
        Engine::new(db)
    }

    fn ids(engine: &Engine) -> (qld_logic::ConstId, qld_logic::ConstId, qld_logic::ConstId) {
        let voc = engine.db().voc();
        (
            voc.const_id("a").unwrap(),
            voc.const_id("b").unwrap(),
            voc.const_id("u").unwrap(),
        )
    }

    #[test]
    fn apply_is_all_or_nothing() {
        let mut engine = two_pred_engine();
        let (a, _, _) = ids(&engine);
        let p = engine.db().voc().pred_id("P").unwrap();
        // Second entry has the wrong arity: the whole delta is rejected
        // and nothing changes.
        let bad = Delta::new().insert_fact(p, &[a]).insert_fact(p, &[a, a]);
        assert!(matches!(engine.apply(&bad), Err(EngineError::Cw(_))));
        assert_eq!(engine.db().num_facts(), 0);
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.delta_stats().deltas_applied, 0);
    }

    #[test]
    fn apply_reports_inserts_and_duplicates() {
        let mut engine = two_pred_engine();
        let (a, b, _) = ids(&engine);
        let p = engine.db().voc().pred_id("P").unwrap();
        let delta = Delta::new()
            .insert_fact(p, &[a])
            .insert_fact(p, &[a])
            .assert_ne(a, b)
            .assert_ne(b, a);
        let report = engine.apply(&delta).unwrap();
        assert_eq!(report.facts_inserted, 1);
        assert_eq!(report.facts_duplicate, 1);
        assert_eq!(report.ne_inserted, 1);
        assert_eq!(report.ne_duplicate, 1, "normalized duplicate");
        assert!(report.changed());
        assert_eq!(report.epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.db().num_facts(), 1);
        assert!(engine.db().is_ne(a, b));
        // A pure-duplicate delta leaves the epoch alone.
        let report = engine.apply(&Delta::new().insert_fact(p, &[a])).unwrap();
        assert!(!report.changed());
        assert_eq!(report.epoch, 1);
        assert_eq!(engine.epoch(), 1);
        let stats = engine.delta_stats();
        assert_eq!(stats.deltas_applied, 2);
        assert_eq!(stats.facts_inserted, 1);
        assert_eq!(stats.ne_inserted, 1);
    }

    #[test]
    fn cache_invalidation_is_selective_by_footprint() {
        let mut engine = two_pred_engine();
        let (a, b, _) = ids(&engine);
        let p = engine.db().voc().pred_id("P").unwrap();
        // Three cached answers: positive on P, positive on R, negation
        // on R (axiom-sensitive).
        let on_p = engine.prepare_text("(x) . P(x)").unwrap();
        let on_r = engine.prepare_text("(x, y) . R(x, y)").unwrap();
        let neg_r = engine.prepare_text("(x) . !R(x, x)").unwrap();
        engine.execute(&on_p).unwrap();
        engine.execute(&on_r).unwrap();
        engine.execute(&neg_r).unwrap();
        assert_eq!(engine.cache_len(), 3);
        // A fact delta on P touches only the P entry.
        let report = engine.apply(&Delta::new().insert_fact(p, &[a])).unwrap();
        assert_eq!(report.cache_evicted, 1);
        assert_eq!(report.cache_retained, 2);
        assert!(engine.execute(&on_r).unwrap().evidence().cache_hit);
        assert!(!engine.execute(&on_p).unwrap().evidence().cache_hit);
        // An axiom delta evicts the axiom-sensitive entry but keeps the
        // positive ones (Theorem 13 makes them axiom-independent).
        engine.execute(&neg_r).unwrap(); // re-cache
        let report = engine.apply(&Delta::new().assert_ne(a, b)).unwrap();
        assert_eq!(report.cache_evicted, 1);
        assert!(engine.execute(&on_r).unwrap().evidence().cache_hit);
        assert!(!engine.execute(&neg_r).unwrap().evidence().cache_hit);
        // The retained answers are still byte-identical to fresh runs.
        let fresh = Engine::new(engine.db().clone());
        for text in ["(x) . P(x)", "(x, y) . R(x, y)", "(x) . !R(x, x)"] {
            let cached = engine.execute(&engine.prepare_text(text).unwrap()).unwrap();
            let truth = fresh.execute(&fresh.prepare_text(text).unwrap()).unwrap();
            assert_eq!(cached.tuples(), truth.tuples(), "{text}");
        }
    }

    #[test]
    fn apply_matches_rebuilt_engine_with_built_structures() {
        let mut engine = two_pred_engine();
        let (a, b, u) = ids(&engine);
        let p = engine.db().voc().pred_id("P").unwrap();
        let r = engine.db().voc().pred_id("R").unwrap();
        let texts = [
            "(x) . P(x)",
            "(x) . !P(x)",
            "(x, y) . R(x, y) & x != y",
            "exists x. R(x, x) | P(x)",
        ];
        // Force Ph₁ and the §5 machinery to exist *before* the deltas, so
        // the incremental refresh (not a lazy rebuild) is what's tested.
        for text in texts {
            let prepared = engine.prepare_text(text).unwrap();
            engine.execute_as(&prepared, Semantics::Exact).unwrap();
        }
        let script = [
            Delta::new().insert_fact(p, &[a]).insert_fact(r, &[a, u]),
            Delta::new().assert_ne(a, b).assert_ne(u, a),
            Delta::new().insert_fact(r, &[u, b]),
        ];
        for delta in &script {
            engine.apply(delta).unwrap();
            let rebuilt = Engine::new(engine.db().clone());
            for text in texts {
                let inc = engine.prepare_text(text).unwrap();
                let fresh = rebuilt.prepare_text(text).unwrap();
                for semantics in Semantics::ALL {
                    assert_eq!(
                        engine.execute_as(&inc, semantics).unwrap().tuples(),
                        rebuilt.execute_as(&fresh, semantics).unwrap().tuples(),
                        "{text} under {semantics:?} diverged from rebuild"
                    );
                }
            }
        }
    }

    #[test]
    fn deltas_recertify_prepared_queries() {
        let mut engine = two_pred_engine();
        let (a, b, u) = ids(&engine);
        // Negation on a partial database: no completeness theorem.
        let mut prepared = engine.prepare_text("(x) . !P(x)").unwrap();
        assert_eq!(prepared.completeness(), None);
        let auto = engine.execute(&prepared).unwrap();
        assert_eq!(auto.evidence().regime, Regime::Theorem1);
        // Pin every identity down: the database becomes fully specified.
        engine
            .apply(&Delta::new().assert_ne(a, b).assert_ne(a, u).assert_ne(b, u))
            .unwrap();
        assert!(engine.db().is_fully_specified());
        // The *stale* prepared query already routes through the upgraded
        // certificate (no Theorem 1 escalation)…
        assert_eq!(prepared.epoch(), 0);
        let upgraded = engine.execute(&prepared).unwrap();
        assert_eq!(upgraded.evidence().regime, Regime::Corollary2);
        assert!(upgraded.is_exact());
        // …and an explicit recertify makes the upgrade visible.
        assert!(engine.recertify(&mut prepared).unwrap());
        assert_eq!(
            prepared.completeness(),
            Some(CompletenessTheorem::FullySpecified)
        );
        assert_eq!(prepared.epoch(), engine.epoch());
        assert!(!engine.recertify(&mut prepared).unwrap(), "now stable");
        assert!(engine.delta_stats().queries_recertified >= 1);
    }

    #[test]
    fn fully_specifying_delta_evicts_certificate_stale_positive_entries() {
        // A positive query's *tuples* survive any axiom delta (Theorem
        // 13), but once the database becomes fully specified a fresh
        // engine certifies them differently (Corollary 2 / Theorem 12) —
        // so the flip must evict even axiom-insensitive entries, keeping
        // cached answers bit-identical to a rebuild, evidence included.
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b"]).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        let db = CwDatabase::builder(voc).fact(p, &[ids[0]]).build().unwrap();
        let mut engine = Engine::new(db);
        let prepared = engine.prepare_text("(x) . P(x)").unwrap();
        for semantics in [Semantics::Exact, Semantics::Auto, Semantics::Approx] {
            engine.execute_as(&prepared, semantics).unwrap();
        }
        let report = engine
            .apply(&Delta::new().assert_ne(ids[0], ids[1]))
            .unwrap();
        assert!(engine.db().is_fully_specified());
        assert_eq!(report.cache_evicted, 3, "the flip evicts everything");
        let rebuilt = Engine::new(engine.db().clone());
        let fresh = rebuilt.prepare_text("(x) . P(x)").unwrap();
        for semantics in [Semantics::Exact, Semantics::Auto, Semantics::Approx] {
            let inc = engine.execute_as(&prepared, semantics).unwrap();
            let truth = rebuilt.execute_as(&fresh, semantics).unwrap();
            assert_eq!(inc.tuples(), truth.tuples(), "{semantics:?}");
            assert_eq!(
                inc.evidence().certificate,
                truth.evidence().certificate,
                "{semantics:?} certificate must match a rebuilt engine"
            );
        }
    }

    #[test]
    fn mapping_budget_probe_resets_on_axiom_deltas() {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "u"]).unwrap();
        voc.add_pred("P", 1).unwrap();
        let db = CwDatabase::builder(voc).build().unwrap();
        // No axioms: 5 kernel mappings (the partitions of 3 constants) —
        // over a budget of 3, so Auto refuses the escalation.
        let mut engine = Engine::builder(db).mapping_budget(3).build();
        let text = "(x) . !P(x)";
        let bounded = engine.query(text).unwrap();
        assert_eq!(bounded.evidence().certificate, Certificate::BoundedPair);
        // One axiom cuts the kernel count to 3 (partitions separating a
        // and b): the probe must be re-run, and Auto now escalates.
        engine
            .apply(&Delta::new().assert_ne(ids[0], ids[1]))
            .unwrap();
        let exact = engine.query(text).unwrap();
        assert_eq!(exact.evidence().certificate, Certificate::ExactTheorem1);
        assert!(exact.evidence().mappings_evaluated > 0);
    }

    #[test]
    fn decomposition_cache_reuse_and_invalidation() {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "u", "v"]).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        // a ≠ b with P(a): `u` and `v` are free (no NE edge, no fact).
        let db = CwDatabase::builder(voc)
            .fact(p, &[ids[0]])
            .unique(ids[0], ids[1])
            .build()
            .unwrap();
        let mut engine = Engine::builder(db)
            .semantics(Semantics::Exact)
            .answer_cache(false)
            .build();
        let text = "(x) . !P(x)";
        // The first run pays the analysis (nothing reused)…
        let first = engine.query(text).unwrap();
        assert!(first.evidence().components > 0);
        assert!(first.evidence().mappings_pruned > 0);
        assert_eq!(first.evidence().components_reused, 0);
        // …and every later run at the same epoch reuses it.
        let second = engine.query(text).unwrap();
        assert_eq!(second.evidence().components, first.evidence().components);
        assert_eq!(
            second.evidence().components_reused,
            second.evidence().components
        );
        // An insert-only fact delta over *core* constants keeps the
        // analysis warm across the epoch bump…
        engine
            .apply(&Delta::new().insert_fact(p, &[ids[1]]))
            .unwrap();
        let warm = engine.query(text).unwrap();
        assert_eq!(
            warm.evidence().components_reused,
            warm.evidence().components
        );
        // …a fact capturing a free constant re-analyzes…
        engine
            .apply(&Delta::new().insert_fact(p, &[ids[2]]))
            .unwrap();
        let recooled = engine.query(text).unwrap();
        assert_eq!(recooled.evidence().components_reused, 0);
        // …and so does a new NE axiom (components can merge).
        engine.query(text).unwrap();
        engine
            .apply(&Delta::new().assert_ne(ids[2], ids[3]))
            .unwrap();
        let after_ne = engine.query(text).unwrap();
        assert_eq!(after_ne.evidence().components_reused, 0);
    }
}
