//! What the engine ran and what the answer is worth: [`Regime`],
//! [`Certificate`], [`Evidence`], and the [`Answers`] result they ride on.

use qld_approx::CompletenessTheorem;
use qld_physical::Relation;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The answer semantics a caller asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Semantics {
    /// Exact certain answers: Theorem 1 enumeration, with the Corollary 2
    /// fast path when the database is fully specified. Exponential in
    /// general (Theorem 5 says it must be, unless P = NP).
    Exact,
    /// The §5 approximation: always polynomial, always sound (Theorem 11),
    /// complete exactly when Theorem 12 or 13 applies.
    Approx,
    /// Tuples true in *some* model of the theory — the dual upper bound.
    Possible,
    /// Certified adaptive dispatch: run the cheapest path the paper proves
    /// exact (Corollary 2 on fully specified databases, the §5
    /// approximation on positive first-order queries), and escalate to the
    /// Theorem 1 enumeration only when no completeness theorem applies.
    /// Every `Auto` answer is exact and says which theorem vouches for it.
    #[default]
    Auto,
}

impl Semantics {
    /// All semantics, in display order.
    pub const ALL: [Semantics; 4] = [
        Semantics::Exact,
        Semantics::Approx,
        Semantics::Possible,
        Semantics::Auto,
    ];

    /// Canonical lowercase name (also accepted by [`Semantics::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Semantics::Exact => "exact",
            Semantics::Approx => "approx",
            Semantics::Possible => "possible",
            Semantics::Auto => "auto",
        }
    }

    /// Parses a semantics name (`exact`, `approx`/`approximate`,
    /// `possible`, `auto`).
    pub fn parse(s: &str) -> Option<Semantics> {
        match s {
            "exact" => Some(Semantics::Exact),
            "approx" | "approximate" => Some(Semantics::Approx),
            "possible" => Some(Semantics::Possible),
            "auto" => Some(Semantics::Auto),
            _ => None,
        }
    }
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which evaluation machinery actually produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Theorem 1: intersect `Q(h(Ph₁(LB)))` over every respecting mapping
    /// `h` (one canonical image per kernel partition, free nulls collapsed).
    Theorem1,
    /// Corollary 2: the database is fully specified, so one evaluation
    /// over `Ph₁(LB)` is the whole job.
    Corollary2,
    /// §5: evaluate the rewritten `Q̂` over `Ph₂(LB)` on a relational
    /// backend.
    Approximation,
    /// Union of `Q(h(Ph₁(LB)))` over every respecting mapping — the
    /// possible-answers dual.
    PossibleWorlds,
}

impl Regime {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Theorem1 => "Theorem 1",
            Regime::Corollary2 => "Corollary 2",
            Regime::Approximation => "§5 approx",
            Regime::PossibleWorlds => "possible worlds",
        }
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the returned tuples relate to the true certain answers `Q(LB)` —
/// and which theorem of the paper proves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Certificate {
    /// The tuples *are* `Q(LB)`: the Theorem 1 enumeration ran to
    /// completion.
    ExactTheorem1,
    /// The tuples *are* `Q(LB)`: the database is fully specified, so by
    /// Corollary 2 `Q(LB) = Q(Ph₁(LB))`.
    ExactCorollary2,
    /// The tuples *are* `Q(LB)`: the §5 approximation ran, it is sound by
    /// Theorem 11, and the named completeness theorem (12 or 13) closes
    /// the gap.
    ExactCompleteness(CompletenessTheorem),
    /// The tuples are a *subset* of `Q(LB)`: the §5 approximation ran and
    /// only its soundness (Theorem 11) is guaranteed.
    SoundLowerBound,
    /// The tuples are a *superset* of `Q(LB)`: possible answers (tuples
    /// true in at least one model).
    PossibleUpperBound,
    /// The engine *refused* a Theorem 1 enumeration that exceeded the
    /// configured mapping budget and returned certified bounds instead:
    /// the tuples are the §5 lower bound (sound by Theorem 11), and
    /// [`Answers::upper_bound`](crate::Answers::upper_bound) carries a
    /// certified superset of `Q(LB)` (the complement of the §5
    /// approximation of `¬Q`, sound by Theorem 11 applied to the negated
    /// query). Equal bounds pin the answer exactly; a gap is the price of
    /// staying polynomial.
    BoundedPair,
}

impl Certificate {
    /// Does this certificate guarantee the tuples equal the certain
    /// answers `Q(LB)`?
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            Certificate::ExactTheorem1
                | Certificate::ExactCorollary2
                | Certificate::ExactCompleteness(_)
        )
    }

    /// The paper result backing the certificate.
    pub fn theorem(self) -> &'static str {
        match self {
            Certificate::ExactTheorem1 => "Theorem 1",
            Certificate::ExactCorollary2 => "Corollary 2",
            Certificate::ExactCompleteness(t) => t.name(),
            Certificate::SoundLowerBound => "Theorem 11",
            Certificate::PossibleUpperBound => "possible-answer dual of Theorem 1",
            Certificate::BoundedPair => "Theorem 11 (on Q and ¬Q)",
        }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Certificate::ExactTheorem1 => write!(f, "exact (Theorem 1)"),
            Certificate::ExactCorollary2 => write!(f, "exact (Corollary 2)"),
            Certificate::ExactCompleteness(t) => {
                write!(f, "exact (Theorem 11 + {t})")
            }
            Certificate::SoundLowerBound => write!(f, "sound lower bound (Theorem 11)"),
            Certificate::PossibleUpperBound => write!(f, "upper bound (possible answers)"),
            Certificate::BoundedPair => {
                write!(f, "certified bounds (Theorem 11 on Q and ¬Q; over budget)")
            }
        }
    }
}

/// A report on how an answer was produced: the machinery that ran, the
/// guarantee the paper gives for the result, and measured effort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// The semantics the caller requested.
    pub requested: Semantics,
    /// The machinery that actually ran (informative under
    /// [`Semantics::Auto`], where the engine picks).
    pub regime: Regime,
    /// The relationship of the tuples to the true certain answers.
    pub certificate: Certificate,
    /// Wall-clock execution time (excludes preparation).
    pub elapsed: Duration,
    /// Respecting mappings evaluated, summed across enumeration workers
    /// (`0` for the polynomial regimes — Corollary 2 and the §5
    /// approximation never enumerate mappings).
    pub mappings_evaluated: u64,
    /// Worker threads that participated in the mapping enumeration: `1`
    /// for the sequential path (the sequential fallback really does use one
    /// worker — the calling thread), more under
    /// [`EngineBuilder::parallelism`](crate::EngineBuilder::parallelism),
    /// `0` only for the regimes that never enumerate mappings.
    pub workers_used: u32,
    /// NE-constraint components of the database (the pairwise-distinct
    /// groups plus the isolated singletons) when a Theorem 1 /
    /// possible-answer enumeration ran; `0` for every other regime.
    pub components: u32,
    /// Kernel mappings the enumeration never visited — collapsed free
    /// nulls and early exit: the closed-form kernel count minus the
    /// canonical images actually evaluated (saturating; `0` when no
    /// enumeration ran).
    pub mappings_pruned: u64,
    /// Components whose decomposition analysis was served from the
    /// engine's cross-delta cache instead of re-analyzed (equals
    /// [`Evidence::components`] when the cache was warm, `0` on the run
    /// that populated it or when no enumeration ran).
    pub components_reused: u32,
    /// The answer was served from the engine's answer cache: no regime ran
    /// and no mappings were enumerated for this call (`mappings_evaluated`
    /// is 0); the regime/certificate fields describe the original
    /// computation the cached answer came from.
    pub cache_hit: bool,
    /// The database epoch the answer was served at and is true at (see
    /// [`Engine::epoch`](crate::Engine::epoch)): the epoch of the engine —
    /// or of the published snapshot — the call ran on, on every path. A
    /// cache hit may have been computed at an earlier epoch; it is served
    /// only where the deltas since provably left it, certificate included,
    /// what a fresh engine would return. This is what makes a concurrent
    /// repro report unambiguous: the epoch names a database state the
    /// tuples are exactly right for.
    pub epoch: u64,
    /// `Some(n)`: this answer came out of an [`Engine::execute_batch`]
    /// group of `n` queries sharing **one** mapping enumeration —
    /// `mappings_evaluated` is that shared total (each mapping counted
    /// once for the whole group), not a per-query cost.
    ///
    /// [`Engine::execute_batch`]: crate::Engine::execute_batch
    pub shared_batch: Option<usize>,
}

impl Evidence {
    /// One-line human-readable summary, e.g.
    /// `auto → §5 approx, exact (Theorem 11 + Theorem 13), epoch 0` or
    /// `exact → Theorem 1, exact (Theorem 1), 15 mapping(s), 1 component(s),
    /// 0 mapping(s) pruned, 4 worker(s), epoch 2`, with `(cached)` appended
    /// on cache hits and the shared-enumeration batch size when the
    /// mappings were amortized across a batch. The epoch names the database
    /// state the answer was served at, so concurrent repro reports are
    /// unambiguous.
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

/// The [`Evidence::summary`] line.
impl fmt::Display for Evidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {}, {}",
            self.requested, self.regime, self.certificate
        )?;
        if self.mappings_evaluated > 0 {
            write!(f, ", {} mapping(s)", self.mappings_evaluated)?;
            if let Some(n) = self.shared_batch {
                write!(f, " shared across batch of {n}")?;
            }
        }
        if self.components > 0 {
            write!(
                f,
                ", {} component(s), {} mapping(s) pruned",
                self.components, self.mappings_pruned
            )?;
            if self.components_reused > 0 {
                f.write_str(" (analysis reused)")?;
            }
        }
        if self.workers_used > 1 {
            write!(f, ", {} worker(s)", self.workers_used)?;
        }
        write!(f, ", epoch {}", self.epoch)?;
        if self.cache_hit {
            f.write_str(" (cached)")?;
        }
        Ok(())
    }
}

/// The result of executing a query: the answer tuples plus the
/// [`Evidence`] saying what they mean.
///
/// Tuples are over `Ph₁`-style element ids (element `i` is constant
/// `ConstId(i)`); use [`Engine::answer_names`](crate::Engine::answer_names)
/// to render them with constant names.
///
/// The tuples (and the upper bound) live behind one shared, immutable
/// body: cloning an `Answers` — which is what an answer cache does to
/// keep one and to serve one — is a reference-count bump, not a copy of
/// the relation. Only the [`Evidence`] is per value, so a cache hit is
/// the cached body under a fresh stamp.
#[derive(Debug, Clone)]
pub struct Answers {
    body: Arc<Body>,
    evidence: Evidence,
}

/// What every clone of one computed answer shares.
#[derive(Debug)]
struct Body {
    tuples: Relation,
    upper_bound: Option<Relation>,
    /// See [`Answers::text_memo`].
    text: OnceLock<String>,
}

/// Equality is about what was answered and how: the text memo is derived
/// from the tuples and takes no part.
impl PartialEq for Answers {
    fn eq(&self, other: &Answers) -> bool {
        self.evidence == other.evidence
            && (Arc::ptr_eq(&self.body, &other.body)
                || (self.body.tuples == other.body.tuples
                    && self.body.upper_bound == other.body.upper_bound))
    }
}

impl Eq for Answers {}

impl Answers {
    pub(crate) fn new(
        tuples: Relation,
        upper_bound: Option<Relation>,
        evidence: Evidence,
    ) -> Answers {
        Answers {
            body: Arc::new(Body {
                tuples,
                upper_bound,
                text: OnceLock::new(),
            }),
            evidence,
        }
    }

    /// The answer as served from the engine's cache at `epoch`: the same
    /// tuples (and upper bound), original regime and certificate, but
    /// stamped `cache_hit` with zero new mappings — this call enumerated
    /// nothing.
    pub(crate) fn as_cache_hit(&self, epoch: u64, elapsed: Duration) -> Answers {
        let mut hit = self.clone();
        hit.evidence.cache_hit = true;
        hit.evidence.epoch = epoch;
        hit.evidence.mappings_evaluated = 0;
        hit.evidence.workers_used = 0;
        hit.evidence.components = 0;
        hit.evidence.mappings_pruned = 0;
        hit.evidence.components_reused = 0;
        hit.evidence.shared_batch = None;
        hit.evidence.elapsed = elapsed;
        hit
    }

    /// The answer tuples.
    pub fn tuples(&self) -> &Relation {
        &self.body.tuples
    }

    /// Consumes the result, keeping only the tuples. Moves them out when
    /// this is the only holder of the answer and copies them when an
    /// answer cache (or another clone) still shares it.
    pub fn into_tuples(self) -> Relation {
        match Arc::try_unwrap(self.body) {
            Ok(body) => body.tuples,
            Err(shared) => shared.tuples.clone(),
        }
    }

    /// The text a front-end renders this answer's tuples to, kept beside
    /// the tuples so every holder of the answer — the cache entry and
    /// every hit served from it — renders once between them: the first
    /// call runs `render`, later calls return its result. The engine never
    /// reads the text. It is for *one* rendering that is a function of the
    /// answer alone (the wire protocol's `answer:` block; see
    /// `qld_server::proto`), and it lives exactly as long as the answer
    /// does — an answer cache's capacity bounds the memos with the
    /// answers.
    pub fn text_memo(&self, render: impl FnOnce() -> String) -> &str {
        self.body.text.get_or_init(render)
    }

    /// The evidence report.
    pub fn evidence(&self) -> &Evidence {
        &self.evidence
    }

    /// Number of answer tuples.
    pub fn len(&self) -> usize {
        self.body.tuples.len()
    }

    /// True iff there are no answer tuples.
    pub fn is_empty(&self) -> bool {
        self.body.tuples.is_empty()
    }

    /// For a Boolean query: does the sentence hold under the executed
    /// semantics? (Non-empty answer relation — "certainly" under the exact
    /// regimes, "provably" under the sound approximation, "possibly" under
    /// possible-answer semantics.)
    pub fn holds(&self) -> bool {
        !self.body.tuples.is_empty()
    }

    /// True iff the certificate guarantees these tuples equal `Q(LB)`.
    pub fn is_exact(&self) -> bool {
        self.evidence.certificate.is_exact()
    }

    /// Under [`Certificate::BoundedPair`]: the certified *superset* of
    /// `Q(LB)` accompanying the lower-bound tuples (the engine refused an
    /// over-budget Theorem 1 enumeration and bracketed the answer instead).
    /// `None` for every other certificate. When the upper bound equals
    /// [`Answers::tuples`], the bracket is tight and the tuples *are*
    /// `Q(LB)` even though the enumeration never ran.
    pub fn upper_bound(&self) -> Option<&Relation> {
        self.body.upper_bound.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for s in Semantics::ALL {
            assert_eq!(Semantics::parse(s.name()), Some(s));
        }
        assert_eq!(Semantics::parse("approximate"), Some(Semantics::Approx));
        assert_eq!(Semantics::parse("bogus"), None);
    }

    #[test]
    fn exactness_of_certificates() {
        assert!(Certificate::ExactTheorem1.is_exact());
        assert!(Certificate::ExactCorollary2.is_exact());
        assert!(Certificate::ExactCompleteness(CompletenessTheorem::PositiveQuery).is_exact());
        assert!(!Certificate::SoundLowerBound.is_exact());
        assert!(!Certificate::PossibleUpperBound.is_exact());
        assert!(!Certificate::BoundedPair.is_exact());
    }

    fn evidence() -> Evidence {
        Evidence {
            requested: Semantics::Auto,
            regime: Regime::Approximation,
            certificate: Certificate::SoundLowerBound,
            elapsed: Duration::from_micros(3),
            mappings_evaluated: 0,
            workers_used: 0,
            components: 0,
            mappings_pruned: 0,
            components_reused: 0,
            cache_hit: false,
            shared_batch: None,
            epoch: 0,
        }
    }

    #[test]
    fn clones_share_the_body_and_the_memo_is_not_part_of_equality() {
        let tuples = Relation::from_rows(1, [[1], [2]]);
        let computed = Answers::new(tuples.clone(), None, evidence());
        let same = Answers::new(tuples.clone(), None, evidence());

        // The first renderer's text is what every holder sees.
        let hit = computed.as_cache_hit(0, Duration::ZERO);
        assert_eq!(computed.text_memo(|| "rendered".to_string()), "rendered");
        assert_eq!(hit.text_memo(|| unreachable!("rendered once")), "rendered");
        assert!(std::ptr::eq(hit.tuples(), computed.tuples()));

        // A memo changes nothing about what was answered …
        assert_eq!(computed, same);
        // … the evidence does, and so do the tuples.
        assert_ne!(computed, hit);
        assert_ne!(computed, Answers::new(Relation::empty(1), None, evidence()));
        assert_ne!(
            computed,
            Answers::new(tuples.clone(), Some(tuples.clone()), evidence())
        );

        // Shared, the tuples are copied out; alone, moved.
        assert_eq!(hit.into_tuples(), tuples);
        let buffer = computed.tuples().iter().next().unwrap().as_ptr();
        let moved = computed.into_tuples();
        assert_eq!(moved.iter().next().unwrap().as_ptr(), buffer);
    }

    #[test]
    fn summary_mentions_regime_mappings_and_workers() {
        let mut ev = Evidence {
            requested: Semantics::Exact,
            regime: Regime::Theorem1,
            certificate: Certificate::ExactTheorem1,
            elapsed: Duration::from_millis(1),
            mappings_evaluated: 15,
            workers_used: 1,
            components: 0,
            mappings_pruned: 0,
            components_reused: 0,
            cache_hit: false,
            shared_batch: None,
            epoch: 3,
        };
        let s = ev.summary();
        assert!(s.contains("Theorem 1"), "{s}");
        assert!(s.contains("15 mapping(s)"), "{s}");
        assert!(s.contains("epoch 3"), "{s}");
        // Single-worker runs don't advertise the pool…
        assert!(!s.contains("worker"), "{s}");
        assert!(!s.contains("cached"), "{s}");
        assert!(!s.contains("batch"), "{s}");
        // …and regimes that never enumerate don't advertise components.
        assert!(!s.contains("component"), "{s}");
        // Enumerations report components, pruning, and analysis reuse.
        ev.components = 2;
        ev.mappings_pruned = 7;
        let s = ev.summary();
        assert!(s.contains("2 component(s), 7 mapping(s) pruned"), "{s}");
        assert!(!s.contains("analysis reused"), "{s}");
        ev.components_reused = 2;
        assert!(
            ev.summary().contains("(analysis reused)"),
            "{}",
            ev.summary()
        );
        ev.components = 0;
        ev.mappings_pruned = 0;
        ev.components_reused = 0;
        // …multi-worker runs do.
        ev.workers_used = 4;
        assert!(ev.summary().contains("4 worker(s)"), "{}", ev.summary());
        // Batch-shared enumerations and cache hits are both visible.
        ev.shared_batch = Some(3);
        assert!(
            ev.summary()
                .contains("15 mapping(s) shared across batch of 3"),
            "{}",
            ev.summary()
        );
        ev.cache_hit = true;
        assert!(ev.summary().ends_with("(cached)"), "{}", ev.summary());
    }
}
