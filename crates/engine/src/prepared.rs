//! Prepared queries: parse/validate/rewrite once, execute many.

use crate::delta::QueryFootprint;
use qld_approx::CompletenessTheorem;
use qld_logic::{Query, QueryClass};
use qld_physical::LoweredQuery;
use std::sync::{Arc, OnceLock};

/// A query prepared against one [`Engine`](crate::Engine): validated,
/// classified, certified, and rewritten to the §5 `Q̂`.
///
/// All of these are *query-level* artifacts — they depend on the query and
/// the database schema/statistics, not on which semantics later runs — so
/// computing them once and executing many times is both safe and the point
/// of the type: re-running a `PreparedQuery` skips parsing, validation,
/// NNF, and the `Q ↦ Q̂` rewrite. `Q̂` is lowered for evaluation once
/// too, by the first execution that evaluates it (never by preparation,
/// which would charge every one-shot query for it), and the plan is shared
/// by every clone.
///
/// A `PreparedQuery` is tied to the engine that prepared it: executing it
/// on another engine is rejected. It stays valid across
/// [`Engine::apply`](crate::Engine::apply) deltas — the rewrite
/// references predicate *ids*, which deltas never change — but its
/// completeness certificate is epoch-stamped: when the database has moved
/// on, execution re-certifies it against the current database instead of
/// trusting the stale verdict (see
/// [`Engine::recertify`](crate::Engine::recertify)).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub(crate) engine_id: u64,
    /// The engine epoch this query's certificate was computed at.
    pub(crate) epoch: u64,
    pub(crate) query: Query,
    pub(crate) class: QueryClass,
    pub(crate) completeness: Option<CompletenessTheorem>,
    pub(crate) rewritten: Query,
    /// `rewritten` lowered, built on first use (see [`PreparedQuery::plan`]).
    pub(crate) plan: Arc<OnceLock<LoweredQuery>>,
    pub(crate) fingerprint: u64,
    pub(crate) footprint: QueryFootprint,
}

impl PreparedQuery {
    /// The validated source query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// A structural hash of the source query, computed once at prepare
    /// time. Within one engine it identifies the query up to structural
    /// equality, so `(fingerprint, semantics)` keys the engine's answer
    /// cache. The other input an answer depends on, the database, is
    /// covered by the epoch range each cache entry carries.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The query's syntactic class (positive first-order / first-order /
    /// second-order).
    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// The completeness theorem (12 or 13) under which the §5
    /// approximation is exact for this query on this engine's database, or
    /// `None` if only soundness holds. This is what
    /// [`Semantics::Auto`](crate::Semantics::Auto) dispatches on.
    ///
    /// The verdict is as of [`PreparedQuery::epoch`]; after a delta the
    /// engine re-certifies automatically at execution time, or eagerly
    /// via [`Engine::recertify`](crate::Engine::recertify).
    pub fn completeness(&self) -> Option<CompletenessTheorem> {
        self.completeness
    }

    /// The engine epoch this query's certificate was computed at (see
    /// [`Engine::epoch`](crate::Engine::epoch)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The query's predicate footprint — the selective cache-invalidation
    /// key (see [`QueryFootprint`]).
    pub fn footprint(&self) -> &QueryFootprint {
        &self.footprint
    }

    /// The §5 rewrite `Q̂` over the engine's extended vocabulary
    /// (`NE`/`α_P` predicates added).
    pub fn rewritten(&self) -> &Query {
        &self.rewritten
    }

    /// [`PreparedQuery::rewritten`] lowered for evaluation over `Ph₂(LB)`.
    /// Lowering depends on the query alone, so one plan serves every
    /// epoch and every snapshot this query runs on.
    pub(crate) fn plan(&self) -> &LoweredQuery {
        self.plan.get_or_init(|| LoweredQuery::new(&self.rewritten))
    }
}
