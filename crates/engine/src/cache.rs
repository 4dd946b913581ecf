//! The answer cache: finished [`Answers`] keyed `(query fingerprint,
//! semantics)`, each kept with the [`QueryFootprint`] it was derived from
//! and the inclusive range of database epochs on which a fresh engine
//! would return exactly this answer *and* certificate.
//!
//! One [`Engine`](crate::Engine) owns one cache, and the snapshots a
//! [`SharedEngine`](crate::SharedEngine) publishes of that engine share
//! it, so there is one policy on every read path:
//!
//! * a **lookup** at epoch `e` hits iff the entry's range contains `e`,
//!   and the hit is stamped with `e` — the state it was served at and is
//!   true at;
//! * an **insert** stores the one epoch the answer was computed at, and
//!   never replaces an entry whose range ends later (a reader on an old
//!   snapshot must not push out what current readers hit);
//! * [`AnswerCache::advance`] is the only thing that widens a range. The
//!   writer calls it from [`Engine::apply`](crate::Engine::apply), before
//!   the new epoch is published: an entry that ends at exactly the old
//!   epoch and whose footprint the delta does not touch now also covers
//!   the new one; every other entry that ends before the new epoch goes.
//!   *Contiguity* is what makes a late insert safe: an answer a slow
//!   reader computed at epoch `k` and stored after `advance(k → k + 1)`
//!   ends at `k`, not at the writer's epoch, so it is never stretched
//!   over a delta nobody tested it against — the next `advance` drops it.
//!
//! Every other input that could change an answer — backend, alpha mode,
//! NE store, Corollary 2 toggle, mapping budget — is fixed at engine
//! construction and needs no spot in the key; the answer-irrelevant knobs
//! (parallelism, default semantics) are deliberately excluded.
//!
//! Entries are spread over [`SHARD_COUNT`] independently locked LRUs by
//! fingerprint, so concurrent readers rarely meet on a lock; capacity is
//! enforced per shard, under the same lock as the insert.

use crate::delta::QueryFootprint;
use crate::evidence::{Answers, Semantics};
use crate::lru::Lru;
use crate::prepared::PreparedQuery;
use qld_logic::Query;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Independently locked shards of an [`AnswerCache`]. Sixteen mutexes
/// keep lock contention negligible for any realistic session count while
/// the per-shard LRU stays simple.
pub(crate) const SHARD_COUNT: usize = 16;

#[derive(Debug)]
struct CachedAnswer {
    /// Compared on lookup, so a 64-bit fingerprint collision between
    /// structurally different queries is a *miss*, never a wrong answer.
    query: Query,
    answers: Answers,
    footprint: QueryFootprint,
    /// The epochs this answer is known to be a fresh engine's at.
    epochs: RangeInclusive<u64>,
}

type Shard = Lru<(u64, Semantics), CachedAnswer>;

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().expect("answer cache poisoned")
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct AnswerCache {
    enabled: AtomicBool,
    shard_capacity: usize,
    /// Entries in all shards together; each change is made under the lock
    /// of the shard it happens in. Relaxed: it publishes nothing — an
    /// [`AnswerCache::advance`] that reads a stale zero only treats the
    /// entry it missed as a late insert.
    entries: AtomicUsize,
    shards: [Mutex<Shard>; SHARD_COUNT],
}

impl AnswerCache {
    /// A cache of at most `capacity` answers, rounded up to a whole number
    /// per shard (`0` keeps nothing).
    pub(crate) fn new(enabled: bool, capacity: usize) -> AnswerCache {
        AnswerCache {
            enabled: AtomicBool::new(enabled),
            shard_capacity: capacity.div_ceil(SHARD_COUNT),
            entries: AtomicUsize::new(0),
            shards: std::array::from_fn(|_| Mutex::default()),
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Disabling stops lookups and inserts and keeps the entries.
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    pub(crate) fn capacity(&self) -> usize {
        self.shard_capacity * SHARD_COUNT
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// The fingerprint is already a hash of the query.
    fn shard(&self, prepared: &PreparedQuery) -> MutexGuard<'_, Shard> {
        lock(&self.shards[(prepared.fingerprint % SHARD_COUNT as u64) as usize])
    }

    /// The answer kept for exactly `prepared`'s query if it holds at
    /// `epoch`, stamped as a hit served there (`cache_hit`, zero mappings,
    /// the lookup's elapsed time) and marked most recently used: a
    /// reference-count bump, whatever the answer's size.
    pub(crate) fn lookup(
        &self,
        prepared: &PreparedQuery,
        semantics: Semantics,
        epoch: u64,
    ) -> Option<Answers> {
        if !self.is_enabled() {
            return None;
        }
        let start = Instant::now();
        let mut shard = self.shard(prepared);
        shard
            .get_touch(&(prepared.fingerprint, semantics))
            .filter(|cached| cached.epochs.contains(&epoch) && cached.query == prepared.query)
            .map(|cached| cached.answers.as_cache_hit(epoch, start.elapsed()))
    }

    /// Keeps `answers` for the one epoch its evidence says it was computed
    /// at, unless the entry already there ends later.
    pub(crate) fn insert(&self, prepared: &PreparedQuery, semantics: Semantics, answers: &Answers) {
        if !self.is_enabled() {
            return;
        }
        let epoch = answers.evidence().epoch;
        let key = (prepared.fingerprint, semantics);
        let mut shard = self.shard(prepared);
        if shard
            .get_touch(&key)
            .is_some_and(|cached| *cached.epochs.end() > epoch)
        {
            return;
        }
        let before = shard.len();
        shard.put(
            key,
            CachedAnswer {
                query: prepared.query.clone(),
                answers: answers.clone(),
                footprint: prepared.footprint.clone(),
                epochs: epoch..=epoch,
            },
            self.shard_capacity,
        );
        self.entries
            .fetch_add(shard.len() - before, Ordering::Relaxed);
    }

    /// The database moves from epoch `old` to `new` by a delta that can
    /// change the answers `affected` accepts: every entry that ends at
    /// exactly `old` and is not affected now ends at `new`, and every
    /// other entry that ends before `new` is dropped. Returns `(evicted,
    /// retained)`. An empty cache takes no lock.
    pub(crate) fn advance(
        &self,
        old: u64,
        new: u64,
        mut affected: impl FnMut(&QueryFootprint, Semantics) -> bool,
    ) -> (usize, usize) {
        if self.len() == 0 {
            return (0, 0);
        }
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = lock(shard);
            evicted += shard.retain(|&(_, semantics), cached| {
                if *cached.epochs.end() == old && !affected(&cached.footprint, semantics) {
                    cached.epochs = *cached.epochs.start()..=new;
                }
                *cached.epochs.end() >= new
            });
        }
        self.entries.fetch_sub(evicted, Ordering::Relaxed);
        (evicted, self.len())
    }

    /// Drops every entry.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut shard = lock(shard);
            self.entries.fetch_sub(shard.len(), Ordering::Relaxed);
            shard.clear();
        }
    }

    /// `(shards holding at least one entry, entries in the fullest)`.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let lens = self.shards.iter().map(|shard| lock(shard).len());
        lens.fold((0, 0), |(occupied, largest), len| {
            (occupied + usize::from(len > 0), largest.max(len))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::{Certificate, Evidence, Regime};
    use crate::session::Engine;
    use qld_core::CwDatabase;
    use qld_logic::Vocabulary;
    use qld_physical::Relation;
    use std::time::Duration;

    const AUTO: Semantics = Semantics::Auto;

    /// `P(a)`, `R(a)` and `!P(a)`, prepared.
    fn queries() -> [PreparedQuery; 3] {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b"]).unwrap();
        voc.add_pred("P", 1).unwrap();
        voc.add_pred("R", 1).unwrap();
        let engine = Engine::new(CwDatabase::builder(voc).build().unwrap());
        ["P(a)", "R(a)", "!P(a)"].map(|text| engine.prepare_text(text).unwrap())
    }

    /// The same query under another fingerprint.
    fn with_fingerprint(prepared: &PreparedQuery, fingerprint: u64) -> PreparedQuery {
        PreparedQuery {
            fingerprint,
            ..prepared.clone()
        }
    }

    /// An answer of `tuples` empty rows' worth, computed at `epoch`.
    fn computed_at(epoch: u64, holds: bool) -> Answers {
        let tuples = if holds {
            Relation::from_rows(0, [[]])
        } else {
            Relation::empty(0)
        };
        let evidence = Evidence {
            requested: AUTO,
            regime: Regime::Approximation,
            certificate: Certificate::SoundLowerBound,
            elapsed: Duration::ZERO,
            mappings_evaluated: 0,
            workers_used: 0,
            components: 0,
            mappings_pruned: 0,
            components_reused: 0,
            cache_hit: false,
            shared_batch: None,
            epoch,
        };
        Answers::new(tuples, None, evidence)
    }

    fn nothing_affected(_: &QueryFootprint, _: Semantics) -> bool {
        false
    }

    #[test]
    fn a_hit_is_served_on_the_range_and_stamped_where_it_was_served() {
        let [on_p, on_r, _] = queries();
        let cache = AnswerCache::new(true, 64);
        cache.insert(&on_p, AUTO, &computed_at(3, true));
        assert!(cache.lookup(&on_p, AUTO, 2).is_none());
        assert!(cache.lookup(&on_p, AUTO, 4).is_none(), "not advanced yet");
        assert!(cache.lookup(&on_p, Semantics::Exact, 3).is_none());
        assert!(cache.lookup(&on_r, AUTO, 3).is_none());
        assert_eq!(cache.advance(3, 4, nothing_affected), (0, 1));
        assert_eq!(cache.advance(4, 5, nothing_affected), (0, 1));
        for epoch in 3..=5 {
            let hit = cache.lookup(&on_p, AUTO, epoch).unwrap();
            assert!(hit.evidence().cache_hit && hit.holds());
            assert_eq!(hit.evidence().epoch, epoch);
        }
        assert!(cache.lookup(&on_p, AUTO, 6).is_none());
    }

    #[test]
    fn advance_evicts_by_footprint_and_semantics() {
        let [on_p, on_r, negated_p] = queries();
        let cache = AnswerCache::new(true, 64);
        for q in [&on_p, &on_r, &negated_p] {
            cache.insert(q, AUTO, &computed_at(0, false));
        }
        cache.insert(&on_r, Semantics::Possible, &computed_at(0, false));
        // A fact delta into `P`.
        let p = on_p.footprint.preds()[0];
        assert_eq!(cache.advance(0, 1, |f, _| f.mentions(p)), (2, 2));
        assert!(cache.lookup(&on_r, AUTO, 1).is_some());
        assert!(cache.lookup(&on_p, AUTO, 1).is_none());
        assert!(
            cache.lookup(&on_p, AUTO, 0).is_none(),
            "evicted, not kept behind"
        );
        // An axiom delta.
        assert_eq!(cache.advance(1, 2, |f, s| f.ne_sensitive(s)), (1, 1));
        assert!(cache.lookup(&on_r, AUTO, 2).is_some());
        assert!(cache.lookup(&on_r, Semantics::Possible, 2).is_none());
        // The fully specifying one: everything, disjoint or not.
        assert_eq!(cache.advance(2, 3, |_, _| true), (1, 0));
        // Nothing left: no shard is locked again (a poisoned one would panic).
        assert_eq!(cache.advance(3, 4, |_, _| unreachable!()), (0, 0));
    }

    #[test]
    fn a_late_insert_is_never_stretched_over_a_delta_it_did_not_see() {
        let [on_p, on_r, _] = queries();
        let cache = AnswerCache::new(true, 64);
        let k = 7;
        cache.insert(&on_r, AUTO, &computed_at(k, false));
        assert_eq!(cache.advance(k, k + 1, nothing_affected), (0, 1));
        // A reader still on the epoch-`k` snapshot finishes now.
        cache.insert(&on_p, AUTO, &computed_at(k, false));
        assert!(
            cache.lookup(&on_p, AUTO, k).is_some(),
            "true where it was computed"
        );
        assert!(cache.lookup(&on_p, AUTO, k + 1).is_none());
        assert!(cache.lookup(&on_r, AUTO, k + 1).is_some());
        // The next delta is disjoint from it too — and still drops it.
        assert_eq!(cache.advance(k + 1, k + 2, nothing_affected), (1, 1));
        assert!(cache.lookup(&on_p, AUTO, k).is_none());
        assert!(cache.lookup(&on_p, AUTO, k + 2).is_none());
        assert_eq!(
            cache.lookup(&on_r, AUTO, k + 2).unwrap().evidence().epoch,
            k + 2
        );
        assert_eq!(cache.lookup(&on_r, AUTO, k).unwrap().evidence().epoch, k);
    }

    #[test]
    fn an_older_insert_does_not_replace_a_newer_entry() {
        let [on_p, ..] = queries();
        let cache = AnswerCache::new(true, 64);
        cache.insert(&on_p, AUTO, &computed_at(5, true));
        cache.insert(&on_p, AUTO, &computed_at(3, false));
        assert!(cache.lookup(&on_p, AUTO, 5).unwrap().holds());
        assert!(cache.lookup(&on_p, AUTO, 3).is_none());
        // A newer one does replace it, in place.
        cache.insert(&on_p, AUTO, &computed_at(6, false));
        assert!(!cache.lookup(&on_p, AUTO, 6).unwrap().holds());
        assert!(cache.lookup(&on_p, AUTO, 5).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_fingerprint_collision_is_a_miss() {
        let [on_p, on_r, _] = queries();
        let cache = AnswerCache::new(true, 64);
        cache.insert(&on_p, AUTO, &computed_at(0, true));
        // A *different* query carrying `on_p`'s fingerprint must miss, not
        // be served `on_p`'s answer.
        let forged = with_fingerprint(&on_r, on_p.fingerprint);
        assert!(cache.lookup(&forged, AUTO, 0).is_none());
        assert!(cache.lookup(&on_p, AUTO, 0).is_some());
    }

    #[test]
    fn capacity_holds_per_shard_and_the_count_follows() {
        let [on_p, ..] = queries();
        let shards = SHARD_COUNT as u64;
        let cache = AnswerCache::new(true, SHARD_COUNT); // one entry per shard
        assert_eq!(cache.capacity(), SHARD_COUNT);
        let same_shard = [0, shards, 2 * shards].map(|f| with_fingerprint(&on_p, f));
        for q in &same_shard {
            cache.insert(q, AUTO, &computed_at(0, false));
            assert_eq!((cache.len(), cache.occupancy()), (1, (1, 1)));
        }
        assert!(cache.lookup(&same_shard[1], AUTO, 0).is_none());
        assert!(cache.lookup(&same_shard[2], AUTO, 0).is_some());
        cache.insert(&with_fingerprint(&on_p, 1), AUTO, &computed_at(0, false));
        assert_eq!((cache.len(), cache.occupancy()), (2, (2, 1)));
        cache.clear();
        assert_eq!((cache.len(), cache.occupancy()), (0, (0, 0)));

        // No capacity, or switched off: nothing is kept or served.
        let none = AnswerCache::new(true, 0);
        none.insert(&on_p, AUTO, &computed_at(0, false));
        assert_eq!(none.len(), 0);
        let off = AnswerCache::new(false, 64);
        off.insert(&on_p, AUTO, &computed_at(0, false));
        assert_eq!(off.len(), 0);
        off.set_enabled(true);
        off.insert(&on_p, AUTO, &computed_at(0, false));
        off.set_enabled(false);
        assert!(off.lookup(&on_p, AUTO, 0).is_none());
        assert_eq!(off.len(), 1, "switching off keeps the entries");
    }
}
