//! The one LRU behind both answer caches.
//!
//! The solo engine's cache (keyed `(fingerprint, semantics)`, evicted by
//! footprint on a delta) and the shared engine's shards (keyed
//! `(fingerprint, semantics, epoch)`, never invalidated) are one
//! algorithm over two key types. Each keeps its own policy and its own
//! lock around an [`Lru`]; what is here is the map, the recency order
//! and the fingerprint-collision check.

use crate::evidence::Answers;
use qld_logic::Query;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// One cached answer: the source query (compared on lookup, so a 64-bit
/// fingerprint collision between structurally different queries is a
/// *miss*, never a wrong answer), the finished [`Answers`], whatever the
/// owning cache evicts on (`T`), and an LRU recency stamp.
#[derive(Debug)]
struct Entry<T> {
    query: Query,
    answers: Answers,
    tag: T,
    tick: u64,
}

/// A map from cache key to finished answers in true LRU order (lookups
/// refresh recency). Not synchronised and not bounded by itself: the
/// owner holds the lock and passes its capacity to [`Lru::put`].
#[derive(Debug)]
pub(crate) struct Lru<K, T = ()> {
    map: HashMap<K, Entry<T>>,
    /// `tick → key`; one entry per cached answer, first = least recently
    /// used. Ticks are unique (monotonic counter), so this is a total
    /// recency order.
    order: BTreeMap<u64, K>,
    next_tick: u64,
}

impl<K, T> Default for Lru<K, T> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
        }
    }
}

impl<K: Copy + Eq + Hash, T> Lru<K, T> {
    /// The answers stored under `key` for exactly `query`, marked most
    /// recently used.
    pub(crate) fn get_touch(&mut self, key: K, query: &Query) -> Option<&Answers> {
        let entry = self.map.get_mut(&key).filter(|e| e.query == *query)?;
        self.order.remove(&entry.tick);
        entry.tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(entry.tick, key);
        Some(&entry.answers)
    }

    /// Stores (or replaces) the answers under `key` as most recently
    /// used, first dropping the least recently used entry when a new key
    /// would grow the map past `capacity`.
    pub(crate) fn put(&mut self, key: K, query: Query, answers: Answers, tag: T, capacity: usize) {
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
            }
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        let entry = Entry {
            query,
            answers,
            tag,
            tick,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.order.remove(&old.tick);
        }
        self.order.insert(tick, key);
    }

    /// Drops every entry `keep` rejects; returns how many went.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &T) -> bool) -> usize {
        let before = self.map.len();
        let order = &mut self.order;
        self.map.retain(|key, entry| {
            let kept = keep(key, &entry.tag);
            if !kept {
                order.remove(&entry.tick);
            }
            kept
        });
        before - self.map.len()
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}
