//! The one LRU behind the answer cache's shards (`cache.rs`) and the
//! server's per-connection statement map: the map and the recency order.
//! Each owner keeps its own policy and its own lock around an [`Lru`].

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A map in true LRU order (lookups refresh recency). Not synchronised
/// and not bounded by itself: the owner holds the lock and passes its
/// capacity to [`Lru::put`].
#[derive(Debug)]
pub struct Lru<K, V> {
    /// `key → (value, recency stamp)`.
    map: HashMap<K, (V, u64)>,
    /// `tick → key`; one entry per value, first = least recently used.
    /// Ticks are unique (monotonic counter), so this is a total recency
    /// order.
    order: BTreeMap<u64, K>,
    next_tick: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
        }
    }
}

impl<K: Clone + Eq + Hash, V> Lru<K, V> {
    /// The value stored under `key`, marked most recently used.
    pub fn get_touch<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let (value, tick) = self.map.get_mut(key)?;
        let key = self.order.remove(tick).expect("every value has its tick");
        *tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(*tick, key);
        Some(value)
    }

    /// Stores (or replaces) the value under `key` as most recently used,
    /// first dropping the least recently used entry when a new key would
    /// grow the map past `capacity`. A `capacity` of zero stores nothing.
    pub fn put(&mut self, key: K, value: V, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
            }
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some((_, old_tick)) = self.map.insert(key.clone(), (value, tick)) {
            self.order.remove(&old_tick);
        }
        self.order.insert(tick, key);
    }

    /// Drops the entry under `key`, if any.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let (value, tick) = self.map.remove(key)?;
        self.order.remove(&tick);
        Some(value)
    }

    /// Drops every entry `keep` rejects — it may update the ones it keeps
    /// in place — and returns how many went.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) -> usize {
        let before = self.map.len();
        let order = &mut self.order;
        self.map.retain(|key, (value, tick)| {
            let kept = keep(key, value);
            if !kept {
                order.remove(tick);
            }
            kept
        });
        before - self.map.len()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff there are no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn evicts_least_recently_used_and_looks_up_by_borrowed_key() {
        let mut lru: Lru<Arc<str>, u32> = Lru::default();
        for (key, value) in [("a", 1), ("b", 2)] {
            lru.put(key.into(), value, 2);
        }
        // Touch `a`; the next new key pushes `b` out.
        assert_eq!(lru.get_touch("a"), Some(&1));
        lru.put("c".into(), 3, 2);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get_touch("b"), None);
        assert_eq!(lru.get_touch("a"), Some(&1));
        // Replacing a key keeps the size and refreshes it.
        lru.put("c".into(), 4, 2);
        lru.put("d".into(), 5, 2);
        assert_eq!(lru.get_touch("a"), None);
        assert_eq!(lru.get_touch("c"), Some(&4));
        assert_eq!(lru.remove("c"), Some(4));
        assert_eq!(lru.remove("c"), None);
        assert_eq!(lru.retain(|_, value| *value != 5), 1);
        assert!(lru.is_empty());
        // Nothing fits a capacity of zero.
        lru.put("e".into(), 6, 0);
        assert!(lru.is_empty());
    }
}
