//! Response caching for the model server.
//!
//! The paper's future-work section (§VII) plans to "cache high-frequency
//! data to decrease system latency". This module implements that extension:
//! a bounded FIFO cache over tag-click responses keyed by
//! `(tenant, clicked tags)`. Click prefixes are heavy-tailed (most sessions
//! start from the same few popular tags), so even a small cache absorbs a
//! large share of requests.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

/// A bounded FIFO map with hit/miss accounting. FIFO (rather than LRU)
/// keeps eviction O(1) without bookkeeping on the read path; for the
/// head-heavy key distribution of click prefixes the hit-rate difference
/// is negligible.
pub struct ResponseCache<K, V> {
    inner: Mutex<CacheInner<K, V>>,
    capacity: usize,
}

struct CacheInner<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
}

impl<K, V> ResponseCache<K, V>
where
    K: std::hash::Hash + Eq + Clone,
    V: Clone,
{
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ResponseCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::with_capacity(capacity),
                order: VecDeque::with_capacity(capacity),
                hits: 0,
                misses: 0,
            }),
            capacity,
        }
    }

    /// Looks up a key, counting the hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.inner.lock();
        match inner.map.get(key).cloned() {
            Some(v) => {
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a value, evicting the oldest entry when full. Re-inserting an
    /// existing key refreshes the value without growing the cache.
    pub fn put(&self, key: K, value: V) {
        let mut inner = self.inner.lock();
        if inner.map.insert(key.clone(), value).is_none() {
            inner.order.push_back(key);
            if inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Hit rate in `[0, 1]`; 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = self.stats();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Drops every entry (e.g. after a T+1 model refresh) and resets stats.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
        inner.hits = 0;
        inner.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let c: ResponseCache<u32, &str> = ResponseCache::new(2);
        assert!(c.get(&1).is_none());
        c.put(1, "a");
        assert_eq!(c.get(&1), Some("a"));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn fifo_eviction() {
        let c: ResponseCache<u32, u32> = ResponseCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.put(3, 30); // evicts 1
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let c: ResponseCache<u32, u32> = ResponseCache::new(2);
        c.put(1, 10);
        c.put(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let c: ResponseCache<u32, u32> = ResponseCache::new(4);
        c.put(1, 1);
        let _ = c.get(&1); // hit
        let _ = c.get(&2); // miss
        let _ = c.get(&1); // hit
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let c: ResponseCache<u32, u32> = ResponseCache::new(4);
        c.put(1, 1);
        let _ = c.get(&1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: ResponseCache<u32, u32> = ResponseCache::new(0);
    }
}
