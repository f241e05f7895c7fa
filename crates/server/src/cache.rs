//! The warm-checkpoint LRU cache.
//!
//! The server keys warm states by their request-derived identity string
//! ([`SweepRequest::warm_key`](mpsoc_platform::service::SweepRequest::warm_key))
//! and additionally records the **structural fingerprint** of the platform
//! that produced each entry. A lookup must present the fingerprint of the
//! platform it intends to fork into; an entry whose fingerprint differs is
//! *stale* — it is evicted on the spot and the lookup is a miss, so a wrong
//! blob can never be served (and the kernel's restore path would refuse it
//! a second time anyway).
//!
//! Eviction is deterministic least-recently-used: every hit and insert
//! stamps the entry with a strictly monotone use counter, and the entry
//! with the smallest stamp is evicted when the cache is full. Values are
//! handed out as [`Arc`]s, so an eviction never invalidates an in-flight
//! fork.
//!
//! [`WarmCache::get_or_compute`] additionally collapses concurrent misses
//! for the same key: the first requester computes, the rest block on a
//! condvar and are served the freshly inserted entry as hits. The cache is
//! generic over the stored value so the eviction and staleness machinery is
//! testable without running simulations.

use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};

/// Counters describing the cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (including waiters collapsed onto a
    /// concurrent computation of the same key).
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped because their fingerprint did not match the
    /// requesting platform.
    pub stale_rejected: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<T> {
    key: String,
    fingerprint: u64,
    value: Arc<T>,
    last_used: u64,
}

struct Inner<T> {
    entries: Vec<Entry<T>>,
    in_flight: HashSet<String>,
    tick: u64,
    stats: CacheStats,
}

impl<T> Inner<T> {
    /// The one hit check: a `key` entry carrying `fingerprint` is a hit
    /// (counted, stamped); a stale one stays put and its index is returned.
    fn probe(&mut self, key: &str, fingerprint: u64) -> Result<Arc<T>, Option<usize>> {
        self.tick += 1;
        let at = self.entries.iter().position(|e| e.key == key).ok_or(None)?;
        if self.entries[at].fingerprint != fingerprint {
            return Err(Some(at));
        }
        self.stats.hits += 1;
        self.entries[at].last_used = self.tick;
        Ok(Arc::clone(&self.entries[at].value))
    }

    /// Evicts the stale entry at `at`.
    fn reject_stale(&mut self, at: usize) {
        self.entries.remove(at);
        self.stats.stale_rejected += 1;
    }
}

/// A bounded, fingerprint-checked LRU cache of warm states.
pub struct WarmCache<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    landed: Condvar,
}

/// The outcome of a [`WarmCache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from the cache.
    Hit,
    /// Not present.
    Miss,
    /// Present but structurally wrong; the entry was evicted.
    Stale,
}

impl<T> WarmCache<T> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        WarmCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                in_flight: HashSet::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            landed: Condvar::new(),
        }
    }

    /// The maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current number of entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }

    /// The cached keys, most recently used first. For observability and
    /// eviction-order tests.
    pub fn keys_by_recency(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("cache lock");
        let mut keyed: Vec<(u64, &str)> = inner
            .entries
            .iter()
            .map(|e| (e.last_used, e.key.as_str()))
            .collect();
        keyed.sort_by_key(|&(used, _)| std::cmp::Reverse(used));
        keyed.into_iter().map(|(_, k)| k.to_string()).collect()
    }

    /// Looks `key` up without committing to a miss: a present, matching
    /// entry counts as a hit and bumps its LRU stamp; anything else counts
    /// nothing and leaves the cache untouched.
    ///
    /// This is the serving fast path's probe — a miss here falls through to
    /// [`WarmCache::get_or_compute`], which records the authoritative miss
    /// (and evicts a stale entry), so the counters see each request exactly
    /// once.
    pub fn peek(&self, key: &str, fingerprint: u64) -> Option<Arc<T>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.probe(key, fingerprint).ok()
    }

    /// Looks `key` up, requiring the entry to carry `fingerprint`.
    ///
    /// A present entry with a different fingerprint is evicted and counted
    /// as [`Lookup::Stale`] (the caller must treat it as a miss).
    pub fn lookup(&self, key: &str, fingerprint: u64) -> (Option<Arc<T>>, Lookup) {
        let mut inner = self.inner.lock().expect("cache lock");
        let outcome = match inner.probe(key, fingerprint) {
            Ok(value) => return (Some(value), Lookup::Hit),
            Err(Some(at)) => {
                inner.reject_stale(at);
                Lookup::Stale
            }
            Err(None) => Lookup::Miss,
        };
        inner.stats.misses += 1;
        (None, outcome)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used entry
    /// if the cache is full.
    pub fn insert(&self, key: &str, fingerprint: u64, value: Arc<T>) {
        let mut inner = self.inner.lock().expect("cache lock");
        Self::insert_locked(&mut inner, self.capacity, key, fingerprint, value);
    }

    fn insert_locked(
        inner: &mut Inner<T>,
        capacity: usize,
        key: &str,
        fingerprint: u64,
        value: Arc<T>,
    ) {
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(at) = inner.entries.iter().position(|e| e.key == key) {
            inner.entries[at] = Entry {
                key: key.to_string(),
                fingerprint,
                value,
                last_used: tick,
            };
            return;
        }
        if inner.entries.len() >= capacity {
            let oldest = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("full cache is non-empty");
            inner.entries.remove(oldest);
            inner.stats.evictions += 1;
        }
        inner.entries.push(Entry {
            key: key.to_string(),
            fingerprint,
            value,
            last_used: tick,
        });
    }

    /// Looks `key` up; on a miss, runs `compute` (without holding the lock)
    /// and inserts the result. Concurrent callers missing on the same key
    /// block until the computing caller lands the entry and are then served
    /// it as hits — one warm-up run, many forks.
    ///
    /// Returns the value and whether this caller was served from the cache.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; waiting callers retry the computation
    /// themselves in that case.
    pub fn get_or_compute<E>(
        &self,
        key: &str,
        fingerprint: u64,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, Lookup), E> {
        let mut inner = self.inner.lock().expect("cache lock");
        loop {
            match inner.probe(key, fingerprint) {
                Ok(value) => return Ok((value, Lookup::Hit)),
                Err(Some(at)) => inner.reject_stale(at),
                Err(None) => {}
            }
            if inner.in_flight.contains(key) {
                inner = self.landed.wait(inner).expect("cache lock");
                continue;
            }
            inner.stats.misses += 1;
            inner.in_flight.insert(key.to_string());
            break;
        }
        drop(inner);
        let computed = compute();
        let mut inner = self.inner.lock().expect("cache lock");
        inner.in_flight.remove(key);
        let result = match computed {
            Ok(value) => {
                let value = Arc::new(value);
                Self::insert_locked(
                    &mut inner,
                    self.capacity,
                    key,
                    fingerprint,
                    Arc::clone(&value),
                );
                Ok((value, Lookup::Miss))
            }
            Err(e) => Err(e),
        };
        drop(inner);
        self.landed.notify_all();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn eviction_is_deterministic_lru() {
        let cache: WarmCache<u64> = WarmCache::new(3);
        cache.insert("a", 1, Arc::new(10));
        cache.insert("b", 2, Arc::new(20));
        cache.insert("c", 3, Arc::new(30));
        // Touch `a`, making `b` the least recently used.
        assert_eq!(cache.lookup("a", 1).1, Lookup::Hit);
        cache.insert("d", 4, Arc::new(40));
        assert_eq!(cache.keys_by_recency(), ["d", "a", "c"]);
        assert_eq!(cache.lookup("b", 2).1, Lookup::Miss);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn peek_never_counts_a_miss() {
        let cache: WarmCache<u64> = WarmCache::new(2);
        assert!(cache.peek("k", 7).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
        cache.insert("k", 7, Arc::new(5));
        assert_eq!(cache.peek("k", 7).as_deref(), Some(&5));
        assert!(cache.peek("k", 8).is_none(), "mismatch peeks are misses");
        assert_eq!(cache.lookup("k", 7).1, Lookup::Hit, "...but evict nothing");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stale_rejected), (2, 0, 0));
    }

    #[test]
    fn stale_fingerprint_is_never_served() {
        let cache: WarmCache<u64> = WarmCache::new(2);
        cache.insert("k", 0xaaaa, Arc::new(1));
        let (value, outcome) = cache.lookup("k", 0xbbbb);
        assert_eq!(outcome, Lookup::Stale);
        assert!(value.is_none());
        // The stale entry is gone entirely — a retry with the original
        // fingerprint also misses.
        assert_eq!(cache.lookup("k", 0xaaaa).1, Lookup::Miss);
        assert_eq!(cache.stats().stale_rejected, 1);
    }

    #[test]
    fn get_or_compute_computes_once_per_key() {
        let cache: WarmCache<u64> = WarmCache::new(2);
        let runs = AtomicU64::new(0);
        for _ in 0..3 {
            let (value, _) = cache
                .get_or_compute("k", 7, || -> Result<u64, ()> {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Ok(42)
                })
                .expect("computes");
            assert_eq!(*value, 42);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn compute_errors_do_not_poison_the_key() {
        let cache: WarmCache<u64> = WarmCache::new(2);
        let failed: Result<_, &str> = cache.get_or_compute("k", 7, || Err("boom"));
        assert!(failed.is_err());
        let (value, outcome) = cache
            .get_or_compute("k", 7, || -> Result<u64, &str> { Ok(9) })
            .expect("recovers");
        assert_eq!((*value, outcome), (9, Lookup::Miss));
    }

    #[test]
    fn concurrent_misses_collapse_onto_one_computation() {
        let cache: Arc<WarmCache<u64>> = Arc::new(WarmCache::new(2));
        let runs = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let runs = Arc::clone(&runs);
            handles.push(std::thread::spawn(move || {
                let (value, _) = cache
                    .get_or_compute("k", 7, || -> Result<u64, ()> {
                        runs.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually queue.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(42)
                    })
                    .expect("computes");
                *value
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("joins"), 42);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one warm-up, many forks");
        assert_eq!(cache.stats().hits, 7);
    }
}
