//! The perspective cache: one entry per evaluated `(client, provider,
//! service)` key, invalidated along the pipeline's Sec. V-A3 dynamicity
//! semantics (each kind of change touches only the keys it can affect),
//! and bounded by a least-recently-used capacity so a long-lived engine
//! facing an unbounded perspective population cannot grow without limit.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default [`PerspectiveCache`] capacity: generous — the USI case study
/// has 45 perspectives, a large campus a few thousand — while still
/// bounding a long-lived engine's memory.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Cache key of one user perspective.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PerspectiveKey {
    pub client: String,
    pub provider: String,
    /// Name of the composite service the perspective was evaluated for.
    pub service: String,
}

impl PerspectiveKey {
    pub fn new(
        client: impl Into<String>,
        provider: impl Into<String>,
        service: impl Into<String>,
    ) -> Self {
        PerspectiveKey {
            client: client.into(),
            provider: provider.into(),
            service: service.into(),
        }
    }
}

/// Device names packed into one buffer. A cached UPSIM holds dozens of
/// short names, and a heap string each would cost more than the rest of
/// its cache entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameList {
    /// The names, concatenated.
    bytes: String,
    /// End offset of each name in `bytes`.
    ends: Vec<u32>,
}

impl NameList {
    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the list holds no name.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The names, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let name = &self.bytes[start..end as usize];
            start = end as usize;
            name
        })
    }

    /// `true` when `name` is in the list.
    pub fn contains(&self, name: &str) -> bool {
        self.iter().any(|n| n == name)
    }
}

impl<S: AsRef<str>> FromIterator<S> for NameList {
    fn from_iter<I: IntoIterator<Item = S>>(names: I) -> Self {
        let mut list = NameList::default();
        for name in names {
            list.bytes.push_str(name.as_ref());
            list.ends
                .push(u32::try_from(list.bytes.len()).expect("names fit in 4 GiB"));
        }
        list.bytes.shrink_to_fit();
        list.ends.shrink_to_fit();
        list
    }
}

/// The materialized result of one perspective evaluation.
#[derive(Debug, Clone)]
pub struct CachedPerspective {
    pub key: PerspectiveKey,
    /// Snapshot epoch the result was computed against.
    pub epoch: u64,
    /// User-perceived steady-state service availability (exact, BDD).
    pub availability: f64,
    /// UPSIM node set, in generation order.
    pub upsim_nodes: NameList,
    /// Discovered path count per atomic service, in execution order.
    pub path_counts: Vec<(String, usize)>,
    /// `|UPSIM| / |N|` over instances.
    pub reduction_ratio: f64,
    /// Wall time of the (uncached) evaluation in microseconds.
    pub eval_micros: u64,
    /// The compiled bit-sliced Monte-Carlo program of this perspective's
    /// structure function. Compiled once per `(epoch, perspective)` as
    /// part of the evaluation; `MC` requests run it without touching the
    /// pipeline.
    pub mc_program: Arc<dependability::McProgram>,
    /// Components of this perspective's availability model whose MTBF/MTTR
    /// were refined from observed transitions (vs. authored constants).
    pub observed: usize,
    /// 95% credible bounds on the exact availability, propagated from the
    /// refined components' parameter posteriors through the monotone
    /// structure function. `None` when every parameter is authored.
    pub availability_ci: Option<(f64, f64)>,
    /// Per-component parameter posteriors, aligned with the availability
    /// model's component order (the `mc_program` compile input); `None`
    /// entries, and components past the end, are authored. The engine
    /// stores them only up to the last observed component. Feeds
    /// [`dependability::McProgram::posterior_sampler`] for block-resampled
    /// `MC ... interval` runs.
    pub posterior: Vec<Option<dependability::PosteriorComponent>>,
}

impl CachedPerspective {
    /// `true` when removing the link `(a, b)` may change this result: every
    /// discovered path crossing the link visits both endpoints, so a
    /// perspective whose UPSIM misses either endpoint cannot be affected.
    pub fn touches_link(&self, a: &str, b: &str) -> bool {
        self.upsim_nodes.contains(a) && self.upsim_nodes.contains(b)
    }
}

/// One resident cache slot: the shared result, its last-used stamp and a
/// filter over its UPSIM names.
///
/// The stamp is a logical clock tick, not wall time — bumped from a shared
/// counter on every hit, so eviction can find the least-recently-used
/// entry without taking the write lock on reads.
struct Slot {
    entry: Arc<CachedPerspective>,
    last_used: AtomicU64,
    names: NameFilter,
}

/// A 512-bit Bloom filter over one entry's UPSIM names, two bits a name.
/// An invalidation sweep skips, without reading the entry, every slot
/// that lacks one of a name's bits; a full cache at 1,222 devices holds
/// 70 names an entry, which sets about a quarter of the bits.
#[derive(Clone, Copy, Default)]
struct NameFilter([u64; 8]);

impl NameFilter {
    /// The two bit positions of `name`.
    fn bits(name: &str) -> [usize; 2] {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        let hash = hasher.finish();
        [hash as usize % 512, (hash >> 32) as usize % 512]
    }

    fn of(names: &NameList) -> Self {
        let mut filter = NameFilter::default();
        for bit in names.iter().flat_map(Self::bits) {
            filter.0[bit / 64] |= 1 << (bit % 64);
        }
        filter
    }

    /// `false` when no name with these bits was added.
    fn may_contain(&self, bits: [usize; 2]) -> bool {
        bits.iter()
            .all(|&bit| self.0[bit / 64] & (1 << (bit % 64)) != 0)
    }
}

/// Concurrent map of perspective results with LRU capacity bounding.
///
/// Invalidation is eager (entries are removed when an update is
/// published); the epoch check on [`PerspectiveCache::insert`] closes the
/// race where an evaluation straddles an update — its result would
/// otherwise be inserted *after* the update's sweep and be served stale
/// forever.
///
/// When an insert would exceed the capacity, the entry with the smallest
/// last-used stamp is evicted (a linear scan under the write lock —
/// eviction is rare and capacities are modest, so an O(n) scan beats the
/// bookkeeping of an intrusive LRU list on every read).
pub struct PerspectiveCache {
    map: RwLock<HashMap<PerspectiveKey, Slot>>,
    capacity: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PerspectiveCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl PerspectiveCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache bounded to `capacity` resident perspectives (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PerspectiveCache {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted by the capacity bound so far (invalidation sweeps
    /// are not counted — those are correctness removals, not pressure).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Looks up a perspective, refreshing its recency on a hit.
    pub fn get(&self, key: &PerspectiveKey) -> Option<Arc<CachedPerspective>> {
        let map = self.map.read().expect("cache poisoned");
        let slot = map.get(key)?;
        slot.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some(Arc::clone(&slot.entry))
    }

    /// Inserts an entry, unless it was computed against an epoch other
    /// than the current one (a concurrent update already swept the cache;
    /// the stale result must not outlive it). Returns whether it was kept.
    /// At capacity, the least-recently-used resident entry is evicted
    /// first.
    ///
    /// The epoch is loaded *inside* the map lock. An update stores the new
    /// epoch before it takes this lock to sweep, so either this insert's
    /// critical section runs first (and the sweep removes the entry) or it
    /// runs after (and sees the bumped epoch, rejecting the entry) — the
    /// stale result cannot survive in either interleaving.
    pub fn insert(&self, entry: Arc<CachedPerspective>, current_epoch: &AtomicU64) -> bool {
        let names = NameFilter::of(&entry.upsim_nodes);
        let mut map = self.map.write().expect("cache poisoned");
        if entry.epoch != current_epoch.load(Ordering::SeqCst) {
            return false;
        }
        if !map.contains_key(&entry.key) && map.len() >= self.capacity {
            let victim = map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(key, _)| key.clone());
            if let Some(victim) = victim {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        map.insert(
            entry.key.clone(),
            Slot {
                entry,
                last_used: AtomicU64::new(stamp),
                names,
            },
        );
        true
    }

    /// Removes the perspectives a removed link `(a, b)` can affect; returns
    /// how many entries were dropped.
    pub fn invalidate_link(&self, a: &str, b: &str) -> usize {
        let (bits_a, bits_b) = (NameFilter::bits(a), NameFilter::bits(b));
        let mut map = self.map.write().expect("cache poisoned");
        let before = map.len();
        map.retain(|_, slot| {
            !(slot.names.may_contain(bits_a)
                && slot.names.may_contain(bits_b)
                && slot.entry.touches_link(a, b))
        });
        before - map.len()
    }

    /// Removes the perspectives whose UPSIM contains the observed
    /// component — the only ones whose availability a refined parameter
    /// can change; returns how many entries were dropped.
    pub fn invalidate_component(&self, name: &str) -> usize {
        self.invalidate_components(&[name])
    }

    /// [`PerspectiveCache::invalidate_component`] for a batch of observed
    /// components in one retain sweep; returns how many entries were
    /// dropped.
    pub fn invalidate_components(&self, names: &[&str]) -> usize {
        let bits: Vec<[usize; 2]> = names.iter().map(|name| NameFilter::bits(name)).collect();
        let mut map = self.map.write().expect("cache poisoned");
        let before = map.len();
        map.retain(|_, slot| {
            !names.iter().zip(&bits).any(|(name, &bits)| {
                slot.names.may_contain(bits) && slot.entry.upsim_nodes.contains(name)
            })
        });
        before - map.len()
    }

    /// Removes every perspective of the named service (service
    /// substitution, Sec. V-A3); returns how many entries were dropped.
    pub fn invalidate_service(&self, service: &str) -> usize {
        let mut map = self.map.write().expect("cache poisoned");
        let before = map.len();
        map.retain(|key, _| key.service != service);
        before - map.len()
    }

    /// Removes everything (topology additions can create new paths for any
    /// pair); returns how many entries were dropped.
    pub fn invalidate_all(&self) -> usize {
        let mut map = self.map.write().expect("cache poisoned");
        let before = map.len();
        map.clear();
        before
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.read().expect("cache poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Negative cache per view generation: perspectives whose evaluation
/// *failed* (unknown device, model error) keep failing identically until
/// the topology or the service changes, so the error string is cached and
/// replayed without touching the pipeline. The tag is the snapshot's
/// `view_generation`, which an `OBSERVE` keeps and every other write
/// moves, so invalidation is free: entries recorded against another
/// generation are ignored and lazily cleared on the next write, so an
/// `UPDATE` (which may well fix the error, e.g. by wiring in the missing
/// device) implicitly flushes the whole negative set, and a refusal
/// derived before a write never replays after it.
#[derive(Default)]
pub struct NegativeCache {
    inner: RwLock<(u64, HashMap<PerspectiveKey, crate::engine::EngineError>)>,
}

impl NegativeCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached failure for `key`, if recorded against view generation
    /// `view`.
    pub fn get(&self, key: &PerspectiveKey, view: u64) -> Option<crate::engine::EngineError> {
        let inner = self.inner.read().expect("negative cache poisoned");
        if inner.0 != view {
            return None;
        }
        inner.1.get(key).cloned()
    }

    /// Records a failure observed at view generation `view`, dropping
    /// entries of any other generation first.
    pub fn insert(&self, key: PerspectiveKey, error: crate::engine::EngineError, view: u64) {
        let mut inner = self.inner.write().expect("negative cache poisoned");
        if inner.0 != view {
            inner.0 = view;
            inner.1.clear();
        }
        inner.1.insert(key, error);
    }

    /// Resident negative entries for view generation `view` (0 when the
    /// cache belongs to another generation).
    pub fn len(&self, view: u64) -> usize {
        let inner = self.inner.read().expect("negative cache poisoned");
        if inner.0 == view {
            inner.1.len()
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        client: &str,
        provider: &str,
        service: &str,
        nodes: &[&str],
    ) -> Arc<CachedPerspective> {
        Arc::new(CachedPerspective {
            key: PerspectiveKey::new(client, provider, service),
            epoch: 0,
            availability: 0.99,
            upsim_nodes: nodes.iter().collect(),
            path_counts: vec![],
            reduction_ratio: 0.5,
            eval_micros: 1,
            mc_program: Arc::new(dependability::McProgram::compile(&[], std::iter::empty())),
            observed: 0,
            availability_ci: None,
            posterior: Vec::new(),
        })
    }

    #[test]
    fn name_list_keeps_names_in_order() {
        let list: NameList = ["t1", "", "sw", "t1x"].into_iter().collect();
        assert_eq!(list.len(), 4);
        assert_eq!(list.iter().collect::<Vec<_>>(), ["t1", "", "sw", "t1x"]);
        assert!(list.contains("t1x") && list.contains(""));
        assert!(!list.contains("t") && !list.contains("sw2"));
        assert!(NameList::default().is_empty());
    }

    #[test]
    fn filtered_sweeps_drop_exactly_the_entries_naming_the_component() {
        // 400 entries of 70 names drawn from 300, so filters fill about as
        // much as at 1,222 devices and some names are false positives.
        let cache = PerspectiveCache::with_capacity(1000);
        let epoch = AtomicU64::new(0);
        let names: Vec<String> = (0..300).map(|i| format!("dev{i}")).collect();
        let mut lists = Vec::new();
        for e in 0..400usize {
            let nodes: Vec<&str> = (0..70)
                .map(|k| names[(e * 37 + k * k * 11) % 300].as_str())
                .collect();
            assert!(cache.insert(entry(&format!("c{e}"), "p", "s", &nodes), &epoch));
            lists.push(nodes);
        }
        for probe in ["dev7", "dev123", "dev299", "absent"] {
            let expected = lists.iter().filter(|nodes| nodes.contains(&probe)).count();
            lists.retain(|nodes| !nodes.contains(&probe));
            assert_eq!(cache.invalidate_component(probe), expected, "{probe}");
            assert_eq!(cache.len(), lists.len());
        }
        let expected = lists
            .iter()
            .filter(|nodes| nodes.contains(&"dev1") && nodes.contains(&"dev2"))
            .count();
        assert_eq!(cache.invalidate_link("dev1", "dev2"), expected);
    }

    #[test]
    fn link_invalidation_requires_both_endpoints() {
        let cache = PerspectiveCache::new();
        cache.insert(
            entry("t1", "p1", "printS", &["t1", "sw", "p1"]),
            &AtomicU64::new(0),
        );
        cache.insert(
            entry("t2", "p2", "printS", &["t2", "sw", "p2"]),
            &AtomicU64::new(0),
        );
        // Only the first perspective has both `t1` and `sw` on a path.
        assert_eq!(cache.invalidate_link("t1", "sw"), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache
            .get(&PerspectiveKey::new("t2", "p2", "printS"))
            .is_some());
        // A link that appears in no cached UPSIM invalidates nothing.
        assert_eq!(cache.invalidate_link("x", "y"), 0);
    }

    #[test]
    fn service_invalidation_is_keyed_by_name() {
        let cache = PerspectiveCache::new();
        cache.insert(entry("t1", "p1", "printS", &["t1"]), &AtomicU64::new(0));
        cache.insert(entry("t1", "srv", "backup", &["t1"]), &AtomicU64::new(0));
        assert_eq!(cache.invalidate_service("printS"), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache
            .get(&PerspectiveKey::new("t1", "srv", "backup"))
            .is_some());
    }

    #[test]
    fn stale_epoch_insert_is_rejected() {
        let cache = PerspectiveCache::new();
        assert!(!cache.insert(entry("t1", "p1", "printS", &["t1"]), &AtomicU64::new(3)));
        assert!(cache.is_empty());
        assert!(cache.insert(entry("t1", "p1", "printS", &["t1"]), &AtomicU64::new(0)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_all_flushes() {
        let cache = PerspectiveCache::new();
        cache.insert(entry("t1", "p1", "printS", &["t1"]), &AtomicU64::new(0));
        cache.insert(entry("t2", "p1", "printS", &["t2"]), &AtomicU64::new(0));
        assert_eq!(cache.invalidate_all(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used_at_capacity() {
        let cache = PerspectiveCache::with_capacity(2);
        let epoch = AtomicU64::new(0);
        assert!(cache.insert(entry("a", "p", "s", &["a"]), &epoch));
        assert!(cache.insert(entry("b", "p", "s", &["b"]), &epoch));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        // Touch `a`, making `b` the LRU victim.
        assert!(cache.get(&PerspectiveKey::new("a", "p", "s")).is_some());
        assert!(cache.insert(entry("c", "p", "s", &["c"]), &epoch));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&PerspectiveKey::new("a", "p", "s")).is_some());
        assert!(cache.get(&PerspectiveKey::new("b", "p", "s")).is_none());
        assert!(cache.get(&PerspectiveKey::new("c", "p", "s")).is_some());
        // Now `a` was re-touched and `c` inserted after; next insert evicts
        // whichever is stalest — touch `c`, so `a` goes.
        assert!(cache.get(&PerspectiveKey::new("a", "p", "s")).is_some());
        assert!(cache.get(&PerspectiveKey::new("c", "p", "s")).is_some());
        assert!(cache.insert(entry("d", "p", "s", &["d"]), &epoch));
        assert!(cache.get(&PerspectiveKey::new("a", "p", "s")).is_none());
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let cache = PerspectiveCache::with_capacity(2);
        let epoch = AtomicU64::new(0);
        cache.insert(entry("a", "p", "s", &["a"]), &epoch);
        cache.insert(entry("b", "p", "s", &["b"]), &epoch);
        // Overwriting `a` at capacity must not push `b` out.
        cache.insert(entry("a", "p", "s", &["a", "x"]), &epoch);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.get(&PerspectiveKey::new("b", "p", "s")).is_some());
    }

    #[test]
    fn negative_cache_is_per_epoch() {
        use crate::engine::EngineError;
        let negative = NegativeCache::new();
        let key = PerspectiveKey::new("ghost", "p1", "printS");
        negative.insert(key.clone(), EngineError::UnknownDevice("ghost".into()), 3);
        assert_eq!(
            negative.get(&key, 3),
            Some(EngineError::UnknownDevice("ghost".into()))
        );
        assert_eq!(negative.len(3), 1);
        // A new view generation makes the entry invisible...
        assert_eq!(negative.get(&key, 4), None);
        assert_eq!(negative.len(4), 0);
        // ...and the next write against the new generation clears the old
        // set.
        negative.insert(
            PerspectiveKey::new("other", "p1", "printS"),
            EngineError::Model("no path".into()),
            4,
        );
        assert_eq!(negative.len(4), 1);
        assert_eq!(negative.get(&key, 4), None);
    }
}
