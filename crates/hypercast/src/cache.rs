//! Cache-aware tree construction: an LRU cache of built multicast trees.
//!
//! Under sustained load (the open-loop traffic engine of the `traffic`
//! crate) the same multicast groups recur constantly — many users, few
//! distinct communication patterns — and rebuilding an identical
//! `W-sort` tree for every arrival wastes the dominant share of session
//! setup time. [`TreeCache`] memoizes [`Algorithm::build`] keyed by the
//! complete construction input `(algorithm, cube, resolution, port
//! model, source, destination set)`.
//!
//! **Transparency.** Tree construction is a pure function of that key:
//! `relative_chain` sorts the destination set before any algorithm looks
//! at it, so the *order* in which callers list destinations is
//! irrelevant and the cache canonicalizes it away (the key stores the
//! sorted set). A cached tree is therefore structurally identical —
//! unicast for unicast — to a cold-built one; `traffic`'s proptest suite
//! pins this down.
//!
//! Entries are shared as [`Arc`]s: a hit is a pointer clone, and trees
//! stay alive while any in-flight session still replays them even after
//! eviction.

use crate::algorithms::Algorithm;
use crate::repair::{repair, NetworkFaults};
use crate::schedule::PortModel;
use crate::tree::MulticastTree;
use hcube::{Cube, HcubeError, NodeId, Resolution};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The complete input of a tree construction, with the destination set
/// canonicalized (sorted ascending). Two calls that build the same tree
/// always produce the same key. `epoch` is 0 for pristine-cube trees
/// (they are fault-independent) and the cache's current epoch for trees
/// routed around faults (`repaired`), so a stale repaired tree can never
/// be served after the topology changes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct TreeKey {
    algo: Algorithm,
    cube: Cube,
    resolution: Resolution,
    port: PortModel,
    source: NodeId,
    dests: Vec<NodeId>,
    epoch: u64,
    repaired: bool,
}

impl TreeKey {
    /// Builds the canonical key for a construction call (sorts a copy of
    /// `dests`; duplicates are kept and will surface as the same
    /// [`HcubeError::DuplicateAddress`] the uncached build reports).
    fn new(
        algo: Algorithm,
        cube: Cube,
        resolution: Resolution,
        port: PortModel,
        source: NodeId,
        dests: &[NodeId],
    ) -> TreeKey {
        let mut dests = dests.to_vec();
        dests.sort_unstable();
        TreeKey {
            algo,
            cube,
            resolution,
            port,
            source,
            dests,
            epoch: 0,
            repaired: false,
        }
    }
}

/// Hit/miss/eviction/invalidation counters of a [`TreeCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the tree.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Repaired entries dropped because the fault epoch advanced (their
    /// topology snapshot went stale); pristine entries are never
    /// invalidated.
    pub invalidations: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0.0 before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas accumulated since an `earlier` snapshot of the
    /// same cache: `cache.stats().since(before)` isolates the lookups a
    /// single session (or retry attempt) performed. Counters are
    /// monotone, so the subtraction never wraps on well-ordered
    /// snapshots; `saturating_sub` guards a misordered pair.
    #[must_use]
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
        }
    }
}

/// A bounded LRU cache of built multicast trees.
///
/// ```
/// use hcube::{Cube, NodeId, Resolution};
/// use hypercast::cache::TreeCache;
/// use hypercast::{Algorithm, PortModel};
///
/// let mut cache = TreeCache::new(64);
/// let dests = [NodeId(3), NodeId(9), NodeId(17)];
/// let a = cache
///     .get_or_build(Algorithm::WSort, Cube::of(5), Resolution::HighToLow,
///                   PortModel::AllPort, NodeId(0), &dests)
///     .unwrap();
/// // Same group, different listing order: a pointer-identical hit.
/// let b = cache
///     .get_or_build(Algorithm::WSort, Cube::of(5), Resolution::HighToLow,
///                   PortModel::AllPort, NodeId(0), &[NodeId(17), NodeId(3), NodeId(9)])
///     .unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct TreeCache {
    capacity: usize,
    /// Monotonic use-stamp; drives the LRU order.
    clock: u64,
    /// Current fault epoch; repaired entries are keyed to it.
    epoch: u64,
    map: HashMap<TreeKey, (u64, Arc<MulticastTree>)>,
    /// Reverse index stamp → key; the first entry is least recently used.
    lru: BTreeMap<u64, TreeKey>,
    stats: CacheStats,
}

impl TreeCache {
    /// Creates a cache holding at most `capacity` trees. A capacity of 0
    /// disables caching entirely (every lookup is a miss that builds).
    #[must_use]
    pub fn new(capacity: usize) -> TreeCache {
        TreeCache {
            capacity,
            clock: 0,
            epoch: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The fault epoch repaired entries are currently keyed to.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the cache to fault epoch `epoch`. If the epoch actually
    /// changes, every *repaired* entry is dropped — its topology
    /// snapshot is stale — and counted in
    /// [`CacheStats::invalidations`]; pristine-cube entries survive
    /// (they are fault-independent). A same-epoch call is a no-op.
    pub fn set_epoch(&mut self, epoch: u64) {
        if epoch == self.epoch {
            return;
        }
        self.epoch = epoch;
        let stale: Vec<TreeKey> = self.map.keys().filter(|k| k.repaired).cloned().collect();
        for key in stale {
            if let Some((stamp, _)) = self.map.remove(&key) {
                self.lru.remove(&stamp);
                self.stats.invalidations += 1;
            }
        }
    }

    /// Number of trees currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&mut self) {
        self.map.clear();
        self.lru.clear();
    }

    /// Returns the tree for the given construction input, building (and
    /// caching) it on a miss. Hits refresh the entry's LRU position and
    /// cost one `HashMap` probe plus an `Arc` clone.
    ///
    /// # Errors
    /// Exactly the errors of [`Algorithm::build`]
    /// ([`HcubeError::NodeOutOfRange`] / [`HcubeError::DuplicateAddress`]);
    /// failed builds are never cached.
    pub fn get_or_build(
        &mut self,
        algo: Algorithm,
        cube: Cube,
        resolution: Resolution,
        port: PortModel,
        source: NodeId,
        dests: &[NodeId],
    ) -> Result<Arc<MulticastTree>, HcubeError> {
        let key = TreeKey::new(algo, cube, resolution, port, source, dests);
        if let Some(tree) = self.lookup(&key) {
            return Ok(tree);
        }
        self.stats.misses += 1;
        // Build from the canonical (sorted) destination set: construction
        // is order-insensitive, so this matches any listing order.
        let tree = Arc::new(algo.build(cube, resolution, port, source, &key.dests)?);
        self.insert(key, &tree);
        Ok(tree)
    }

    /// Like [`get_or_build`](TreeCache::get_or_build), but the returned
    /// tree is routed around `faults` via [`repair`](crate::repair::repair()):
    /// destinations on dead nodes are pruned and paths crossing dead
    /// channels rerouted. The entry is keyed to the cache's current
    /// fault [`epoch`](TreeCache::epoch) (plus a `repaired` marker), so
    /// repeated retries within one epoch hit while a later
    /// [`set_epoch`](TreeCache::set_epoch) makes it unreachable.
    ///
    /// Unreachable or pruned destinations are *not* an error here — they
    /// simply have no unicast in the returned tree; callers diff the
    /// requested set against the tree's coverage (that is what the
    /// traffic engine's retry layer does).
    ///
    /// # Errors
    /// Exactly the errors of the underlying pristine
    /// [`Algorithm::build`]; repair itself cannot fail.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_build_repaired(
        &mut self,
        algo: Algorithm,
        cube: Cube,
        resolution: Resolution,
        port: PortModel,
        source: NodeId,
        dests: &[NodeId],
        faults: &NetworkFaults,
    ) -> Result<Arc<MulticastTree>, HcubeError> {
        let mut key = TreeKey::new(algo, cube, resolution, port, source, dests);
        key.epoch = self.epoch;
        key.repaired = true;
        if let Some(tree) = self.lookup(&key) {
            return Ok(tree);
        }
        self.stats.misses += 1;
        let pristine = algo.build(cube, resolution, port, source, &key.dests)?;
        let tree = Arc::new(repair(&pristine, faults).tree);
        self.insert(key, &tree);
        Ok(tree)
    }

    /// Hit path: refreshes the LRU position and counts the hit.
    fn lookup(&mut self, key: &TreeKey) -> Option<Arc<MulticastTree>> {
        let (stamp, tree) = self.map.get_mut(key)?;
        self.stats.hits += 1;
        // Refresh the LRU position.
        self.lru.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.lru.insert(self.clock, key.clone());
        Some(Arc::clone(tree))
    }

    /// Miss path: caches the freshly built tree, evicting the LRU entry
    /// if the capacity bound is exceeded.
    fn insert(&mut self, key: TreeKey, tree: &Arc<MulticastTree>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        self.map.insert(key.clone(), (self.clock, Arc::clone(tree)));
        self.lru.insert(self.clock, key);
        if self.map.len() > self.capacity {
            // Evict the least recently used entry (smallest stamp).
            if let Some((&stamp, _)) = self.lru.iter().next() {
                if let Some(victim) = self.lru.remove(&stamp) {
                    self.map.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dests(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    fn build_cached(cache: &mut TreeCache, d: &[u32]) -> Arc<MulticastTree> {
        cache
            .get_or_build(
                Algorithm::WSort,
                Cube::of(5),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests(d),
            )
            .unwrap()
    }

    #[test]
    fn hit_returns_the_same_tree() {
        let mut c = TreeCache::new(8);
        let a = build_cached(&mut c, &[1, 5, 9]);
        let b = build_cached(&mut c, &[9, 1, 5]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                invalidations: 0
            }
        );
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cached_tree_matches_cold_build() {
        let mut c = TreeCache::new(8);
        let warm = build_cached(&mut c, &[3, 7, 21, 30]);
        let cold = Algorithm::WSort
            .build(
                Cube::of(5),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests(&[30, 21, 3, 7]),
            )
            .unwrap();
        assert_eq!(warm.unicasts, cold.unicasts);
        assert_eq!(warm.steps, cold.steps);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut c = TreeCache::new(2);
        build_cached(&mut c, &[1]); // A
        build_cached(&mut c, &[2]); // B
        build_cached(&mut c, &[1]); // touch A (hit) → B is now LRU
        build_cached(&mut c, &[3]); // C evicts B
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        build_cached(&mut c, &[1]); // A still cached
        assert_eq!(c.stats().hits, 2);
        build_cached(&mut c, &[2]); // B was evicted → miss
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut c = TreeCache::new(16);
        let a = build_cached(&mut c, &[1, 2]);
        let b = c
            .get_or_build(
                Algorithm::UCube,
                Cube::of(5),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests(&[1, 2]),
            )
            .unwrap();
        assert_eq!(c.stats().misses, 2, "different algorithm, different key");
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = TreeCache::new(0);
        build_cached(&mut c, &[1, 2]);
        build_cached(&mut c, &[1, 2]);
        assert_eq!(c.len(), 0);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                evictions: 0,
                invalidations: 0
            }
        );
    }

    fn build_repaired(
        cache: &mut TreeCache,
        d: &[u32],
        faults: &NetworkFaults,
    ) -> Arc<MulticastTree> {
        cache
            .get_or_build_repaired(
                Algorithm::WSort,
                Cube::of(5),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests(d),
                faults,
            )
            .unwrap()
    }

    #[test]
    fn repaired_entries_hit_within_an_epoch() {
        let mut c = TreeCache::new(8);
        let mut faults = NetworkFaults::new();
        faults.fail_node(NodeId(5));
        let a = build_repaired(&mut c, &[1, 5, 9], &faults);
        let b = build_repaired(&mut c, &[9, 5, 1], &faults);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(c.stats().hits, 1);
        // Destination 5 is dead, so the repaired tree dropped it.
        assert!(a.unicasts.iter().all(|u| u.dst != NodeId(5)));
    }

    #[test]
    fn repaired_and_pristine_entries_do_not_collide() {
        let mut c = TreeCache::new(8);
        let faults = NetworkFaults::new();
        let plain = build_cached(&mut c, &[1, 5, 9]);
        let repaired = build_repaired(&mut c, &[1, 5, 9], &faults);
        assert_eq!(c.stats().misses, 2, "repaired key is distinct");
        assert!(!Arc::ptr_eq(&plain, &repaired));
        // With no faults, repair is the identity on structure.
        assert_eq!(plain.unicasts, repaired.unicasts);
    }

    #[test]
    fn epoch_change_invalidates_only_repaired_entries() {
        let mut c = TreeCache::new(8);
        let mut faults = NetworkFaults::new();
        faults.fail_node(NodeId(5));
        build_cached(&mut c, &[1, 2]);
        build_repaired(&mut c, &[1, 5, 9], &faults);
        build_repaired(&mut c, &[3, 7], &faults);
        assert_eq!(c.len(), 3);
        c.set_epoch(1);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.len(), 1, "pristine entry survives");
        assert_eq!(c.stats().invalidations, 2);
        // Same-epoch call is a no-op.
        c.set_epoch(1);
        assert_eq!(c.stats().invalidations, 2);
        // The pristine entry still hits; the repaired ones rebuild.
        build_cached(&mut c, &[1, 2]);
        assert_eq!(c.stats().hits, 1);
        build_repaired(&mut c, &[3, 7], &faults);
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let mut c = TreeCache::new(8);
        let r = c.get_or_build(
            Algorithm::WSort,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &dests(&[1, 1]),
        );
        assert!(r.is_err());
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 1);
    }
}
