//! The canonicalizing plan cache.
//!
//! Key = (scheduler name, sorted length multiset, quantized context
//! signature). Value = the plan computed for the *canonical* batch, tagged
//! with whether its placements reference real sequences. Hits for
//! index-faithful plans are re-indexed through the requesting batch's sort
//! permutation; synthetic-id plans (packing windows) are returned verbatim
//! — they only depend on the multiset in the first place.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

use zeppelin_core::plan::{IterationPlan, PlanError};
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_data::batch::Batch;

use crate::canonical::{is_index_faithful, reindex_plan, CanonicalBatch, CtxSignature};

/// Cache key: everything that can change a plan.
///
/// Hashing goes through a digest precomputed in [`PlanKey::new`] — hit-path
/// lookups must not re-feed a multi-thousand-entry length vector through
/// SipHash on every request, or key hashing grows with batch size just like
/// planning does. Equality still compares the full fields, so a digest
/// collision costs one memcmp, never a wrong plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    /// Scheduler name (encodes ablation toggles — each variant has one).
    pub scheduler: String,
    /// Sorted (descending) sequence lengths.
    pub lens: Vec<u64>,
    /// Quantized context signature.
    pub ctx: CtxSignature,
    digest: u64,
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// A pass-through hasher for keys that already carry a precomputed digest.
///
/// [`PlanKey::hash`] feeds exactly one `u64` — the digest mixed in
/// [`PlanKey::new`] — so running it through SipHash again is pure overhead.
/// This hasher returns that word verbatim; the map's bucket index comes
/// straight from the stored digest.
#[derive(Debug, Default, Clone, Copy)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PlanKey hashes exactly one precomputed u64 digest");
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

/// `BuildHasher` handing out [`DigestHasher`]s.
#[derive(Debug, Default, Clone, Copy)]
pub struct DigestHasherBuilder;

impl BuildHasher for DigestHasherBuilder {
    type Hasher = DigestHasher;

    fn build_hasher(&self) -> DigestHasher {
        DigestHasher::default()
    }
}

impl PlanKey {
    /// Builds the key and the canonicalization it derives from.
    pub fn new(scheduler: &str, batch: &Batch, ctx: &SchedulerCtx) -> (PlanKey, CanonicalBatch) {
        let canonical = CanonicalBatch::new(batch);
        let ctx = CtxSignature::new(ctx);
        let digest = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            scheduler.hash(&mut h);
            ctx.hash(&mut h);
            // FNV-1a over whole words: one multiply per length instead of
            // SipHash over the raw bytes.
            let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
            for &len in &canonical.lens {
                acc = (acc ^ len).wrapping_mul(0x0000_0100_0000_01b3);
            }
            acc.hash(&mut h);
            h.finish()
        };
        let key = PlanKey {
            scheduler: scheduler.to_string(),
            lens: canonical.lens.clone(),
            ctx,
            digest,
        };
        (key, canonical)
    }

    /// The precomputed FNV-mixed digest (stable for this key's lifetime).
    ///
    /// The cache's hash map consumes the low bits through
    /// [`DigestHasherBuilder`]; [`ShardedPlanCache`] picks its shard from the
    /// high bits so shard choice and bucket choice stay independent.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// A cached canonical plan.
#[derive(Debug)]
pub struct CachedPlan {
    /// Plan for the canonical (descending) batch.
    pub plan: Arc<IterationPlan>,
    /// Whether `seq_index` references real sequences (re-indexable).
    pub faithful: bool,
}

impl CachedPlan {
    /// Wraps a freshly planned canonical plan, tagging faithfulness.
    pub fn new(plan: IterationPlan, lens: &[u64]) -> CachedPlan {
        CachedPlan {
            faithful: is_index_faithful(&plan, lens),
            plan: Arc::new(plan),
        }
    }

    /// Instantiates the cached plan for a batch with the given
    /// canonicalization. Zero-copy (a shared handle) when the batch was
    /// already in canonical order or the plan uses synthetic ids; otherwise
    /// the placements are re-indexed through the sort permutation.
    pub fn materialize(&self, canonical: &CanonicalBatch) -> Arc<IterationPlan> {
        if self.faithful && !canonical.is_identity() {
            Arc::new(reindex_plan(&self.plan, canonical))
        } else {
            Arc::clone(&self.plan)
        }
    }
}

/// Hit/miss/eviction counters (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required planning.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU cache of canonical plans.
#[derive(Debug)]
pub struct PlanCache {
    entries: HashMap<PlanKey, Entry, DigestHasherBuilder>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    last_used: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (min 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            entries: HashMap::with_hasher(DigestHasherBuilder),
            capacity: capacity.max(1),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a canonical plan, counting a hit or miss.
    pub fn lookup(&mut self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.plan))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a canonical plan, evicting the least-recently-used entry if
    /// the cache is full. Re-inserting an existing key refreshes it.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<CachedPlan>) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                plan,
                last_used: self.tick,
            },
        );
    }

    /// Drops every entry whose context signature differs from `ctx` —
    /// called after elastic events (`shrink_to_survivors`) re-derive the
    /// cluster, so stale pre-failure plans cannot linger in memory. Entries
    /// for the current context survive. Returns how many were purged.
    pub fn purge_stale(&mut self, ctx: &SchedulerCtx) -> usize {
        let sig = CtxSignature::new(ctx);
        let before = self.entries.len();
        self.entries.retain(|k, _| k.ctx == sig);
        before - self.entries.len()
    }

    /// Plans `batch` through the cache: on a hit the cached canonical plan
    /// is materialized for this batch's ordering (zero-copy when the batch
    /// is already canonical); on a miss the canonical batch is planned,
    /// cached, and materialized the same way. Returns the plan and whether
    /// it was a hit.
    ///
    /// # Errors
    ///
    /// Propagates the scheduler's [`PlanError`] (nothing is cached then).
    pub fn get_or_plan(
        &mut self,
        scheduler: &dyn Scheduler,
        batch: &Batch,
        ctx: &SchedulerCtx,
    ) -> Result<(Arc<IterationPlan>, bool), PlanError> {
        let (key, canonical) = PlanKey::new(scheduler.name(), batch, ctx);
        if let Some(cached) = self.lookup(&key) {
            return Ok((cached.materialize(&canonical), true));
        }
        let plan = scheduler.plan(&canonical.to_batch(), ctx)?;
        let cached = Arc::new(CachedPlan::new(plan, &canonical.lens));
        let materialized = cached.materialize(&canonical);
        self.insert(key, cached);
        Ok((materialized, false))
    }
}

/// A plan cache sharded N ways by the high bits of [`PlanKey::digest`].
///
/// Each shard is an independent [`PlanCache`] behind its own lock, with its
/// own tick-LRU clock and its own slice of the capacity budget, so concurrent
/// workers on distinct keys never contend on one mutex. The shard index
/// comes from the digest's high bits while the inner `HashMap` (through
/// [`DigestHasherBuilder`]) buckets on the low bits — the two choices stay
/// independent, so a shard's map does not degenerate into a few buckets.
#[derive(Debug)]
pub struct ShardedPlanCache {
    shards: Vec<Mutex<PlanCache>>,
}

impl ShardedPlanCache {
    /// Creates a cache of `shards` independent shards (min 1) splitting
    /// `capacity` between them (each shard holds at least one plan).
    pub fn new(capacity: usize, shards: usize) -> ShardedPlanCache {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedPlanCache {
            shards: (0..shards)
                .map(|_| Mutex::new(PlanCache::new(per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<PlanCache> {
        // High bits: the inner map consumes the low bits for buckets.
        let idx = (key.digest() >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Looks up a canonical plan in the owning shard.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        self.shard(key)
            .lock()
            .expect("cache shard lock")
            .lookup(key)
    }

    /// Inserts a canonical plan into the owning shard (shard-local LRU).
    pub fn insert(&self, key: PlanKey, plan: Arc<CachedPlan>) {
        self.shard(&key)
            .lock()
            .expect("cache shard lock")
            .insert(key, plan);
    }

    /// Total cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// True when no shard holds a plan.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters merged across shards.
    pub fn stats(&self) -> CacheStats {
        let mut merged = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().expect("cache shard lock").stats();
            merged.hits += s.hits;
            merged.misses += s.misses;
            merged.evictions += s.evictions;
        }
        merged
    }

    /// Purges entries whose context signature differs from `ctx`, shard by
    /// shard. Returns how many were dropped in total.
    pub fn purge_stale(&self, ctx: &SchedulerCtx) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").purge_stale(ctx))
            .sum()
    }

    /// Plans `batch` through the owning shard — the sharded analogue of
    /// [`PlanCache::get_or_plan`], same hit/materialization semantics.
    ///
    /// # Errors
    ///
    /// Propagates the scheduler's [`PlanError`] (nothing is cached then).
    pub fn get_or_plan(
        &self,
        scheduler: &dyn Scheduler,
        batch: &Batch,
        ctx: &SchedulerCtx,
    ) -> Result<(Arc<IterationPlan>, bool), PlanError> {
        let (key, canonical) = PlanKey::new(scheduler.name(), batch, ctx);
        if let Some(cached) = self.lookup(&key) {
            return Ok((cached.materialize(&canonical), true));
        }
        let plan = scheduler.plan(&canonical.to_batch(), ctx)?;
        let cached = Arc::new(CachedPlan::new(plan, &canonical.lens));
        let materialized = cached.materialize(&canonical);
        self.insert(key, cached);
        Ok((materialized, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_core::zeppelin::Zeppelin;
    use zeppelin_model::config::llama_3b;
    use zeppelin_sim::topology::cluster_a;

    fn ctx() -> SchedulerCtx {
        SchedulerCtx::new(&cluster_a(2), &llama_3b()).with_capacity(8192)
    }

    #[test]
    fn repeated_shapes_hit_regardless_of_order() {
        let ctx = ctx();
        let mut cache = PlanCache::new(16);
        let (first, hit) = cache
            .get_or_plan(&Zeppelin::new(), &Batch::new(vec![9000, 500, 2500]), &ctx)
            .unwrap();
        assert!(!hit);
        // A permuted batch with the same multiset hits and re-indexes.
        let permuted = Batch::new(vec![500, 2500, 9000]);
        let (second, hit) = cache
            .get_or_plan(&Zeppelin::new(), &permuted, &ctx)
            .unwrap();
        assert!(hit);
        assert_eq!(*second, Zeppelin::new().plan(&permuted, &ctx).unwrap());
        // The first call's plan equals direct planning too.
        assert_eq!(
            *first,
            Zeppelin::new()
                .plan(&Batch::new(vec![9000, 500, 2500]), &ctx)
                .unwrap()
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_shapes_and_contexts_occupy_distinct_entries() {
        let ctx = ctx();
        let mut cache = PlanCache::new(16);
        let z = Zeppelin::new();
        cache
            .get_or_plan(&z, &Batch::new(vec![1000, 2000]), &ctx)
            .unwrap();
        cache
            .get_or_plan(&z, &Batch::new(vec![1000, 2001]), &ctx)
            .unwrap();
        let other_ctx = ctx.clone().with_capacity(4096);
        cache
            .get_or_plan(&z, &Batch::new(vec![1000, 2000]), &other_ctx)
            .unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let ctx = ctx();
        let mut cache = PlanCache::new(2);
        let z = Zeppelin::new();
        let a = Batch::new(vec![1000]);
        let b = Batch::new(vec![2000]);
        let c = Batch::new(vec![3000]);
        cache.get_or_plan(&z, &a, &ctx).unwrap();
        cache.get_or_plan(&z, &b, &ctx).unwrap();
        cache.get_or_plan(&z, &a, &ctx).unwrap(); // refresh a; b is now LRU
        cache.get_or_plan(&z, &c, &ctx).unwrap(); // evicts b
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit_a) = cache.get_or_plan(&z, &a, &ctx).unwrap();
        assert!(hit_a, "refreshed entry must survive eviction");
        let (_, hit_b) = cache.get_or_plan(&z, &b, &ctx).unwrap();
        assert!(!hit_b, "LRU entry must have been evicted");
    }

    #[test]
    fn canonical_order_hits_share_the_cached_plan() {
        let ctx = ctx();
        let mut cache = PlanCache::new(4);
        let z = Zeppelin::new();
        let descending = Batch::new(vec![9000, 2500, 500]);
        let (first, _) = cache.get_or_plan(&z, &descending, &ctx).unwrap();
        let (again, hit) = cache.get_or_plan(&z, &descending, &ctx).unwrap();
        assert!(hit);
        // Already-canonical batches are served zero-copy.
        assert!(Arc::ptr_eq(&first, &again));
        // A permuted view re-indexes into a fresh allocation.
        let (permuted, hit) = cache
            .get_or_plan(&z, &Batch::new(vec![500, 9000, 2500]), &ctx)
            .unwrap();
        assert!(hit);
        assert!(!Arc::ptr_eq(&first, &permuted));
    }

    #[test]
    fn failed_plans_are_not_cached() {
        let tiny = ctx().with_capacity(64);
        let mut cache = PlanCache::new(4);
        let batch = Batch::new(vec![100_000]);
        assert!(cache.get_or_plan(&Zeppelin::new(), &batch, &tiny).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn digest_hasher_passes_the_stored_digest_through() {
        let ctx = ctx();
        let (key, _) = PlanKey::new("zeppelin", &Batch::new(vec![9000, 500]), &ctx);
        assert_eq!(DigestHasherBuilder.hash_one(&key), key.digest());
    }

    #[test]
    fn sharded_cache_matches_unsharded_semantics() {
        let ctx = ctx();
        let sharded = ShardedPlanCache::new(16, 4);
        let z = Zeppelin::new();
        let (first, hit) = sharded
            .get_or_plan(&z, &Batch::new(vec![9000, 500, 2500]), &ctx)
            .unwrap();
        assert!(!hit);
        let (second, hit) = sharded
            .get_or_plan(&z, &Batch::new(vec![500, 2500, 9000]), &ctx)
            .unwrap();
        assert!(hit, "permuted multiset hits whichever shard owns the key");
        assert_eq!(
            *second,
            z.plan(&Batch::new(vec![500, 2500, 9000]), &ctx).unwrap()
        );
        assert_eq!(
            *first,
            z.plan(&Batch::new(vec![9000, 500, 2500]), &ctx).unwrap()
        );
        let stats = sharded.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(sharded.len(), 1);
        assert!(!sharded.is_empty());
    }

    #[test]
    fn sharded_purge_drops_stale_contexts_across_shards() {
        let ctx = ctx();
        let sharded = ShardedPlanCache::new(32, 4);
        let z = Zeppelin::new();
        for i in 0..8u64 {
            sharded
                .get_or_plan(&z, &Batch::new(vec![1000 + i, 500]), &ctx)
                .unwrap();
        }
        assert_eq!(sharded.len(), 8);
        let other = ctx.clone().with_capacity(4096);
        assert_eq!(sharded.purge_stale(&other), 8);
        assert!(sharded.is_empty());
    }
}
