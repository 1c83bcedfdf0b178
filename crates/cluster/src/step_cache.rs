//! An exact, bounded cache of step simulations, shared across cluster runs.
//!
//! A cluster what-if runs the same jobs under several policies, and a
//! preempted job replays its rolled-back steps, so many step launches
//! repeat a simulation already done. [`StepCache`] remembers the outcome of
//! each simulated step, keyed by everything [`simulate_plan`] reads:
//!
//! - the plan: every placement field, its options, the micro-batch count,
//!   and the bits of the redundant-attention fraction;
//! - the batch's token total, or the whole batch when the plan audit is on;
//! - the scheduler context: the cluster spec (node tiers included), the
//!   model, the token capacity and the bits of every rank speed;
//! - the step configuration: the per-step seed, the executor knobs, the MoE
//!   skew, chained layers, faults and the audit flag.
//!
//! Keys are flat `u32` words and a hit needs every word to match; a digest
//! only picks the candidates. Floats enter as their bit patterns. Each encoder
//! destructures its type exhaustively, so a field added to any keyed type
//! fails to compile here until it is keyed too. The context and step
//! configuration, which repeat across many launches, are interned once and
//! referenced by id.
//!
//! The scheduler is not in the key: the plan it produced is. Two schedulers
//! that emit the same plan share the entry, and a wrapper that reuses a
//! scheduler's name cannot alias a different plan.
//!
//! [`simulate_plan`]: zeppelin_exec::step::simulate_plan

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use zeppelin_core::plan::{AttnMode, IterationPlan, PlanOptions, SeqPlacement, Zone};
use zeppelin_core::scheduler::SchedulerCtx;
use zeppelin_data::batch::Batch;
use zeppelin_exec::step::StepConfig;
use zeppelin_exec::{ExecConfig, GradSync, QueueOrder};
use zeppelin_model::config::{ModelConfig, MoeConfig};
use zeppelin_sim::fault::FaultEvent;
use zeppelin_sim::time::{SimDuration, SimTime};
use zeppelin_sim::topology::{ClusterSpec, GpuSpec, NicSpec, NodeSpec};

/// Entries kept before the oldest is evicted. A 16-node, 30-job round of
/// three policies needs about 300.
const MAX_ENTRIES: usize = 512;

/// Key words kept (128 KB) before the oldest entries are evicted, however
/// few. A 16-node launch keys in about 90 words, so a round fits.
const MAX_WORDS: usize = 1 << 15;

/// The outcome of one simulated step: its duration, or why it failed.
pub(crate) type StepOutcome = Result<SimDuration, String>;

/// Launch and simulation counts of a [`StepCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCacheStats {
    /// Launches answered from the cache.
    pub hits: u64,
    /// Launches that ran a step simulation.
    pub simulations: u64,
}

/// A shared handle to a bounded step-result cache.
///
/// Clones share one cache; [`Default`] and [`StepCache::new`] make an
/// independent, empty one. The cache holds at most a fixed number of
/// entries and key words, and evicts the oldest first.
#[derive(Clone, Default)]
pub struct StepCache {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for StepCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("StepCache")
            .field("entries", &inner.entries.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl StepCache {
    /// An empty cache, shared with nothing.
    pub fn new() -> StepCache {
        StepCache::default()
    }

    /// Hits and simulations so far.
    pub fn stats(&self) -> StepCacheStats {
        self.lock().stats
    }

    /// Returns the cached outcome of `key`, or runs `simulate` and caches
    /// its outcome. The lock is not held while `simulate` runs, so runs on
    /// other threads proceed; two of them missing on the same key both
    /// simulate and store the same outcome.
    pub(crate) fn get_or_simulate(
        &self,
        key: &StepKey,
        simulate: impl FnOnce() -> StepOutcome,
    ) -> StepOutcome {
        if let Some(hit) = self.lock().get(key) {
            return hit;
        }
        let out = simulate();
        self.lock().insert(key, out.clone());
        out
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Nothing panics while the lock is held, so a poisoned cache is
        // still consistent.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Default)]
struct Inner {
    /// Interned environments (context and step configuration) to their id.
    envs: HashMap<Box<[u32]>, u32>,
    /// Live entries referencing each environment id; an id whose count
    /// drops to zero is released to `free`.
    env_refs: Vec<u32>,
    free: Vec<u32>,
    /// Every live entry's key, `[environment id, launch words...]`, end to
    /// end and oldest first. One ring instead of an allocation per entry
    /// keeps evictions from fragmenting the heap.
    words: VecDeque<u32>,
    /// Words evicted so far; entry offsets count from the first word ever
    /// stored.
    words_evicted: u64,
    /// Live entries, oldest first.
    entries: VecDeque<Entry>,
    /// Entries evicted so far; entry `n` sits at `entries[n - evicted]`.
    evicted: u64,
    /// Key digest to the newest live entry with that digest.
    newest: HashMap<u64, u64>,
    stats: StepCacheStats,
}

struct Entry {
    /// Offset of the key's first word.
    start: u64,
    len: usize,
    digest: u64,
    /// The next older entry with the same digest, possibly evicted.
    older: Option<u64>,
    outcome: StepOutcome,
}

impl Inner {
    /// The key's words once its environment has an id.
    fn key_words(env: u32, key: &StepKey) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(env).chain(key.launch.iter().copied())
    }

    fn digest(env: u32, key: &StepKey) -> u64 {
        let mut h = DefaultHasher::new();
        env.hash(&mut h);
        key.launch.hash(&mut h);
        h.finish()
    }

    fn entry(&self, n: u64) -> Option<&Entry> {
        self.entries
            .get(usize::try_from(n.checked_sub(self.evicted)?).ok()?)
    }

    /// The live entry keyed `key`: the digest picks the candidates, and a
    /// candidate matches only if every word does.
    fn find(&self, key: &StepKey) -> Option<&Entry> {
        let env = *self.envs.get(key.env.as_slice())?;
        self.find_on_chain(Self::digest(env, key), env, key)
    }

    fn find_on_chain(&self, digest: u64, env: u32, key: &StepKey) -> Option<&Entry> {
        let mut next = self.newest.get(&digest).copied();
        while let Some(e) = next.and_then(|n| self.entry(n)) {
            let at = (e.start - self.words_evicted) as usize;
            if e.len == 1 + key.launch.len()
                && self
                    .words
                    .range(at..at + e.len)
                    .copied()
                    .eq(Self::key_words(env, key))
            {
                return Some(e);
            }
            next = e.older;
        }
        None
    }

    fn get(&mut self, key: &StepKey) -> Option<StepOutcome> {
        let hit = self.find(key).map(|e| e.outcome.clone());
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.simulations += 1,
        }
        hit
    }

    fn insert(&mut self, key: &StepKey, outcome: StepOutcome) {
        let len = 1 + key.launch.len();
        if len > MAX_WORDS || self.find(key).is_some() {
            return;
        }
        if self.words.capacity() == 0 {
            // Full size at once: growing by doubling would leave each
            // outgrown buffer behind as a hole in the heap.
            self.words.reserve_exact(MAX_WORDS);
            self.entries.reserve_exact(MAX_ENTRIES);
            self.newest.reserve(MAX_ENTRIES);
        }
        // Evict before interning: the evicted entry may hold the last
        // reference to this key's environment.
        while self.entries.len() == MAX_ENTRIES || self.words.len() + len > MAX_WORDS {
            self.evict_oldest();
        }
        let env = self.intern(&key.env);
        self.env_refs[env as usize] += 1;
        let digest = Self::digest(env, key);
        let start = self.words_evicted + self.words.len() as u64;
        self.words.extend(Self::key_words(env, key));
        let n = self.evicted + self.entries.len() as u64;
        let older = self.newest.insert(digest, n);
        self.entries.push_back(Entry {
            start,
            len,
            digest,
            older,
            outcome,
        });
    }

    fn intern(&mut self, env: &[u32]) -> u32 {
        if let Some(&id) = self.envs.get(env) {
            return id;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.env_refs.push(0);
            (self.env_refs.len() - 1) as u32
        });
        self.envs.insert(env.into(), id);
        id
    }

    fn evict_oldest(&mut self) {
        let Some(e) = self.entries.pop_front() else {
            return;
        };
        // Every other entry is newer, so the digest's chain ends here.
        if self.newest.get(&e.digest) == Some(&self.evicted) {
            self.newest.remove(&e.digest);
        }
        self.evicted += 1;
        let env = self.words[0];
        self.words.drain(..e.len);
        self.words_evicted += e.len as u64;
        let refs = &mut self.env_refs[env as usize];
        *refs -= 1;
        if *refs == 0 {
            self.envs.retain(|_, id| *id != env);
            self.free.push(env);
        }
    }
}

/// The full key of one step launch, split into the part shared by a job's
/// launches (the environment) and the part that changes every step.
pub(crate) struct StepKey {
    env: Vec<u32>,
    launch: Vec<u32>,
}

impl StepKey {
    /// Keys simulating `plan` for `batch` on `ctx` under `cfg`.
    pub(crate) fn new(
        plan: &IterationPlan,
        batch: &Batch,
        ctx: &SchedulerCtx,
        cfg: &StepConfig,
    ) -> StepKey {
        let StepConfig {
            exec,
            seed,
            moe_skew,
            chained_layers,
            faults,
            audit_plans,
        } = cfg;
        let SchedulerCtx {
            cluster,
            model,
            capacity,
            rank_speed,
        } = ctx;

        let mut env = Words::default();
        cluster.encode(&mut env);
        model.encode(&mut env);
        env.int(*capacity);
        rank_speed.encode(&mut env);
        exec.encode(&mut env);
        moe_skew.encode(&mut env);
        chained_layers.encode(&mut env);
        faults.events().encode(&mut env);
        audit_plans.encode(&mut env);

        let mut launch = Words::default();
        launch.int(*seed);
        if *audit_plans {
            // The audit reads every sequence, not just the token total.
            batch.seqs.encode(&mut launch);
        } else {
            launch.int(batch.total_tokens());
        }
        plan.encode(&mut launch);
        StepKey {
            env: env.0,
            launch: launch.0,
        }
    }
}

/// A growing key. Every encoding is prefix-free (sequences carry their
/// length, integers escape large values), so distinct values of a keyed
/// type always give distinct words.
#[derive(Default)]
struct Words(Vec<u32>);

impl Words {
    /// One word below `u32::MAX`; otherwise the escape word and two more.
    fn int(&mut self, v: u64) {
        match u32::try_from(v) {
            Ok(w) if w != u32::MAX => self.0.push(w),
            _ => {
                self.0.push(u32::MAX);
                self.0.push(v as u32);
                self.0.push((v >> 32) as u32);
            }
        }
    }

    /// Small fields of `(value, bits)`, low bits first, in one word. A
    /// value that does not fit stores its all-ones escape in its field and
    /// follows the word as an [`Words::int`].
    fn packed(&mut self, fields: &[(u64, u32)]) {
        debug_assert!(fields.iter().map(|&(_, bits)| bits).sum::<u32>() <= 32);
        let mut word = 0u32;
        let mut shift = 0;
        for &(v, bits) in fields {
            let escape = (1u64 << bits) - 1;
            word |= (v.min(escape) as u32) << shift;
            shift += bits;
        }
        self.0.push(word);
        for &(v, bits) in fields {
            if v >= (1u64 << bits) - 1 {
                self.int(v);
            }
        }
    }
}

trait Encode {
    fn encode(&self, w: &mut Words);
}

impl Encode for u64 {
    fn encode(&self, w: &mut Words) {
        w.int(*self);
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Words) {
        w.int(*self as u64);
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Words) {
        w.0.push(*self);
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Words) {
        w.0.push(u32::from(*self));
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Words) {
        let bits = self.to_bits();
        w.0.push(bits as u32);
        w.0.push((bits >> 32) as u32);
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Words) {
        w.int(self.len() as u64);
        w.0.extend(self.as_bytes().chunks(4).map(|c| {
            let mut b = [0u8; 4];
            b[..c.len()].copy_from_slice(c);
            u32::from_le_bytes(b)
        }));
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Words) {
        w.int(self.len() as u64);
        for x in self {
            x.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Words) {
        self.as_slice().encode(w);
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Words) {
        match self {
            None => w.0.push(0),
            Some(x) => {
                w.0.push(1);
                x.encode(w);
            }
        }
    }
}

impl Encode for SimTime {
    fn encode(&self, w: &mut Words) {
        w.int(self.as_nanos());
    }
}

impl Encode for ClusterSpec {
    fn encode(&self, w: &mut Words) {
        let ClusterSpec {
            name,
            nodes,
            node,
            node_tiers,
        } = self;
        name.as_str().encode(w);
        nodes.encode(w);
        node.encode(w);
        node_tiers.encode(w);
    }
}

impl Encode for NodeSpec {
    fn encode(&self, w: &mut Words) {
        let NodeSpec {
            gpus_per_node,
            gpu,
            nic_count,
            nic,
            nic_affinity,
        } = self;
        gpus_per_node.encode(w);
        let GpuSpec {
            peak_flops,
            mem_bytes,
            nvlink_bw,
            pcie_bw,
        } = gpu;
        peak_flops.encode(w);
        mem_bytes.encode(w);
        nvlink_bw.encode(w);
        pcie_bw.encode(w);
        nic_count.encode(w);
        let NicSpec { bw } = nic;
        bw.encode(w);
        nic_affinity.encode(w);
    }
}

impl Encode for ModelConfig {
    fn encode(&self, w: &mut Words) {
        let ModelConfig {
            name,
            hidden,
            num_heads,
            ffn_hidden,
            layers,
            vocab,
            dtype_bytes,
            moe,
        } = self;
        name.as_str().encode(w);
        for x in [hidden, num_heads, ffn_hidden, layers, vocab, dtype_bytes] {
            x.encode(w);
        }
        moe.encode(w);
    }
}

impl Encode for MoeConfig {
    fn encode(&self, w: &mut Words) {
        let MoeConfig {
            num_experts,
            top_k,
            expert_ffn_hidden,
        } = self;
        for x in [num_experts, top_k, expert_ffn_hidden] {
            x.encode(w);
        }
    }
}

impl Encode for ExecConfig {
    fn encode(&self, w: &mut Words) {
        let ExecConfig {
            routing_pipeline,
            queue_order,
            moe_linear_factor,
            tp_overhead_per_token,
            remap_slack,
            grad_sync,
            rank_speed,
        } = self;
        routing_pipeline.encode(w);
        w.0.push(match queue_order {
            QueueOrder::InterFirst => 0,
            QueueOrder::LocalFirst => 1,
        });
        moe_linear_factor.encode(w);
        tp_overhead_per_token.encode(w);
        remap_slack.encode(w);
        w.0.push(match grad_sync {
            GradSync::Off => 0,
            GradSync::Overlapped => 1,
            GradSync::Blocking => 2,
        });
        rank_speed.encode(w);
    }
}

impl Encode for FaultEvent {
    fn encode(&self, w: &mut Words) {
        match self {
            FaultEvent::GpuSlowdown {
                rank,
                factor,
                start,
                end,
            } => {
                w.0.push(0);
                rank.encode(w);
                factor.encode(w);
                start.encode(w);
                end.encode(w);
            }
            FaultEvent::NicDegrade {
                nic,
                factor,
                start,
                end,
            } => {
                w.0.push(1);
                nic.encode(w);
                factor.encode(w);
                start.encode(w);
                end.encode(w);
            }
            FaultEvent::LinkFlap { nic, start, end } => {
                w.0.push(2);
                nic.encode(w);
                start.encode(w);
                end.encode(w);
            }
            FaultEvent::RankCrash { rank, at } => {
                w.0.push(3);
                rank.encode(w);
                at.encode(w);
            }
        }
    }
}

impl Encode for IterationPlan {
    fn encode(&self, w: &mut Words) {
        // The scheduler name only labels reports; the simulation never
        // reads it.
        let IterationPlan {
            scheduler: _,
            placements,
            options,
            micro_batches,
            redundant_attn_frac,
        } = self;
        placements.encode(w);
        let PlanOptions {
            routing,
            remapping,
            speed_aware_remap,
        } = options;
        w.0.push(
            u32::from(*routing) | u32::from(*remapping) << 1 | u32::from(*speed_aware_remap) << 2,
        );
        micro_batches.encode(w);
        redundant_attn_frac.encode(w);
    }
}

impl Encode for SeqPlacement {
    fn encode(&self, w: &mut Words) {
        let SeqPlacement {
            seq_index,
            len,
            zone,
            ranks,
            mode,
            micro_batch,
            weights,
        } = self;
        let zone = match zone {
            Zone::Local => 0,
            Zone::IntraNode => 1,
            Zone::InterNode => 2,
        };
        let mode = match mode {
            AttnMode::Ring => 0,
            AttnMode::AllGather => 1,
            AttnMode::Ulysses => 2,
            AttnMode::DoubleRing => 3,
        };
        // Weights are absent or one per rank, except in malformed plans;
        // only those carry an explicit weight count.
        let weight_form = match weights.len() {
            0 => 0,
            n if n == ranks.len() => 1,
            _ => 2,
        };
        // Most placements fit zone, mode, weight form, group size and
        // micro-batch in one word, so a plan costs about three words per
        // placement plus one per rank.
        w.packed(&[
            (zone, 2),
            (mode, 3),
            (weight_form, 2),
            (ranks.len() as u64, 9),
            (*micro_batch as u64, 16),
        ]);
        seq_index.encode(w);
        len.encode(w);
        for r in ranks {
            r.encode(w);
        }
        match weight_form {
            0 => {}
            1 => w.0.extend_from_slice(weights),
            _ => weights.encode(w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use zeppelin_core::scheduler::Scheduler;
    use zeppelin_core::zeppelin::Zeppelin;
    use zeppelin_model::config::{llama_3b, llama_7b};
    use zeppelin_sim::topology::{cluster_a, cluster_mixed};

    struct Launch {
        plan: IterationPlan,
        batch: Batch,
        ctx: SchedulerCtx,
        cfg: StepConfig,
    }

    impl Launch {
        fn key(&self) -> StepKey {
            StepKey::new(&self.plan, &self.batch, &self.ctx, &self.cfg)
        }
    }

    fn launch() -> Launch {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_3b());
        let batch = Batch::new(vec![9_000, 4_000, 1_500, 700, 300]);
        let plan = Zeppelin::new().plan(&batch, &ctx).unwrap();
        let cfg = StepConfig {
            seed: 7,
            audit_plans: false,
            ..StepConfig::default()
        };
        Launch {
            plan,
            batch,
            ctx,
            cfg,
        }
    }

    /// Looks `key` up, counting a simulation on a miss; the outcome is the
    /// number of the simulation that produced it.
    fn probe(cache: &StepCache, key: &StepKey, sims: &Cell<u64>) -> SimDuration {
        cache
            .get_or_simulate(key, || {
                sims.set(sims.get() + 1);
                Ok(SimDuration::from_nanos(sims.get()))
            })
            .unwrap()
    }

    #[test]
    fn an_identical_launch_hits() {
        let cache = StepCache::new();
        let sims = Cell::new(0);
        let a = probe(&cache, &launch().key(), &sims);
        let b = probe(&cache, &launch().key(), &sims);
        assert_eq!(a, b);
        assert_eq!(sims.get(), 1);
        assert_eq!(
            cache.stats(),
            StepCacheStats {
                hits: 1,
                simulations: 1
            }
        );
        // A clone shares the entries; a new cache does not.
        assert!(cache
            .clone()
            .get_or_simulate(&launch().key(), || unreachable!())
            .is_ok());
        assert!(StepCache::new().lock().get(&launch().key()).is_none());
    }

    #[test]
    fn changing_any_keyed_input_misses() {
        type Edit = (&'static str, fn(&mut Launch));
        let edits: Vec<Edit> = vec![
            ("per-step seed", |l| l.cfg.seed += 1),
            ("model", |l| l.ctx.model = llama_7b()),
            ("node tiers", |l| l.ctx.cluster.node_tiers = vec![1.0, 0.5]),
            ("capacity", |l| l.ctx.capacity += 1),
            ("rank speed", |l| {
                l.ctx.rank_speed = Some(vec![1.0; 16]);
            }),
            ("plan option", |l| {
                l.plan.options.routing = !l.plan.options.routing
            }),
            ("micro-batch", |l| l.plan.placements[0].micro_batch = 1),
            ("group size", |l| {
                let p = l
                    .plan
                    .placements
                    .iter_mut()
                    .find(|p| p.ranks.len() > 1)
                    .unwrap();
                p.ranks.pop();
            }),
            ("weights", |l| {
                let p = l
                    .plan
                    .placements
                    .iter_mut()
                    .find(|p| p.ranks.len() > 1)
                    .unwrap();
                p.weights = vec![1; p.ranks.len()];
            }),
            ("placement rank order", |l| {
                let p = l
                    .plan
                    .placements
                    .iter_mut()
                    .find(|p| p.ranks.len() > 1)
                    .unwrap();
                p.ranks.swap(0, 1);
            }),
            ("redundant fraction", |l| l.plan.redundant_attn_frac = -0.0),
            ("exec routing pipeline", |l| {
                l.cfg.exec.routing_pipeline += 1
            }),
            ("exec rank speed", |l| l.cfg.exec.rank_speed = vec![1.0; 16]),
            ("moe skew", |l| l.cfg.moe_skew += 0.25),
            ("chained layers", |l| l.cfg.chained_layers = 2),
            ("faults", |l| {
                l.cfg.faults = zeppelin_sim::fault::FaultSchedule::new().gpu_slowdown(
                    0,
                    0.5,
                    SimTime::ZERO,
                    None,
                );
            }),
            ("audit flag", |l| l.cfg.audit_plans = true),
            ("token total", |l| {
                l.batch = Batch::new(vec![9_000, 4_000, 1_500, 700, 301])
            }),
        ];
        let cache = StepCache::new();
        let sims = Cell::new(0);
        probe(&cache, &launch().key(), &sims);
        for (what, edit) in edits {
            let mut l = launch();
            edit(&mut l);
            let before = sims.get();
            probe(&cache, &l.key(), &sims);
            assert_eq!(sims.get(), before + 1, "changing the {what} must miss");
        }
        // The untouched launch still hits.
        let before = sims.get();
        probe(&cache, &launch().key(), &sims);
        assert_eq!(sims.get(), before);
    }

    #[test]
    fn the_audit_keys_the_whole_batch() {
        // Same token total, different sequences: only the audit tells them
        // apart, so only an audited launch misses.
        let mut l = launch();
        let mut permuted = launch();
        permuted.batch = Batch::new(vec![9_000, 4_000, 1_500, 600, 400]);
        let cache = StepCache::new();
        let sims = Cell::new(0);
        probe(&cache, &l.key(), &sims);
        probe(&cache, &permuted.key(), &sims);
        assert_eq!(sims.get(), 1);
        l.cfg.audit_plans = true;
        permuted.cfg.audit_plans = true;
        probe(&cache, &l.key(), &sims);
        probe(&cache, &permuted.key(), &sims);
        assert_eq!(sims.get(), 3);
    }

    #[test]
    fn mixed_tier_contexts_key_their_tiers() {
        let batch = Batch::new(vec![6_000, 2_000, 500]);
        let cfg = StepConfig {
            audit_plans: false,
            ..StepConfig::default()
        };
        let mixed = SchedulerCtx::new(&cluster_mixed(2), &llama_3b());
        let plain = SchedulerCtx::new(&cluster_a(2), &llama_3b());
        let plan = Zeppelin::new().plan(&batch, &plain).unwrap();
        let a = StepKey::new(&plan, &batch, &mixed, &cfg);
        let b = StepKey::new(&plan, &batch, &plain, &cfg);
        assert_ne!(a.env, b.env);
        assert_eq!(a.launch, b.launch);
    }

    #[test]
    fn the_cap_holds_and_evicts_the_oldest() {
        let cache = StepCache::new();
        let sims = Cell::new(0);
        let mut l = launch();
        for seed in 0..(MAX_ENTRIES as u64 + 10) {
            l.cfg.seed = seed;
            probe(&cache, &l.key(), &sims);
            assert!(cache.lock().entries.len() <= MAX_ENTRIES);
        }
        assert_eq!(cache.lock().entries.len(), MAX_ENTRIES);
        // The newest entry is still there; the oldest was evicted.
        let before = sims.get();
        probe(&cache, &l.key(), &sims);
        assert_eq!(sims.get(), before);
        l.cfg.seed = 0;
        probe(&cache, &l.key(), &sims);
        assert_eq!(sims.get(), before + 1);
    }

    #[test]
    fn the_word_budget_holds() {
        // Audited launches key their whole batch: 600 sequences make each
        // key longer than the budget allows a thousand of.
        let cache = StepCache::new();
        let sims = Cell::new(0);
        let mut l = launch();
        l.cfg.audit_plans = true;
        l.batch = Batch::new((1..=600).collect());
        for seed in 0..300 {
            l.cfg.seed = seed;
            probe(&cache, &l.key(), &sims);
            let inner = cache.lock();
            assert!(inner.words.len() <= MAX_WORDS);
            assert_eq!(
                inner.words.len(),
                inner.entries.iter().map(|e| e.len).sum::<usize>()
            );
        }
        assert!(
            cache.lock().entries.len() < 300,
            "the word budget evicted entries"
        );
        // The newest entry hits; the oldest is gone.
        let before = sims.get();
        probe(&cache, &l.key(), &sims);
        assert_eq!(sims.get(), before);
        l.cfg.seed = 0;
        probe(&cache, &l.key(), &sims);
        assert_eq!(sims.get(), before + 1);
    }

    #[test]
    fn colliding_digests_never_decide_a_hit() {
        let cache = StepCache::new();
        let sims = Cell::new(0);
        let mut l = launch();
        for seed in 0..20 {
            l.cfg.seed = seed;
            probe(&cache, &l.key(), &sims);
        }
        // Chain every entry onto one digest, as if all twenty collided:
        // only the full words can tell them apart.
        let mut inner = cache.lock();
        inner.newest.clear();
        inner.newest.insert(0, 19);
        for (n, e) in inner.entries.iter_mut().enumerate() {
            e.digest = 0;
            e.older = n.checked_sub(1).map(|o| o as u64);
        }
        let env = *inner.envs.get(l.key().env.as_slice()).unwrap();
        for seed in 0..20 {
            l.cfg.seed = seed;
            let e = inner.find_on_chain(0, env, &l.key()).expect("stored");
            assert_eq!(e.outcome, Ok(SimDuration::from_nanos(seed + 1)));
        }
        l.cfg.seed = 20;
        assert!(inner.find_on_chain(0, env, &l.key()).is_none());
    }

    #[test]
    fn evicted_environments_are_released() {
        let cache = StepCache::new();
        let sims = Cell::new(0);
        let mut l = launch();
        l.cfg.exec.remap_slack = 0.5;
        probe(&cache, &l.key(), &sims);
        // Push the one entry of that environment out with another's.
        let mut other = launch();
        for seed in 0..MAX_ENTRIES as u64 {
            other.cfg.seed = seed;
            probe(&cache, &other.key(), &sims);
        }
        let inner = cache.lock();
        assert_eq!(inner.envs.len(), 1);
        assert_eq!(inner.free.len(), 1);
        assert_eq!(inner.env_refs.iter().sum::<u32>() as usize, MAX_ENTRIES);
    }

    #[test]
    fn evicting_an_environment_while_inserting_into_it_is_safe() {
        // The oldest entry holds the only reference to its environment;
        // inserting a new entry of that environment into a full cache
        // evicts it first and must re-intern, not reuse a freed id.
        let cache = StepCache::new();
        let sims = Cell::new(0);
        let mut lone = launch();
        lone.cfg.exec.remap_slack = 0.5;
        probe(&cache, &lone.key(), &sims);
        let mut other = launch();
        for seed in 0..MAX_ENTRIES as u64 - 1 {
            other.cfg.seed = seed;
            probe(&cache, &other.key(), &sims);
        }
        lone.cfg.seed += 1;
        probe(&cache, &lone.key(), &sims);
        let before = sims.get();
        probe(&cache, &lone.key(), &sims);
        assert_eq!(sims.get(), before, "the new entry hits");
        let inner = cache.lock();
        assert_eq!(inner.envs.len(), 2);
        assert_eq!(inner.env_refs.iter().sum::<u32>() as usize, MAX_ENTRIES);
    }

    #[test]
    fn integers_escape_injectively() {
        let words = |v: u64| {
            let mut w = Words::default();
            w.int(v);
            w.0
        };
        assert_eq!(words(5), vec![5]);
        assert_eq!(words(u64::from(u32::MAX)), vec![u32::MAX, u32::MAX, 0]);
        assert_eq!(words(1 << 32), vec![u32::MAX, 0, 1]);
        let s = |t: &str| {
            let mut w = Words::default();
            t.encode(&mut w);
            w.0
        };
        assert_ne!(s("ab"), s("ab\0"));
        let packed = |fields: &[(u64, u32)]| {
            let mut w = Words::default();
            w.packed(fields);
            w.0
        };
        assert_eq!(packed(&[(2, 2), (5, 9)]), vec![2 | 5 << 2]);
        // A field at or past its escape spills into a trailing int.
        assert_eq!(packed(&[(3, 2), (5, 9)]), vec![3 | 5 << 2, 3]);
        assert_eq!(packed(&[(1, 2), (600, 9)]), vec![1 | 511 << 2, 600]);
        assert_ne!(packed(&[(1, 2), (511, 9)]), packed(&[(1, 2), (510, 9)]));
    }
}
