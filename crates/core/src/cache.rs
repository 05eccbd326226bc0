//! A sharded, lock-striped feasibility-verdict memo cache.
//!
//! Parallel solving re-derives the same dependence paths over and over:
//! different candidates share sub-flows, alternative paths of one candidate
//! overlap, and every worker engine starts from scratch. Following the
//! observation that redundant per-query work dominates value-flow solving
//! cost, [`VerdictCache`] memoizes the *verdict* of a path-set query under
//! a canonical content hash so any worker can reuse any other worker's
//! result.
//!
//! Design points:
//!
//! * **Keyed by content, not identity.** [`VerdictCache::key`] hashes the
//!   vertex sequence, the inter-procedural link labels, *and* each vertex's
//!   transfer function (its SSA definition: kind tag, operands, guard), so
//!   two structurally identical queries collide on purpose while any
//!   semantic difference separates them.
//! * **Lock-striped.** The map is split over [`VerdictCache::shards`]
//!   mutexes selected by key, so concurrent workers rarely contend.
//! * **Never caches [`Feasibility::Unknown`].** Unknown means a budget ran
//!   out; a later query with a fresh budget (or a warmer engine) may still
//!   decide it, so Unknown is recomputed rather than memoized.
//! * **Observable.** Hit/miss/insert counters are lock-free atomics; the
//!   retained size is charged to [`Category::Cache`][crate::memory::Category]
//!   by the analysis drivers via [`VerdictCache::bytes`].
//! * **Checker-independent.** The key deliberately contains *no*
//!   [`CheckerId`][crate::checkers::CheckerId]: a feasibility verdict is a
//!   pure function of the path's *conditions* — the vertex sequence, the
//!   link labels, and each vertex's transfer function, all of which
//!   [`path_set_key`] hashes — and never of the client fact flowing along
//!   it (null-ness, taint, privacy). The checker only decides *which*
//!   paths get discovered; once a path exists, "can some execution take
//!   it?" is the same question for every client. A fused multi-client
//!   pass therefore shares this cache across checkers: when two checkers
//!   discover byte-identical path content (e.g. overlapping source/sink
//!   vocabularies), the second checker's queries hit the first's
//!   verdicts. This is still not condition caching in the §3.2.2 sense —
//!   the cache stores three-valued *verdicts*, never formulas.
//! * **128-bit keys.** A bare 64-bit content hash is too narrow for a
//!   *correctness-bearing* memo: at a few hundred million distinct path
//!   sets the birthday bound makes a silent collision — and therefore a
//!   silently wrong verdict or closure — plausible over a large scan
//!   corpus. [`path_set_key`] therefore folds the serialized path content
//!   into **two independently seeded FNV-1a streams** and keys both this
//!   cache and [`crate::slice_cache::SliceCache`] on the [`Key128`] pair.
//!   Colliding now requires the same unstructured input to collide under
//!   both seeds simultaneously (~2⁻¹²⁸ per pair), while the fold stays
//!   allocation-free and order-deterministic.

use crate::engine::Feasibility;
use fusion_ir::ssa::{DefKind, Program};
use fusion_pdg::paths::{DependencePath, Link};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Approximate retained bytes per cache entry: the 16-byte key, the
/// verdict, and amortized hash-table overhead (bucket slot, control bytes,
/// growth slack).
pub const BYTES_PER_CACHE_ENTRY: u64 = 40;

/// The widened content key: the same word stream folded through two
/// independently seeded FNV-1a streams. Two path sets alias only if they
/// collide under *both* seeds, pushing the effective collision bound from
/// a birthday-plausible 2⁻⁶⁴ to a negligible 2⁻¹²⁸.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key128 {
    /// The primary FNV-1a stream (the pre-widening 64-bit key).
    pub lo: u64,
    /// The second, independently seeded stream.
    pub hi: u64,
}

impl Key128 {
    /// Assembles a key from its two halves. Mostly useful in tests that
    /// need hand-built (e.g. deliberately half-colliding) keys; analysis
    /// code obtains keys from [`path_set_key`].
    pub fn from_parts(lo: u64, hi: u64) -> Self {
        Key128 { lo, hi }
    }

    /// The lock-stripe index for this key among `shards` stripes.
    pub(crate) fn shard_index(self, shards: usize) -> usize {
        (self.lo as usize) % shards
    }
}

/// Monotonic cache counters, plus the retained entry count and byte size
/// at observation time. Obtained from [`VerdictCache::stats`]; two
/// snapshots subtract ([`CacheStats::since`]) to scope numbers to one run
/// when a cache is shared across runs or checkers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to go to an engine.
    pub misses: u64,
    /// Verdicts stored (Unknown verdicts are never stored).
    pub inserts: u64,
    /// Entries retained at observation time.
    pub entries: u64,
    /// Retained bytes at observation time.
    pub bytes: u64,
}

impl CacheStats {
    /// Counter deltas relative to an `earlier` snapshot of the same cache;
    /// `entries`/`bytes` stay absolute (they describe current retention,
    /// not traffic).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            entries: self.entries,
            bytes: self.bytes,
        }
    }

    /// Hit rate in `[0, 1]` (0 when no queries were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded feasibility-verdict cache shared across worker engines.
///
/// All methods take `&self`; the cache is `Sync` and meant to be shared by
/// reference (or `Arc`) across the solving threads of one or many runs.
#[derive(Debug)]
pub struct VerdictCache {
    shards: Vec<Mutex<HashMap<Key128, Feasibility>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl Default for VerdictCache {
    fn default() -> Self {
        Self::new()
    }
}

const DEFAULT_SHARDS: usize = 16;

impl VerdictCache {
    /// A cache with the default shard count (16).
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A cache with `shards` lock stripes (rounded up to at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        VerdictCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The canonical key of a path-set query: see [`path_set_key`].
    pub fn key(program: &Program, paths: &[DependencePath]) -> Key128 {
        path_set_key(program, paths)
    }

    /// Looks up a verdict, counting a hit or miss.
    pub fn get(&self, key: Key128) -> Option<Feasibility> {
        let shard = &self.shards[key.shard_index(self.shards.len())];
        let found = shard
            .lock()
            .expect("cache shard poisoned")
            .get(&key)
            .copied();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a verdict. [`Feasibility::Unknown`] is *not* stored: it only
    /// says a budget ran out, and memoizing it would pin the failure.
    pub fn insert(&self, key: Key128, verdict: Feasibility) {
        if verdict == Feasibility::Unknown {
            return;
        }
        let shard = &self.shards[key.shard_index(self.shards.len())];
        let inserted = shard
            .lock()
            .expect("cache shard poisoned")
            .insert(key, verdict)
            .is_none();
        if inserted {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes the given keys, returning how many were actually present.
    /// This is the incremental-rescan invalidation hook: the dirtiness
    /// tracker ([`crate::incremental`]) resolves which keys *can involve*
    /// an edited function via the recorded key→functions provenance and
    /// evicts exactly those. Eviction is **correctness-critical** here —
    /// [`path_set_key`] hashes only on-path content, while the memoized
    /// verdict also depends on the off-path definitions the slice closure
    /// pulls in from every function the path traverses — so a stale entry
    /// could silently replay a verdict the edited program no longer
    /// warrants.
    pub fn remove_keys(&self, keys: &[Key128]) -> u64 {
        let mut removed = 0u64;
        for &key in keys {
            let shard = &self.shards[key.shard_index(self.shards.len())];
            if shard
                .lock()
                .expect("cache shard poisoned")
                .remove(&key)
                .is_some()
            {
                removed += 1;
            }
        }
        removed
    }

    /// Total retained entries across shards.
    pub fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len() as u64)
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate retained bytes (entries × [`BYTES_PER_CACHE_ENTRY`]).
    pub fn bytes(&self) -> u64 {
        self.len() * BYTES_PER_CACHE_ENTRY
    }

    /// A point-in-time copy of every retained entry, for snapshot
    /// serialization ([`crate::snapshot`]). Order is unspecified; the
    /// writer sorts by key before encoding.
    pub fn entries(&self) -> Vec<(Key128, Feasibility)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .iter()
                    .map(|(k, v)| (*k, *v))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// A consistent-enough snapshot of the counters and retention.
    pub fn stats(&self) -> CacheStats {
        let entries = self.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries,
            bytes: entries * BYTES_PER_CACHE_ENTRY,
        }
    }
}

/// The canonical content key of a path-set query: a dual FNV-1a fold over
/// every path's vertex sequence, link labels, and per-vertex transfer
/// function (definition kind, operands, guard), producing a 128-bit
/// [`Key128`] (two independently seeded 64-bit streams over the same
/// words). Identical program + identical paths ⇒ identical key,
/// independent of discovery order, worker, or allocation. Shared by
/// [`VerdictCache`] (verdict memo) and
/// [`crate::slice_cache::SliceCache`] (closure memo): the same content
/// identity governs both, since a slice closure and a verdict are each
/// pure functions of the path set's dependence structure.
pub fn path_set_key(program: &Program, paths: &[DependencePath]) -> Key128 {
    let mut h = Fnv::new();
    h.write(paths.len() as u64);
    for path in paths {
        h.write(0xDEAD_BEEF); // path separator
        h.write(path.nodes.len() as u64);
        for v in &path.nodes {
            h.write(v.func.0 as u64);
            h.write(v.var.0 as u64);
            hash_transfer(&mut h, program, *v);
        }
        for link in &path.links {
            match link {
                Link::Local => h.write(1),
                Link::Enter(s) => {
                    h.write(2);
                    h.write(s.0 as u64);
                }
                Link::Exit(s) => {
                    h.write(3);
                    h.write(s.0 as u64);
                }
            }
        }
    }
    h.finish()
}

/// Folds the transfer function of vertex `v` into the hash: the definition
/// kind's tag and fields. Two vertices with equal ids but different
/// definitions (different programs) hash apart.
pub(crate) fn hash_transfer(h: &mut Fnv, program: &Program, v: fusion_pdg::graph::Vertex) {
    let def = program.func(v.func).def(v.var);
    match &def.kind {
        DefKind::Param { index } => {
            h.write(10);
            h.write(*index as u64);
        }
        DefKind::Const { value, is_null } => {
            h.write(11);
            h.write(*value as u64);
            h.write(*is_null as u64);
        }
        DefKind::Copy { src } => {
            h.write(12);
            h.write(src.0 as u64);
        }
        DefKind::Binary { op, lhs, rhs } => {
            h.write(13);
            h.write(*op as u64);
            h.write(lhs.0 as u64);
            h.write(rhs.0 as u64);
        }
        DefKind::Ite {
            cond,
            then_v,
            else_v,
        } => {
            h.write(14);
            h.write(cond.0 as u64);
            h.write(then_v.0 as u64);
            h.write(else_v.0 as u64);
        }
        DefKind::Call { callee, args, site } => {
            h.write(15);
            h.write(callee.0 as u64);
            h.write(site.0 as u64);
            h.write(args.len() as u64);
            for a in args {
                h.write(a.0 as u64);
            }
        }
        DefKind::Branch { cond } => {
            h.write(16);
            h.write(cond.0 as u64);
        }
        DefKind::Return { src } => {
            h.write(17);
            h.write(src.0 as u64);
        }
    }
    match def.guard {
        None => h.write(20),
        Some(g) => {
            h.write(21);
            h.write(g.0 as u64);
        }
    }
}

/// The standard FNV-1a 64-bit offset basis: seed of the primary stream
/// (and of the pre-widening key, so the low half is bit-compatible with
/// the historical 64-bit key).
const FNV_SEED_LO: u64 = 0xcbf2_9ce4_8422_2325;
/// Seed of the second stream — any constant distinct from the offset
/// basis works; the byte-wise XOR-multiply fold is nonlinear, so the two
/// streams diverge immediately and never track each other.
const FNV_SEED_HI: u64 = 0x9e37_79b9_7f4a_7c15;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Dual-stream FNV-1a over u64 words (each word folded byte-wise for
/// diffusion into both streams).
pub(crate) struct Fnv {
    lo: u64,
    hi: u64,
}

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv {
            lo: FNV_SEED_LO,
            hi: FNV_SEED_HI,
        }
    }

    pub(crate) fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.lo ^= byte as u64;
            self.lo = self.lo.wrapping_mul(FNV_PRIME);
            self.hi ^= byte as u64;
            self.hi = self.hi.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(&self) -> Key128 {
        Key128 {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_ir::{compile, CompileOptions};
    use fusion_pdg::graph::Pdg;

    /// A distinct, hand-built test key per index.
    fn k(n: u64) -> Key128 {
        Key128::from_parts(n, !n)
    }

    fn program_and_paths() -> (Program, Vec<DependencePath>) {
        let src = "extern fn deref(p);\n\
            fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
            fn g(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }";
        let program = compile(src, CompileOptions::default()).expect("compile");
        let pdg = Pdg::build(&program);
        let checker = crate::checkers::Checker::null_deref();
        let cands = crate::propagate::discover(
            &program,
            &pdg,
            &checker,
            &crate::propagate::PropagateOptions::default(),
        );
        let paths: Vec<DependencePath> = cands.into_iter().flat_map(|c| c.paths).collect();
        assert!(paths.len() >= 2, "expected at least two candidate paths");
        (program, paths)
    }

    #[test]
    fn key_is_deterministic_and_content_sensitive() {
        let (program, paths) = program_and_paths();
        let k1 = VerdictCache::key(&program, std::slice::from_ref(&paths[0]));
        let k2 = VerdictCache::key(&program, std::slice::from_ref(&paths[0]));
        assert_eq!(k1, k2, "same content, same key");
        let other = VerdictCache::key(&program, std::slice::from_ref(&paths[1]));
        assert_ne!(k1, other, "f and g paths traverse different vertices");
        // Both streams must separate distinct content, not just the pair.
        assert_ne!(k1.lo, other.lo, "primary stream distinguishes paths");
        assert_ne!(k1.hi, other.hi, "secondary stream distinguishes paths");
    }

    #[test]
    fn colliding_prefix_keys_no_longer_alias() {
        // Regression for the 64-bit-key soundness hole: before widening,
        // the cache key was exactly `Key128::lo`, so two path sets whose
        // primary FNV streams collide would silently alias and return one
        // another's verdicts/closures. Model that collision with two
        // hand-built keys sharing the full 64-bit prefix and differing
        // only in the independently seeded second stream: the widened
        // cache must keep them separate.
        let a = Key128::from_parts(0xDEAD_BEEF_DEAD_BEEF, 0x1111_1111_1111_1111);
        let b = Key128::from_parts(0xDEAD_BEEF_DEAD_BEEF, 0x2222_2222_2222_2222);
        assert_eq!(a.lo, b.lo, "the old 64-bit keys collide");
        assert_ne!(a, b, "the widened keys do not");
        let cache = VerdictCache::with_shards(4);
        cache.insert(a, Feasibility::Feasible);
        cache.insert(b, Feasibility::Infeasible);
        assert_eq!(cache.get(a), Some(Feasibility::Feasible));
        assert_eq!(cache.get(b), Some(Feasibility::Infeasible));
        assert_eq!(cache.len(), 2, "colliding-prefix keys occupy two entries");
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = VerdictCache::with_shards(4);
        assert_eq!(cache.get(k(42)), None);
        cache.insert(k(42), Feasibility::Feasible);
        assert_eq!(cache.get(k(42)), Some(Feasibility::Feasible));
        cache.insert(k(43), Feasibility::Infeasible);
        assert_eq!(cache.get(k(43)), Some(Feasibility::Infeasible));
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 2 * BYTES_PER_CACHE_ENTRY);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_is_never_stored() {
        let cache = VerdictCache::new();
        cache.insert(k(7), Feasibility::Unknown);
        assert!(cache.is_empty());
        assert_eq!(cache.get(k(7)), None);
        assert_eq!(cache.stats().inserts, 0);
    }

    #[test]
    fn reinsert_does_not_double_count() {
        let cache = VerdictCache::new();
        cache.insert(k(1), Feasibility::Feasible);
        cache.insert(k(1), Feasibility::Feasible);
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stats_since_scopes_counters() {
        let cache = VerdictCache::new();
        cache.insert(k(1), Feasibility::Feasible);
        let _ = cache.get(k(1));
        let before = cache.stats();
        let _ = cache.get(k(1));
        let _ = cache.get(k(2));
        let delta = cache.stats().since(&before);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.inserts, 0);
    }

    #[test]
    fn concurrent_workers_share_verdicts() {
        let cache = VerdictCache::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..256u64 {
                        let key = i % 32;
                        if cache.get(k(key)).is_none() {
                            let v = if key % 2 == 0 {
                                Feasibility::Feasible
                            } else {
                                Feasibility::Infeasible
                            };
                            cache.insert(k(key), v);
                        }
                        let _ = t;
                    }
                });
            }
        });
        assert_eq!(cache.len(), 32);
        for key in 0..32u64 {
            let want = if key % 2 == 0 {
                Feasibility::Feasible
            } else {
                Feasibility::Infeasible
            };
            assert_eq!(cache.get(k(key)), Some(want), "key {key}");
        }
        let s = cache.stats();
        assert!(s.hits > 0 && s.misses >= 32);
    }
}
